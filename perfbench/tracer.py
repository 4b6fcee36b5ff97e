"""Hooks that observe safestock's layers from outside the package.

Every hook replaces a module or class attribute of safestock with a thin
wrapper; no file of the package changes.  The wrappers go where the callers
look names up: ``actor_critic`` and ``multi_agent`` import ``forward``,
``backward``, ``adam_step`` and ``clip_action`` by name, and ``harness``
calls ``run_one_seed`` and ``summarize`` through its own globals.

``Recorder`` always installs the light hooks a run needs: episode boundaries
(``Env.reset``), the ledger check, the train/eval phase bounds and the
per-seed flush.  These fire once per episode or per seed.  With tracing on it
also wraps each layer's hot calls and keeps, per (name, window), the call
count, total time and self time (total minus the time of wrapped children),
plus a bounded sample of raw spans.  Pool workers are forked, so they inherit
the wrappers; each worker flushes its own seed's record when ``run_one_seed``
returns.
"""

import json
import time

import numpy as np

from safestock import actor_critic, env, harness, metrics, multi_agent, nets, qlearning

# CLOCK_MONOTONIC on Linux, so stamps from different processes compare.
now = time.perf_counter

PRE_ONSET_EPISODES = 20   # a2c m-subnormal onset is near episode 30
MAX_SPANS = 200_000       # raw spans kept per record; the rest are counted


class LedgerError(RuntimeError):
    """The simulator's conservation ledger broke: demand != served + stockouts."""


def check_ledger(sim):
    led = sim.ledger
    if led.demand_units != led.served_units + led.stockout_units:
        raise LedgerError(
            f"ledger broken at t={sim.state.t}: demand {led.demand_units} != "
            f"served {led.served_units} + stockout {led.stockout_units}")


def subnormal_frac(x):
    tiny = np.finfo(x.dtype).tiny
    return float(np.count_nonzero((x != 0) & (np.abs(x) < tiny))) / x.size


def artifact_stats(artifact):
    """Layer state read off a trained Q table or agent."""
    if isinstance(artifact, qlearning.QTable):
        return {"table.states": len(artifact), "table.mb": artifact.nbytes / 1e6}
    opt = artifact.opt
    return {"adam.params": int(opt.m.size),
            "adam.m_subnormal_frac": subnormal_frac(opt.m),
            "adam.v_subnormal_frac": subnormal_frac(opt.v)}


class Recorder:
    def __init__(self, out_dir, warmup, span_stride, trace):
        self.out = out_dir
        self.warmup = warmup
        self.span_stride = span_stride
        self.trace = trace
        self.stack = []
        self.begin_seed()

    def begin_seed(self):
        """Forget everything recorded so far (a forked worker's inherited state)."""
        self.stack.clear()
        self.phase = self.window = "setup"
        self.episode = -1
        self.starts = {"train": [], "eval": []}
        self.bounds = {}
        self.agg = {}
        self.counters = {"clip_action.violations": 0, "index_cache.adds": 0}
        self.layers = {}
        self.spans = []
        self.spans_dropped = 0
        self.sampling = False
        self.last_env = None
        self.error = None

    def end_seed(self, artifact):
        if self.last_env is not None:
            check_ledger(self.last_env)
        self.layers = artifact_stats(artifact)
        cache = getattr(qlearning, "_INDEX_CACHE", None)
        if cache is not None:
            self.layers["index_cache.entries"] = len(cache)

    def flush(self, name):
        record = {
            "starts": self.starts, "bounds": self.bounds, "error": self.error,
            "agg": [[n, w, *v] for (n, w), v in self.agg.items()],
            "counters": self.counters, "layers": self.layers,
            "spans_dropped": self.spans_dropped,
        }
        (self.out / f"{name}.json").write_text(json.dumps(record))
        if self.trace:
            with open(self.out / f"{name}.spans.jsonl", "w") as fh:
                for span in self.spans:
                    if span is not None:
                        fh.write(json.dumps(span) + "\n")

    # -- light hooks -------------------------------------------------------

    def on_reset(self, sim):
        check_ledger(sim)   # the episode that just ended
        self.last_env = sim
        if self.phase not in self.starts:
            return
        self.episode += 1
        self.starts[self.phase].append(now())
        if self.phase == "eval":
            self.window = "eval"
            self.sampling = self.trace and self.episode == 0
            return
        if self.episode >= self.warmup:
            self.window = "steady"
        elif self.episode < PRE_ONSET_EPISODES:
            self.window = "pre_onset"
        else:
            self.window = "ramp"
        self.sampling = self.trace and self.episode % self.span_stride == 0

    def phase_hook(self, fn, phase):
        def wrapper(*args, **kwargs):
            self.phase, self.episode = phase, -1
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                self.bounds[phase] = [t0, now()]
                self.phase = self.window = "post"
                self.sampling = False
        return wrapper

    # -- tracing -----------------------------------------------------------

    def traced(self, fn, name):
        stack = self.stack

        def wrapper(*args, **kwargs):
            frame = [0.0, -1]           # child time, raw span index
            if self.sampling:
                if len(self.spans) < MAX_SPANS:
                    frame[1] = len(self.spans)
                    self.spans.append(None)
                else:
                    self.spans_dropped += 1
            stack.append(frame)
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = now()
                stack.pop()
                d = t1 - t0
                if stack:
                    stack[-1][0] += d
                key = (name, self.window)
                acc = self.agg.get(key)
                if acc is None:
                    acc = self.agg[key] = [0, 0.0, 0.0]
                acc[0] += 1
                acc[1] += d
                acc[2] += d - frame[0]
                if frame[1] >= 0:
                    parent = stack[-1][1] if stack else -1
                    self.spans[frame[1]] = [name, t0, t1, parent, self.episode]
        return wrapper


def install(rec):
    """Put the recorder's wrappers on safestock's module and class attributes."""
    trace = rec.traced if rec.trace else (lambda fn, name: fn)

    orig_reset = env.Env.reset

    def reset(sim):
        rec.on_reset(sim)
        return orig_reset(sim)
    env.Env.reset = trace(reset, "env.Env.reset")

    for mod, prefix, train, evaluate in (
            (qlearning, "qlearning", "train_q", "evaluate_q"),
            (actor_critic, "actor_critic", "train_a2c", "evaluate_a2c"),
            (multi_agent, "multi_agent", "train_maa2c", "evaluate_maa2c")):
        for attr, phase in ((train, "train"), (evaluate, "eval")):
            fn = rec.phase_hook(getattr(mod, attr), phase)
            setattr(mod, attr, trace(fn, f"{prefix}.{attr}"))

    inner = trace(harness.run_one_seed, "harness.run_one_seed")

    def run_one_seed(config, k):
        rec.begin_seed()
        try:
            result = inner(config, k)
            rec.end_seed(result[2])
            return result
        except BaseException as exc:
            rec.error = repr(exc)
            raise
        finally:
            rec.flush(f"seed{k:02d}")
    harness.run_one_seed = run_one_seed

    if not rec.trace:
        return

    env.Env.step = trace(env.Env.step, "env.Env.step")
    orig_clip = env.clip_action

    def clip_action(*args, **kwargs):
        action = orig_clip(*args, **kwargs)
        if action.capacity_violation:
            rec.counters["clip_action.violations"] += 1
        return action
    clip_action = trace(clip_action, "env.clip_action")
    for attr in ("forward", "forward_cached", "backward", "adam_step"):
        wrapped = trace(getattr(nets, attr), f"nets.{attr}")
        for mod in (actor_critic, multi_agent):
            setattr(mod, attr, wrapped)
    for mod in (actor_critic, multi_agent):
        mod.clip_action = clip_action
    actor_critic.a2c_step = trace(actor_critic.a2c_step, "actor_critic.a2c_step")
    multi_agent.maa2c_step = trace(multi_agent.maa2c_step, "multi_agent.maa2c_step")

    for attr in ("select_action", "greedy_action", "q_update"):
        setattr(qlearning, attr, trace(getattr(qlearning, attr), f"qlearning.{attr}"))
    orig_from_state = qlearning.FeasibleActions.from_state.__func__

    def from_state(cls, *args, **kwargs):
        cache = getattr(qlearning, "_INDEX_CACHE", ())
        before = len(cache)
        feasible = orig_from_state(cls, *args, **kwargs)
        if len(cache) > before:
            rec.counters["index_cache.adds"] += 1
        return feasible
    qlearning.FeasibleActions.from_state = classmethod(
        trace(from_state, "qlearning.FeasibleActions.from_state"))

    metrics.EpisodeStats.update = trace(
        metrics.EpisodeStats.update, "metrics.EpisodeStats.update")
    harness.summarize = trace(harness.summarize, "harness.summarize")
    harness.run_experiment = trace(harness.run_experiment, "harness.run_experiment")
