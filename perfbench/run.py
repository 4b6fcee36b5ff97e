"""safestock training benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py                       # every workload, untraced + traced
    python3 perfbench/run.py --workload a2c_steady --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke               # the benchmark's own test

Each workload runs in fresh interpreters (workload.py) with BLAS pinned to one
thread.  Set-up is timed by probe interpreters that stop at the first
``Env.step``; the untraced run gives the end-to-end metrics; ``--trace 1``
adds a traced run whose layer wrappers (tracer.py) give the per-layer metrics,
and reports the tracing overhead as traced minus untraced ``run_s``.  Every
seed is checked: it must not raise, its rewards must be finite, its ledger
must conserve demand, and its metrics CSV must match the recorded SHA-256.
The last line of output is one JSON object: correct, attempted, failed and
metrics.  See README.md for why each workload exists.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
DIGESTS = BENCH / "digests.json"

STEPS_PER_EPISODE = 200
SEED_POOL = 16     # --seed n runs pool seed n % 16; every pool seed has a digest
PROBES = 5         # set-up samples per run; setup_s is their median
DEADLINE_S = 170   # a run must end within 180 s
ADAM_PASSES = 30   # float64 array reads+writes in nets.adam_step's 13 numpy ops

# window_per_s sizes the steady window from --seconds at a fixed rate, so a
# seed and a --seconds value always mean the same work and the same digest.
# "smoke" is (warm-up, window, eval) episodes for --smoke.
WORKLOADS = {
    # env + qlearning only (no nets); the memory workload: one dense
    # per-state Q array per visited state, ~7k states at 4500 episodes.
    "q_tabular": {"label": "tabular Q-learning, case 1", "algo": "q", "case": 1,
                  "seeds": 1, "workers": 1, "warmup": 500, "window_per_s": 200,
                  "eval_episodes": 100, "block": 250, "smoke": (20, 20, 2)},
    # nets-bound; trains past the Adam subnormal onset (~episode 30) and
    # the ramp after it, then times a steady window; eval is forward-only.
    "a2c_steady": {"label": "A2C, case 1", "algo": "a2c", "case": 1,
                   "seeds": 1, "workers": 1, "warmup": 80, "window_per_s": 1.5,
                   "eval_episodes": 100, "block": 10, "smoke": (3, 3, 2)},
    # 4 small networks and many small calls per step (Python glue), two
    # seeds through run_experiment's process pool; the only harness workload.
    "maa2c_seeds": {"label": "multi-agent A2C, case 2, run_experiment workers=2",
                    "algo": "maa2c", "case": 2, "seeds": 2, "workers": 2,
                    "warmup": 40, "window_per_s": 1.0, "eval_episodes": 50,
                    "block": 10, "smoke": (2, 2, 2)},
}

END_TO_END = [
    ("setup_s", "s"),
    ("train_steps_per_s", "periods/s"),
    ("steady_episode_ms.p50", "ms"),
    ("steady_episode_ms.p90", "ms"),
    ("eval_steps_per_s", "periods/s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("failed_frac", "fraction"),
]
# Printed but not gated, so not in the JSON line.  failed_frac is 0 on a
# correct run and cannot carry a relative bound; the JSON line reports it as
# "failed" and "attempted".  The p50 and the few-second eval phase spread
# more than the largest allowed bound across runs on a noisy 2-vCPU host
# (README.md, "Host noise").
NOT_IN_JSON = {"failed_frac", "steady_episode_ms.p50", "eval_steps_per_s"}

PER_LAYER = [
    ("env.Env.step.us_per_call", "us"),
    ("env.Env.step.calls", "count"),
    ("env.clip_action.us_per_call", "us"),
    ("env.clip_action.calls", "count"),
    ("env.clip_action.violation_frac", "fraction"),
    ("qlearning.FeasibleActions.from_state.us_per_call", "us"),
    ("qlearning.select_action.us_per_call", "us"),
    ("qlearning.greedy_action.us_per_call", "us"),
    ("qlearning.q_update.us_per_call", "us"),
    ("qlearning.index_cache.entries", "count"),
    ("qlearning.index_cache.hit_frac", "fraction"),
    ("qlearning.table.states", "count"),
    ("qlearning.table.mb", "MB"),
    ("nets.adam_step.us_per_call", "us"),
    ("nets.adam_step.us_per_call.pre_onset", "us"),
    ("nets.adam_step.us_per_call.steady", "us"),
    ("nets.adam_step.calls", "count"),
    ("nets.backward.us_per_call", "us"),
    ("nets.backward.calls", "count"),
    ("nets.forward_cached.us_per_call", "us"),
    ("nets.forward_cached.calls", "count"),
    ("nets.forward.us_per_call", "us"),
    ("nets.forward.calls", "count"),
    ("nets.adam.m_subnormal_frac", "fraction"),
    ("nets.adam.v_subnormal_frac", "fraction"),
    ("nets.adam.params", "count"),
    ("nets.adam_step.computed_mb_per_call", "MB"),
    ("actor_critic.a2c_step.self_us_per_call", "us"),
    ("actor_critic.train_a2c.self_frac", "fraction"),
    ("multi_agent.maa2c_step.self_us_per_call", "us"),
    ("multi_agent.train_maa2c.self_frac", "fraction"),
    ("harness.run_one_seed.s", "s"),
    ("harness.summarize.s", "s"),
    ("harness.files_written.mb", "MB"),
    ("harness.pool_overhead_s", "s"),
    ("metrics.EpisodeStats.update.us_per_call", "us"),
    ("trace.overhead_s", "s"),
    ("trace.spans_sampled", "count"),
]

now = time.perf_counter   # CLOCK_MONOTONIC on Linux, shared with the children


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed seed)."""


def make_plan(workload, seed, seconds, smoke):
    spec = WORKLOADS[workload]
    if smoke:
        warmup, window, eval_episodes = spec["smoke"]
    else:
        warmup, eval_episodes = spec["warmup"], spec["eval_episodes"]
        window = max(1, round(seconds * spec["window_per_s"]))
    episodes = warmup + window
    return {
        "workload": workload, "algo": spec["algo"], "case": spec["case"],
        "seeds": spec["seeds"], "workers": spec["workers"],
        "steps": STEPS_PER_EPISODE, "warmup": warmup, "episodes": episodes,
        "eval_episodes": eval_episodes, "block": spec["block"],
        "base_seed": seed % SEED_POOL, "span_stride": max(1, episodes // 10),
        "src": str(ROOT / "src"),
    }


def digest_key(plan):
    return (f"{plan['workload']}|{plan['episodes']}x{plan['steps']}"
            f"|eval{plan['eval_episodes']}")


def machine():
    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": "unknown", "isa": "baseline"}
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return info
    model = re.search(r"^model name\s*:\s*(.+)$", text, re.M)
    flags = re.search(r"^flags\s*:\s*(.+)$", text, re.M)
    if model:
        info["cpu"] = model.group(1).strip()
    if flags:
        have = set(flags.group(1).split())
        info["isa"] = next((f for f in ("avx512f", "avx2", "avx") if f in have),
                           "baseline")
    return info


def spawn(plan, out, mode, deadline):
    """Run workload.py in a fresh interpreter; returns (start, end, stdout)."""
    env = dict(os.environ, PYTHONPATH=plan["src"], OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(BENCH / "workload.py"), json.dumps(plan), str(out), mode]
    start = now()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{plan['workload']} {mode} passed the {DEADLINE_S} s deadline")
    finally:   # also reached on SIGTERM; takes pool workers down with the child
        end = now()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{plan['workload']} {mode} exited with {proc.returncode}")
    return start, end, stdout


def load_records(out):
    return {p.stem: json.loads(p.read_text())
            for p in sorted((out / "rec").glob("*.json"))}


def episode_times(record, phase):
    starts = record["starts"][phase]
    if not starts:
        return []
    ends = starts[1:] + [record["bounds"][phase][1]]
    return [b - a for a, b in zip(starts, ends)]


def percentile(values, q):
    data = sorted(values)
    if len(data) == 1:
        return data[0]
    return statistics.quantiles(data, n=100, method="inclusive")[q - 1]


def check_seed(plan, out, records, k, expected):
    """(problem or None, digest) for seed ``k`` of a finished run."""
    rec = records.get(f"seed{k:02d}")
    if rec is None or rec["error"]:
        return f"raised {rec['error'] if rec else 'before its first step'}", None
    main_error = records.get("main", {}).get("error")
    path = out / "run" / f"metrics_seed{k:02d}.csv"
    if not path.exists():
        return f"wrote no metrics CSV ({main_error})", None
    data = path.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    rows = [line.split(",") for line in data.decode().splitlines()[1:]]
    counts = [sum(r[1] == phase for r in rows) for phase in ("train", "eval")]
    if not all(math.isfinite(float(r[2])) for r in rows):
        return "non-finite reward", digest
    if counts != [plan["episodes"], plan["eval_episodes"]]:
        return f"train/eval rows {counts}", digest
    if expected is not None and expected[k] != digest:
        return f"digest {digest[:12]} != recorded {expected[k][:12]}", digest
    if main_error:
        return f"run_experiment raised {main_error}", digest
    return None, digest


def check_seeds(plan, out, records, digests, platform_key, record_digests):
    """Per-seed problems (None when a seed passed every check) and a note."""
    table = digests.setdefault(platform_key, {}).setdefault(digest_key(plan), {})
    expected = table.get(str(plan["base_seed"]))
    checked = [check_seed(plan, out, records, k, expected) for k in range(plan["seeds"])]
    problems = [problem for problem, _ in checked]
    if expected is not None:
        return problems, "digests match" if not any(problems) else "failed"
    if record_digests and not any(problems):
        table[str(plan["base_seed"])] = [digest for _, digest in checked]
        return problems, "digest recorded"
    return problems, "no digest recorded for this platform and config"


def end_to_end(plan, setups, run_s, records, process, problems):
    seeds = [records[f"seed{k:02d}"] for k in range(plan["seeds"])]
    train_steps = plan["seeds"] * plan["episodes"] * plan["steps"]
    train_wall = (max(r["bounds"]["train"][1] for r in seeds)
                  - min(r["bounds"]["train"][0] for r in seeds))
    eval_times = [t for r in seeds for t in episode_times(r, "eval")]
    window = [t * 1e3 for r in seeds for t in episode_times(r, "train")[plan["warmup"]:]]
    lo, hi = plan["warmup"], plan["episodes"] - 1
    win = f"n={len(window)} episodes, window {lo}-{hi}"
    return {
        "setup_s": (statistics.median(setups), f"n={len(setups)} probes, median"),
        "train_steps_per_s": (train_steps / train_wall, f"n={train_steps} periods"),
        "steady_episode_ms.p50": (statistics.median(window), win),
        "steady_episode_ms.p90": (percentile(window, 90), win),
        "eval_steps_per_s": (plan["steps"] / statistics.median(eval_times),
                             f"n={len(eval_times)} episodes, median episode"),
        "run_s": (run_s, "n=1 interpreter, start to exit"),
        "peak_rss_mb": (process["peak_rss_mb"], "max over process and pool workers"),
        "failed_frac": (sum(p is not None for p in problems) / len(problems),
                        f"n={len(problems)} seeds attempted"),
    }


def per_layer(plan, out, records, overhead_s):
    agg = defaultdict(lambda: [0, 0.0, 0.0])
    counters = defaultdict(int)
    for rec in records.values():
        for name, window, calls, total, self_time in rec["agg"]:
            acc = agg[name, window]
            acc[0] += calls
            acc[1] += total
            acc[2] += self_time
        for name, value in rec["counters"].items():
            counters[name] += value
    seeds = [records[f"seed{k:02d}"] for k in range(plan["seeds"])]

    def total(name, field, windows=None):
        return sum(v[field] for (n, w), v in agg.items()
                   if n == name and (windows is None or w in windows))

    def per_call(name, field=1, windows=None, scale=1e6):
        calls = total(name, 0, windows)
        return total(name, field, windows) / calls * scale if calls else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    def layer(key):
        values = [r["layers"][key] for r in seeds if key in r["layers"]]
        return sum(values) / len(values) if values else 0.0

    m = {}
    for name in ("env.Env.step", "env.clip_action", "nets.adam_step",
                 "nets.backward", "nets.forward_cached", "nets.forward"):
        m[f"{name}.us_per_call"] = per_call(name)
        m[f"{name}.calls"] = total(name, 0)
    m["env.clip_action.violation_frac"] = ratio(
        counters["clip_action.violations"], total("env.clip_action", 0))
    for name in ("FeasibleActions.from_state", "select_action", "greedy_action",
                 "q_update"):
        m[f"qlearning.{name}.us_per_call"] = per_call(f"qlearning.{name}")
    from_state_calls = total("qlearning.FeasibleActions.from_state", 0)
    m["qlearning.index_cache.entries"] = layer("index_cache.entries")
    m["qlearning.index_cache.hit_frac"] = ratio(
        from_state_calls - counters["index_cache.adds"], from_state_calls)
    m["qlearning.table.states"] = layer("table.states")
    m["qlearning.table.mb"] = layer("table.mb")
    m["nets.adam_step.us_per_call.pre_onset"] = per_call(
        "nets.adam_step", windows={"pre_onset"})
    m["nets.adam_step.us_per_call.steady"] = per_call(
        "nets.adam_step", windows={"steady"})
    m["nets.adam.m_subnormal_frac"] = layer("adam.m_subnormal_frac")
    m["nets.adam.v_subnormal_frac"] = layer("adam.v_subnormal_frac")
    m["nets.adam.params"] = layer("adam.params")
    m["nets.adam_step.computed_mb_per_call"] = ADAM_PASSES * 8 * m["nets.adam.params"] / 1e6
    for step, train in (("actor_critic.a2c_step", "actor_critic.train_a2c"),
                        ("multi_agent.maa2c_step", "multi_agent.train_maa2c")):
        m[f"{step}.self_us_per_call"] = per_call(step, field=2)
        m[f"{train}.self_frac"] = ratio(total(train, 2), total(train, 1))
    m["harness.run_one_seed.s"] = per_call("harness.run_one_seed", scale=1.0)
    m["harness.summarize.s"] = per_call("harness.summarize", scale=1.0)
    harness_ran = total("harness.run_experiment", 0) > 0
    m["harness.files_written.mb"] = sum(
        p.stat().st_size for p in (out / "run").iterdir()) / 1e6 if harness_ran else 0.0
    slowest = max((sum(row[3] for row in r["agg"] if row[0] == "harness.run_one_seed")
                   for r in seeds), default=0.0)
    m["harness.pool_overhead_s"] = (total("harness.run_experiment", 1) - slowest
                                    if harness_ran else 0.0)
    m["metrics.EpisodeStats.update.us_per_call"] = per_call("metrics.EpisodeStats.update")
    m["trace.overhead_s"] = overhead_s
    m["trace.spans_sampled"] = sum(
        sum(1 for _ in open(p)) for p in (out / "rec").glob("*.spans.jsonl"))
    return m


class Report:
    """Collects printed lines so --smoke can check what was printed."""

    def __init__(self):
        self.lines = []

    def __call__(self, text):
        print(text, flush=True)
        self.lines.extend(text.splitlines())

    def metric(self, name, value, unit, note=""):
        self(f"{name:<48} {value:>14.6g} {unit:<10} {note}".rstrip())


def run_mode(report, plan, base, mode, deadline, digests, record, info):
    out = base / mode
    start, end, _ = spawn(plan, out, mode, deadline)
    records = load_records(out)
    process = json.loads((out / "process.json").read_text())
    platform_key = f"{info['cpu']}|{info['isa']}|numpy {process['numpy']}|{process['blas']}"
    problems, note = check_seeds(plan, out, records, digests, platform_key, record)
    for k, problem in enumerate(problems):
        report(f"check {mode} seed {k}: {problem or 'ok'}")
    report(f"check {mode}: {note}")
    return end - start, out, records, process, problems


def run_workload(report, workload, seed, seconds, trace, smoke, digests, record):
    """Probes and an untraced run, plus a traced run if ``trace``.

    Returns (attempted, failed, end-to-end metrics, per-layer metrics); a
    metrics dict is None when a seed it needs failed.
    """
    deadline = now() + DEADLINE_S
    plan = make_plan(workload, seed, seconds, smoke)
    base = OUT / ("smoke" if smoke else "") / f"{workload}-seed{seed}"
    shutil.rmtree(base, ignore_errors=True)
    report(f"== {workload}: {WORKLOADS[workload]['label']}, {plan['seeds']} seed(s) x "
           f"{plan['episodes']} episodes x {plan['steps']} periods, then "
           f"{plan['eval_episodes']} eval episodes; --seed {seed} -> pool seed "
           f"{plan['base_seed']}")
    setups = []
    for i in range(PROBES):
        start, _, stdout = spawn(plan, base / f"probe{i}", "probe", deadline)
        setups.append(json.loads(stdout.strip().splitlines()[-1])["first_step"] - start)
    info = machine()
    run_s, out, records, process, problems = run_mode(
        report, plan, base, "run", deadline, digests, record, info)
    report(f"machine: nproc={info['nproc']} affinity={info['affinity']} cpu={info['cpu']} "
           f"isa={info['isa']} python={process['python']} numpy={process['numpy']} "
           f"blas={process['blas']} blas_threads={process['blas_threads']}")
    attempted, failed = len(problems), sum(p is not None for p in problems)
    e2e = layers = None
    if not any(problems):
        for k in range(plan["seeds"]):
            times = [t * 1e3 for t in episode_times(records[f"seed{k:02d}"], "train")]
            blocks = [statistics.median(times[i:i + plan["block"]])
                      for i in range(0, len(times), plan["block"])]
            report(f"seed {k} train episode ms, median per {plan['block']}-episode "
                   f"block: " + " ".join(f"{b:.1f}" for b in blocks))
        e2e = end_to_end(plan, setups, run_s, records, process, problems)
        for name, unit in END_TO_END:
            value, note = e2e[name]
            report.metric(name, value, unit, note)
        e2e = {name: value for name, (value, _) in e2e.items()}
    if trace:
        traced_s, t_out, t_records, _, t_problems = run_mode(
            report, plan, base, "trace", deadline, digests, record, info)
        attempted += len(t_problems)
        failed += sum(p is not None for p in t_problems)
        if not any(t_problems):
            layers = per_layer(plan, t_out, t_records, traced_s - run_s)
            for name, unit in PER_LAYER:
                report.metric(name, layers[name], unit)
            report(f"raw spans: {t_out / 'rec'}/*.spans.jsonl")
    return attempted, failed, e2e, layers


def json_metrics(values, names):
    return {name: {"value": values[name], "unit": unit}
            for name, unit in names if name not in NOT_IN_JSON}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny episode counts, every workload, untraced and "
                             "traced; fails unless every metric prints")
    parser.add_argument("--record-digests", action="store_true",
                        help="store the digests of seeds that pass the other checks "
                             "and have none recorded yet")
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    if not (ROOT / "src" / "safestock" / "__init__.py").is_file():
        print(f"error: no safestock sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if time.get_clock_info("perf_counter").implementation != "clock_gettime(CLOCK_MONOTONIC)":
        print("error: needs a perf_counter shared between processes", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    report = Report()
    single = args.workload is not None
    workloads = [args.workload] if single else list(WORKLOADS)
    trace = bool(args.trace) or not single
    attempted = failed = 0
    metrics = {}
    try:
        for workload in workloads:
            a, f, e2e, layers = run_workload(report, workload, args.seed, args.seconds,
                                             trace, args.smoke, digests,
                                             args.record_digests)
            attempted += a
            failed += f
            values = {}
            if e2e and not (single and args.trace):
                values.update(json_metrics(e2e, END_TO_END))
            if layers:
                values.update(json_metrics(layers, PER_LAYER))
            prefix = "" if single else f"{workload}."
            metrics.update({prefix + k: v for k, v in values.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.record_digests:
        DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    correct = failed == 0
    if args.smoke:
        correct = correct and smoke_check(report, workloads) and len(metrics) > 0
        report(f"smoke: {'ok' if correct else 'FAILED'}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def smoke_check(report, workloads):
    """Every named metric printed once per workload, with its unit; none failed."""
    ok = True
    for name, unit in END_TO_END + PER_LAYER:
        pattern = re.compile(rf"^{re.escape(name)}\s+\S+\s+{re.escape(unit)}(\s|$)")
        count = sum(bool(pattern.match(line)) for line in report.lines)
        if count != len(workloads):
            print(f"smoke: {name} [{unit}] printed {count} times, "
                  f"expected {len(workloads)}", file=sys.stderr)
            ok = False
    for line in report.lines:
        if line.startswith("failed_frac ") and float(line.split()[1]) != 0.0:
            ok = False
    return ok


if __name__ == "__main__":
    sys.exit(main())
