"""Experiment orchestration: multi-seed training runs, their files, summaries.

A run trains one algorithm on one cost case across several seeds, then
evaluates each trained policy greedily (tabular argmax or the actor mean).
The run's own files each have one writer and one reader here:

* ``run_config.txt`` is written by ``_write_run_config`` and read only by
  ``experiment_config_from_file``, so it reads back as the same
  ``ExperimentConfig``, checked by the same rules.
* Every CSV (per-seed metrics and timing, ``summary.csv``,
  ``timing_summary.csv`` and the policy grid) is written by ``_write_rows``
  and read by ``_read_rows``, which checks the header, the field count and
  each value, and names the file and the line of a bad row.

The agents' files are not: ``agent_seed##.txt`` is written by
``actor_critic.save_agent`` and read by ``actor_critic.load_agent``, and
``qtable_seed##.txt`` (with ``--save-tables``) is written by
``qlearning.export_table`` and read by nothing in the package.

The summary recomputes everything from the per-seed files, so a later
``summarize`` pass reproduces it byte for byte.  Wall-clock times live in
separate timing CSVs because the metrics files must be byte-identical
across reruns of the same configuration.
"""

import time
from dataclasses import dataclass, field, fields as dataclass_fields
from pathlib import Path

import numpy as np

from . import actor_critic, multi_agent, qlearning
from .env import (ChainConfig, ConfigurationError, EnvState, IncomingOrders,
                  check_lead_times, cost_case, new_env)
from .gsm import analytical_targets
from .metrics import RunMetrics, compute_ci, moving_average, plateau_episode
from .nets import forward

ALGORITHMS = ("q", "a2c", "maa2c")
DEFAULT_EPISODES = {"q": 3000, "a2c": 1000, "maa2c": 1000}
METRICS_HEADER = ("episode,phase,total_reward,mean_inv_factory,"
                  "mean_inv_warehouse,mean_rp,stockout_units")
TIMING_HEADER = "episode,phase,wall_time"
SUMMARY_HEADER = "metric,mean,ci_low,ci_high"
TIMING_SUMMARY_HEADER = "seed,mean_wall_time_per_train_episode"
GRID_HEADER = "inv_factory,inv_warehouse,value,factory_action_mean"
SMOOTHING_WINDOW = 10


def _algorithm(raw):
    if raw not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {raw!r}; expected one of {ALGORITHMS}")
    return raw


@dataclass
class ExperimentConfig:
    """Every setting of one training comparison run; the learning recipe is
    fixed (``qlearning.QHyper()`` and ``actor_critic``'s constants)."""

    algorithm: str
    case: int
    episodes: int | None = None
    steps_per_episode: int = 1000
    num_seeds: int = 10
    base_seed: int = 0
    eval_episodes: int = 50
    out_dir: str = ""
    save_tables: bool = False
    env_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        """Check each field, and the run's chain, against its rule; a breach
        raises a ConfigurationError naming the fields involved."""
        # the file reader's rules for the algorithm and the case
        for name, rule in (("algorithm", _algorithm), ("case", cost_case)):
            try:
                rule(getattr(self, name))
            except ValueError as exc:
                raise ConfigurationError(str(exc), (name,)) from None
        if self.episodes is None:
            self.episodes = DEFAULT_EPISODES[self.algorithm]
        for name in ("num_seeds", "steps_per_episode"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name}={getattr(self, name)} must be >= 1",
                                         (name,))
        for name in ("episodes", "eval_episodes", "base_seed"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name}={getattr(self, name)} must be >= 0",
                                         (name,))
        if self.episodes + self.eval_episodes == 0:
            raise ConfigurationError(
                "a run needs at least one training or evaluation episode",
                ("episodes", "eval_episodes"))
        check_lead_times(self.chain_config())   # the simulator's own rule
        if not self.out_dir:
            self.out_dir = f"runs/{self.algorithm}_case{self.case}"

    def chain_config(self):
        return ChainConfig.for_case(self.case, **self.env_overrides)


def _seed_streams(base_seed, k):
    """Decoupled env/agent seeds for run ``k``; deterministic in base_seed."""
    root = np.random.default_rng(base_seed + k)
    return int(root.integers(2 ** 63)), int(root.integers(2 ** 63))


def _fmt(value):
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _phase(raw):
    if raw not in ("train", "eval"):
        raise ValueError(f"unknown phase {raw!r}, expected 'train' or 'eval'")
    return raw


# one caster per column of each CSV, in header order
METRICS_CASTERS = (int, _phase, float, float, float, float, int)
TIMING_CASTERS = (int, _phase, float)
SUMMARY_CASTERS = (str, float, float, float)
TIMING_SUMMARY_CASTERS = (str, float)
GRID_CASTERS = (int, int, float, float)


def _write_rows(path, header, rows):
    """Write a CSV: ``header``, then one line per row, floats by ``repr``."""
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(_fmt, row)) + "\n")


def _read_rows(path, header, casters):
    """Rows of a CSV that ``_write_rows`` wrote, as tuples cast column by
    column; a wrong header, field count or value raises a ValueError naming
    the file and the line."""
    rows = []
    with open(path) as fh:
        found = fh.readline().rstrip("\n")
        if found != header:
            raise ValueError(f"{path}, line 1: header {found!r}, expected {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            parts = line.split(",")
            if len(parts) != len(casters):
                raise ValueError(f"{path}, line {lineno}: {len(parts)} fields, "
                                 f"expected {len(casters)}: {line!r}")
            try:
                rows.append(tuple(cast(raw) for cast, raw in zip(casters, parts)))
            except ValueError as exc:
                raise ValueError(f"{path}, line {lineno}: {exc}") from None
    return rows


def _read_metrics_csv(path):
    """(train, eval) records of one metrics CSV."""
    phases = {"train": [], "eval": []}
    for episode, phase, *means, stockout_units in _read_rows(
            path, METRICS_HEADER, METRICS_CASTERS):
        phases[phase].append(RunMetrics(episode, *means, stockout_units, 0.0))
    return phases["train"], phases["eval"]


def run_one_seed(config, k):
    """Train and evaluate a single seeded run; returns (train, eval, artifact).

    The artifact is the trained Q table or agent, ready for serialization.
    A FloatingPointError from training or evaluation (a diverged network)
    names seed ``k``.
    """
    try:
        return _train_and_evaluate(config, k)
    except FloatingPointError as exc:
        raise FloatingPointError(f"seed {k}: {exc}") from exc


def _train_and_evaluate(config, k):
    env_seed, agent_seed = _seed_streams(config.base_seed, k)
    chain = config.chain_config()
    env = new_env(chain, env_seed)
    rng = np.random.default_rng(agent_seed)
    algo = config.algorithm
    if algo == "q":
        table, train = qlearning.train_q(
            env, qlearning.QHyper(), config.episodes, config.steps_per_episode, rng=rng)
        evals = qlearning.evaluate_q(
            env, table, config.eval_episodes, config.steps_per_episode)
        return train, evals, table
    if algo == "a2c":
        agent = actor_critic.make_a2c_agent(chain, agent_seed)
        train = actor_critic.train_a2c(
            env, agent, config.episodes, config.steps_per_episode, rng=rng)
        evals = actor_critic.evaluate_a2c(
            env, agent, config.eval_episodes, config.steps_per_episode)
        return train, evals, agent
    agent = multi_agent.make_maa2c_agent(chain, agent_seed)
    train = multi_agent.train_maa2c(
        env, agent, config.episodes, config.steps_per_episode, rng=rng)
    evals = multi_agent.evaluate_maa2c(
        env, agent, config.eval_episodes, config.steps_per_episode)
    return train, evals, agent


def _write_run_config(path, config):
    with open(path, "w", newline="\n") as fh:
        for f in dataclass_fields(config):
            value = getattr(config, f.name)
            if f.name == "env_overrides":
                for key, v in sorted(value.items()):
                    fh.write(f"env.{key} = {_fmt(v)}\n")
            else:
                fh.write(f"run.{f.name} = {_fmt(value)}\n")


def _run_and_write_seed(config, k):
    """Worker body: one seeded run plus its per-seed files (no shared state)."""
    tic = time.perf_counter()
    out = Path(config.out_dir)
    train, evals, artifact = run_one_seed(config, k)
    episodes = [(phase, m) for phase, records in (("train", train), ("eval", evals))
                for m in records]
    _write_rows(out / f"metrics_seed{k:02d}.csv", METRICS_HEADER, [
        (m.episode, phase, m.total_reward, m.mean_inv_factory,
         m.mean_inv_warehouse, m.mean_rp, m.stockout_units) for phase, m in episodes])
    _write_rows(out / f"timing_seed{k:02d}.csv", TIMING_HEADER,
                [(m.episode, phase, m.wall_time) for phase, m in episodes])
    if config.algorithm != "q":
        actor_critic.save_agent(artifact, out / f"agent_seed{k:02d}.txt", config.case)
    elif config.save_tables:
        with open(out / f"qtable_seed{k:02d}.txt", "w", newline="\n") as fh:
            qlearning.export_table(artifact, fh)
    # a run with no evaluation episodes reports its last training episode,
    # as summarize does (seed_means)
    phase, last = ("eval", evals[-1]) if evals else ("train", train[-1])
    return (f"seed {k}: {time.perf_counter() - tic:.1f}s, "
            f"final {phase} inv f/w = {last.mean_inv_factory:.2f}/"
            f"{last.mean_inv_warehouse:.2f}")


def run_experiment(config, log=None, workers=1):
    """Train ``num_seeds`` independent runs, write CSVs, return the summary.

    Seeds are isolated (own env, own RNG streams, own output files), so
    ``workers > 1`` fans them out over at most ``num_seeds`` processes
    without changing any result; the summary is computed afterwards.
    """
    if workers < 1:
        raise ValueError(f"workers={workers} must be >= 1")
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_run_config(out / "run_config.txt", config)
    workers = min(workers, config.num_seeds)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        from functools import partial

        with ProcessPoolExecutor(max_workers=workers) as pool:
            for line in pool.map(partial(_run_and_write_seed, config),
                                 range(config.num_seeds)):
                if log:
                    log(line)
    else:
        for k in range(config.num_seeds):
            line = _run_and_write_seed(config, k)
            if log:
                log(line)
    return summarize(out)


def seed_means(train, evals):
    """One seed's summary figures: means over all of its evaluation
    episodes (evaluation is frozen, so each plays the same policy from the
    reset state), or its last training episode's where it has none."""
    records = evals or train[-1:]
    n = len(records)
    return {
        "rp": sum(m.mean_rp for m in records) / n,
        "inv_warehouse": sum(m.mean_inv_warehouse for m in records) / n,
        "inv_factory": sum(m.mean_inv_factory for m in records) / n,
        "stockout_units": sum(m.stockout_units for m in records) / n,
        "total_reward": sum(m.total_reward for m in records) / n,
    }


@dataclass
class Summary:
    algorithm: str
    case: int
    num_seeds: int
    rows: list          # (metric, mean, ci_low, ci_high)
    targets: tuple      # the run's GSM (rp, inv_factory, inv_warehouse)

    def to_pretty_text(self):
        targets = dict(zip(("rp", "inv_factory", "inv_warehouse"), self.targets))
        lines = [
            f"algorithm: {self.algorithm}   case: {self.case}   "
            f"seeds: {self.num_seeds}",
            f"{'metric':<18} {'mean':>12} {'95% CI':>28} {'analytical':>11}",
        ]
        for name, mean, low, high in self.rows:
            target = targets.get(name)
            lines.append(
                f"{name:<18} {mean:>12.4f} {f'[{low:.4f}, {high:.4f}]':>28} "
                + (f"{target:>11g}" if target is not None else f"{'-':>11}"))
        return "\n".join(lines) + "\n"


def summarize(out_dir, use_t=False):
    """Recompute the run summary from the per-seed CSV files and write it.

    The algorithm, the case, the seed count and the chain behind the
    analytical targets come from the run's ``run_config.txt``, read and
    checked by ``experiment_config_from_file``.  A missing or malformed
    file, and a seed file whose train or eval rows do not number the run's
    episodes, fail before any summary file is written.
    """
    out = Path(out_dir)
    config_path = out / "run_config.txt"
    config = experiment_config_from_file(config_path)
    seed_files = [out / f"metrics_seed{k:02d}.csv" for k in range(config.num_seeds)]
    timing_files = [out / f"timing_seed{k:02d}.csv" for k in range(config.num_seeds)]
    missing = [str(path) for path in seed_files + timing_files if not path.is_file()]
    if missing:
        raise FileNotFoundError(f"{config_path} names {config.num_seeds} seeds; "
                                "missing: " + ", ".join(missing))
    per_seed = {name: [] for name in
                ("rp", "inv_warehouse", "inv_factory", "stockout_units",
                 "total_reward", "plateau_episode")}
    for path in seed_files:
        train, evals = _read_metrics_csv(path)
        _check_episode_counts(path, len(train), len(evals), config)
        for name, value in seed_means(train, evals).items():
            per_seed[name].append(value)
        rewards = [m.total_reward for m in train]
        # a seed with no training episodes never moved its policy
        per_seed["plateau_episode"].append(float(
            plateau_episode(moving_average(rewards, SMOOTHING_WINDOW)) if rewards else 0))
    rows = []
    for name, values in per_seed.items():
        mean = sum(values) / len(values)
        if len(values) >= 2:
            low, high = compute_ci(values, use_t=use_t)
        else:
            low = high = mean
        rows.append((name, mean, low, high))
    timing_rows = _timing_summary_rows(timing_files, config)
    summary = Summary(config.algorithm, config.case, config.num_seeds, rows,
                      analytical_targets(config.case, config.chain_config()))
    _write_rows(out / "summary.csv", SUMMARY_HEADER, rows)
    with open(out / "summary.txt", "w", newline="\n") as fh:
        fh.write(summary.to_pretty_text())
    _write_rows(out / "timing_summary.csv", TIMING_SUMMARY_HEADER, timing_rows)
    return summary


def _check_episode_counts(path, n_train, n_eval, config):
    """Refuse, with a ValueError naming ``path``, a seed file that does not
    hold one row per training and evaluation episode of ``config``'s run."""
    if (n_train, n_eval) != (config.episodes, config.eval_episodes):
        raise ValueError(f"{path}: {n_train} train and {n_eval} eval rows, expected "
                         f"{config.episodes} and {config.eval_episodes} as in "
                         "run_config.txt")


def _timing_summary_rows(timing_files, config):
    """(seed, mean wall time per training episode after the first) of each
    timing file with at least two training episodes."""
    rows = []
    for path in timing_files:
        episodes = _read_rows(path, TIMING_HEADER, TIMING_CASTERS)
        times = [wall for _, phase, wall in episodes if phase == "train"]
        _check_episode_counts(path, len(times), len(episodes) - len(times), config)
        times = times[1:]
        if times:
            rows.append((path.stem.replace("timing_", ""), sum(times) / len(times)))
    return rows


def export_policy_grid(agent_path, fixed_rp, out_dir):
    """Evaluate the saved agent's critic and factory actor over the
    (inv_factory, inv_warehouse) grid of its run's chain at a fixed reorder
    point; returns the CSV path.  The chain is the run's, from the
    ``run_config.txt`` next to the agent file, if any, which must name the
    agent's algorithm and case.  The multi-agent actors see their local
    views with orders and demand at their means."""
    agent, case = actor_critic.load_agent(agent_path)
    algo = agent.algo
    config_path = Path(agent_path).parent / "run_config.txt"
    if config_path.is_file():
        config = experiment_config_from_file(config_path)
        if (config.algorithm, config.case) != (algo, case):
            raise ValueError(f"{config_path}: run {config.algorithm}/case {config.case} "
                             f"does not match agent {agent_path} ({algo}/case {case})")
        chain = config.chain_config()
    else:
        chain = ChainConfig.for_case(case)
    if not chain.rp_min <= fixed_rp <= chain.rp_max:
        raise ValueError(
            f"rp={fixed_rp} outside [{chain.rp_min}, {chain.rp_max}]")
    scale = agent.obs_scale
    actor_net = agent.actor
    incoming = IncomingOrders(chain.order_mean, chain.order_mean, chain.demand_mean)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"policy_value_grid_{algo}_case{case}_rp{fixed_rp}.csv"
    rows = []
    for inv_f in range(chain.capacity + 1):
        for inv_w in range(chain.capacity + 1):
            state = EnvState(0, inv_f, inv_w, 0, fixed_rp)
            s = actor_critic.joint_obs(state, scale)
            value = float(forward(agent.critic, s)[0])
            if algo == "a2c":
                mean = float(forward(actor_net, s)[0])
            else:
                views = actor_critic.local_obs_vectors(state, incoming, scale)
                mean = float(forward(actor_net, views)[0, 0])
            rows.append((inv_f, inv_w, value, mean))
    _write_rows(path, GRID_HEADER, rows)
    return path


def read_policy_grid(path):
    """Grid CSV back as a dict (inv_f, inv_w) -> (value, factory_mean)."""
    return {(f, w): (v, m) for f, w, v, m in _read_rows(path, GRID_HEADER, GRID_CASTERS)}


def _read_kv_file(path):
    """``key = value`` lines; blank lines and lines whose first non-blank
    character is ``#`` are skipped.  A ``#`` later in a line belongs to the
    value, so every value ``_write_run_config`` writes reads back.  A key
    given twice raises a ValueError naming both lines."""
    values, linenos = {}, {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}: expected 'key = value', got {raw!r}")
            key, value = map(str.strip, line.split("=", 1))
            if key in linenos:
                raise ValueError(f"{path}: {key} given twice, on lines "
                                 f"{linenos[key]} and {lineno}")
            values[key], linenos[key] = value, lineno
    return values


def _cast(caster, key, raw, source):
    """``caster(raw)``; a failure names the file, the key and the raw value."""
    try:
        return caster(raw)
    except ValueError as exc:
        raise ValueError(f"{source}: {key} = {raw!r}: {exc}") from None


def _true_or_false(raw):
    if raw.lower() not in ("true", "false"):
        raise ValueError("expected true or false")
    return raw.lower() == "true"


# one key per field: run.<field> for ExperimentConfig, env.<field> for the
# chain (into ExperimentConfig.env_overrides)
_RUN_CASTERS = {"algorithm": _algorithm, "case": cost_case, "episodes": int,
                "save_tables": _true_or_false}
_RUN_KEYS = {f"run.{f.name}": (f.name, _RUN_CASTERS.get(f.name, f.type))
             for f in dataclass_fields(ExperimentConfig) if f.name != "env_overrides"}
_ENV_KEYS = {f"env.{f.name}": (f.name, f.type) for f in dataclass_fields(ChainConfig)}
# the learning recipe's values, which run_config.txt files written while they
# were settings still hold; read at that value only
_RETIRED_KEYS = {"run.action_std": actor_critic.ACTION_STD,
                 **{f"run.q_{f.name}": f.default
                    for f in dataclass_fields(qlearning.QHyper)}}


def experiment_config_from_file(path, **cli_overrides):
    """Build an ExperimentConfig from a key/value file plus CLI overrides.

    This is the one reader of ``run_config.txt``.  A file holds one key per
    setting, ``run.<field>`` for each ExperimentConfig field and
    ``env.<field>`` for each ChainConfig field, so a run's ``run_config.txt``
    reads back as the same config.  Explicit CLI values win.  The retired
    ``run.action_std`` and ``run.q_alpha|q_gamma|q_epsilon`` of older run
    files read at the recipe's value only.  Any other key, a repeated key, a
    value that does not parse, and a value that breaks a rule of
    ExperimentConfig or of the run's chain, whether or not a CLI value
    overrides it, fail before a run writes anything, naming the file and key.
    """
    values = _read_kv_file(path) if path else {}
    for key, raw in values.items():
        if key in _RETIRED_KEYS:
            if _cast(float, key, raw, path) != _RETIRED_KEYS[key]:
                raise ValueError(f"{path}: {key} = {raw!r}: not a setting; "
                                 f"the recipe fixes it at {_RETIRED_KEYS[key]!r}")
        elif key not in _RUN_KEYS and key not in _ENV_KEYS:
            raise ValueError(f"{path}: unknown key {key!r}")
    kwargs = {name: _cast(caster, key, values[key], path)
              for key, (name, caster) in _RUN_KEYS.items() if key in values}
    kwargs["env_overrides"] = {name: _cast(caster, key, values[key], path)
                               for key, (name, caster) in _ENV_KEYS.items()
                               if key in values}
    given = {name: value for name, value in cli_overrides.items() if value is not None}
    # the file key each field was read from
    file_keys = {name: key for key, (name, _) in (*_RUN_KEYS.items(),
                                                  *_ENV_KEYS.items())
                 if key in values}
    for name, what, flag in (("algorithm", "algorithm", "--algo"),
                             ("case", "cost case", "--case")):
        if name not in kwargs and name not in given:
            # only a command-line caller has the flag
            where = f"pass {flag} or set" if cli_overrides else "set"
            raise ValueError(f"{path or 'command line'}: no {what}: "
                             f"{where} run.{name} in the config file")
    if given.keys() & file_keys.keys():
        # the file's own values first, so that an overridden one is checked too
        _checked_config(path, {**given, **kwargs}, file_keys)
    return _checked_config(path, {**kwargs, **given},
                           {name: key for name, key in file_keys.items()
                            if name not in given})


def _checked_config(path, kwargs, file_keys):
    """``ExperimentConfig(**kwargs)``; a broken rule that involves a field
    of ``file_keys`` (field -> the file key it was read from) raises a
    ValueError naming ``path`` and those keys."""
    try:
        return ExperimentConfig(**kwargs)
    except ConfigurationError as exc:
        named = [file_keys[name] for name in exc.fields if name in file_keys]
        if not named:
            raise
        raise ValueError(f"{path}: {', '.join(named)}: {exc}") from None
