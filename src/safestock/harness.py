"""Experiment orchestration: multi-seed training runs, CSV metrics, summaries.

A run trains one algorithm on one cost case across several seeds, then
evaluates each trained policy greedily (tabular argmax or the actor mean).
Per-seed metrics land in CSV files; the summary recomputes everything from
those files so a later ``summarize`` pass reproduces it byte for byte.
Wall-clock times live in separate timing CSVs because the metrics files
must be byte-identical across reruns of the same configuration.
"""

import time
from dataclasses import dataclass, field, fields as dataclass_fields
from pathlib import Path

import numpy as np

from . import actor_critic, multi_agent, qlearning
from .env import (ChainConfig, ConfigurationError, EnvState, IncomingOrders,
                  check_lead_times, new_env)
from .gsm import analytical_targets
from .metrics import RunMetrics, compute_ci, moving_average, plateau_episode
from .nets import GaussianPolicy, forward

ALGORITHMS = ("q", "a2c", "maa2c")
DEFAULT_EPISODES = {"q": 3000, "a2c": 1000, "maa2c": 1000}
METRICS_HEADER = ("episode,phase,total_reward,mean_inv_factory,"
                  "mean_inv_warehouse,mean_rp,stockout_units")
EVAL_TAIL_FRACTION = 0.10   # trained behaviour only; transient excluded
SMOOTHING_WINDOW = 10


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one training comparison run."""

    algorithm: str
    case: int
    episodes: int | None = None
    steps_per_episode: int = 1000
    num_seeds: int = 10
    base_seed: int = 0
    eval_episodes: int = 50
    out_dir: str = ""
    action_std: float = 2.0
    q_alpha: float = 0.8
    q_gamma: float = 0.2
    q_epsilon: float = 0.5
    save_tables: bool = False
    env_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}")
        if self.case not in (1, 2):
            raise ValueError(f"unknown cost case {self.case!r}; expected 1 or 2")
        if self.episodes is None:
            self.episodes = DEFAULT_EPISODES[self.algorithm]
        for name in ("num_seeds", "steps_per_episode"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name}={getattr(self, name)} must be >= 1",
                                         (name,))
        for name in ("episodes", "eval_episodes"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name}={getattr(self, name)} must be >= 0",
                                         (name,))
        if self.episodes + self.eval_episodes == 0:
            raise ConfigurationError(
                "a run needs at least one training or evaluation episode",
                ("episodes", "eval_episodes"))
        # each value meets the rule of the object it will build
        for name, build in (("q_alpha", lambda v: qlearning.QHyper(alpha=v)),
                            ("q_gamma", lambda v: qlearning.QHyper(gamma=v)),
                            ("q_epsilon", lambda v: qlearning.QHyper(epsilon=v)),
                            ("action_std", lambda v: GaussianPolicy(None, v))):
            try:
                build(getattr(self, name))
            except ValueError as exc:
                raise ConfigurationError(str(exc), (name,)) from None
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


def _write_metrics_csv(path, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write(METRICS_HEADER + "\n")
        for phase, records in rows:
            for m in records:
                fh.write(",".join([
                    str(m.episode), phase, _fmt(m.total_reward),
                    _fmt(m.mean_inv_factory), _fmt(m.mean_inv_warehouse),
                    _fmt(m.mean_rp), str(m.stockout_units),
                ]) + "\n")


def _write_timing_csv(path, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write("episode,phase,wall_time\n")
        for phase, records in rows:
            for m in records:
                fh.write(f"{m.episode},{phase},{m.wall_time!r}\n")


def _read_metrics_csv(path):
    """(train, eval) records of one metrics CSV; a malformed row raises a
    ValueError that names the file and the line."""
    train, evals = [], []
    phases = {"train": train, "eval": evals}
    n_fields = METRICS_HEADER.count(",") + 1
    with open(path) as fh:
        header = fh.readline().strip()
        if header != METRICS_HEADER:
            raise ValueError(f"unexpected metrics header in {path}: {header!r}")
        for lineno, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split(",")
            if len(parts) != n_fields:
                raise ValueError(f"{path}, line {lineno}: {len(parts)} fields, "
                                 f"expected {n_fields}: {line!r}")
            records = phases.get(parts[1])
            if records is None:
                raise ValueError(f"{path}, line {lineno}: unknown phase "
                                 f"{parts[1]!r}, expected 'train' or 'eval'")
            try:
                record = RunMetrics(
                    episode=int(parts[0]),
                    total_reward=float(parts[2]),
                    mean_inv_factory=float(parts[3]),
                    mean_inv_warehouse=float(parts[4]),
                    mean_rp=float(parts[5]),
                    stockout_units=int(parts[6]),
                    wall_time=0.0,
                )
            except ValueError as exc:
                raise ValueError(f"{path}, line {lineno}: {exc}") from None
            records.append(record)
    return train, evals


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
        hyper = qlearning.QHyper(config.q_alpha, config.q_gamma, config.q_epsilon)
        table, train = qlearning.train_q(
            env, hyper, config.episodes, config.steps_per_episode, rng=rng)
        evals = qlearning.evaluate_q(
            env, table, config.eval_episodes, config.steps_per_episode)
        return train, evals, table
    if algo == "a2c":
        agent = actor_critic.make_a2c_agent(
            chain, agent_seed, action_std=config.action_std)
        train = actor_critic.train_a2c(
            env, agent, config.episodes, config.steps_per_episode, rng=rng)
        evals = actor_critic.evaluate_a2c(
            env, agent, config.eval_episodes, config.steps_per_episode)
        return train, evals, agent
    agent = multi_agent.make_maa2c_agent(
        chain, agent_seed, action_std=config.action_std)
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
    rows = [("train", train), ("eval", evals)]
    _write_metrics_csv(out / f"metrics_seed{k:02d}.csv", rows)
    _write_timing_csv(out / f"timing_seed{k:02d}.csv", rows)
    if config.algorithm != "q":
        actor_critic.save_agent(artifact, out / f"agent_seed{k:02d}.txt", config.case)
    elif config.save_tables:
        with open(out / f"qtable_seed{k:02d}.txt", "w", newline="\n") as fh:
            qlearning.export_table(artifact, fh)
    # a run with no evaluation episodes reports its last training episode,
    # as summarize does
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
    check_lead_times(config.chain_config())   # fail before writing anything
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


def eval_tail_means(eval_metrics):
    """Per-run evaluation means over the last 10% of evaluation episodes."""
    tail = eval_metrics[-max(1, round(EVAL_TAIL_FRACTION * len(eval_metrics))):]
    n = len(tail)
    return {
        "rp": sum(m.mean_rp for m in tail) / n,
        "inv_warehouse": sum(m.mean_inv_warehouse for m in tail) / n,
        "inv_factory": sum(m.mean_inv_factory for m in tail) / n,
        "stockout_units": sum(m.stockout_units for m in tail) / n,
        "total_reward": sum(m.total_reward for m in tail) / n,
    }


@dataclass
class Summary:
    algorithm: str
    case: int
    num_seeds: int
    rows: list          # (metric, mean, ci_low, ci_high)
    per_seed: dict      # metric -> list of per-seed values
    targets: tuple      # the run's GSM (rp, inv_factory, inv_warehouse)

    def row(self, metric):
        for name, mean, low, high in self.rows:
            if name == metric:
                return mean, low, high
        raise KeyError(metric)

    def to_csv_text(self):
        lines = ["metric,mean,ci_low,ci_high"]
        for name, mean, low, high in self.rows:
            lines.append(f"{name},{mean!r},{low!r},{high!r}")
        return "\n".join(lines) + "\n"

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

    The analytical targets come from the run's own chain: the case with
    the ``env.*`` overrides recorded in ``run_config.txt``.
    """
    out = Path(out_dir)
    config_path = out / "run_config.txt"
    run_config = _read_kv_file(config_path)
    algorithm = run_config.get("run.algorithm", "?")
    case = int(run_config.get("run.case", 1))
    chain = ChainConfig.for_case(
        case, **chain_overrides_from_mapping(run_config, config_path))
    num_seeds = _cast(int, "run.num_seeds", run_config.get("run.num_seeds", ""),
                      config_path)
    if num_seeds < 1:
        raise ValueError(f"{config_path}: run.num_seeds = {num_seeds} must be >= 1")
    seed_files = [out / f"metrics_seed{k:02d}.csv" for k in range(num_seeds)]
    timing_files = [out / f"timing_seed{k:02d}.csv" for k in range(num_seeds)]
    missing = [str(path) for path in seed_files + timing_files if not path.is_file()]
    if missing:
        raise FileNotFoundError(f"{config_path} names {num_seeds} seeds; missing: "
                                + ", ".join(missing))
    per_seed = {name: [] for name in
                ("rp", "inv_warehouse", "inv_factory", "stockout_units",
                 "total_reward", "plateau_episode")}
    for path in seed_files:
        train, evals = _read_metrics_csv(path)
        means = eval_tail_means(evals if evals else train)
        for name, value in means.items():
            per_seed[name].append(value)
        smoothed = moving_average(
            [m.total_reward for m in train], SMOOTHING_WINDOW)
        per_seed["plateau_episode"].append(float(plateau_episode(smoothed)))
    rows = []
    for name, values in per_seed.items():
        mean = sum(values) / len(values)
        if len(values) >= 2:
            low, high = compute_ci(values, use_t=use_t)
        else:
            low = high = mean
        rows.append((name, mean, low, high))
    summary = Summary(algorithm, case, num_seeds, rows, per_seed,
                      analytical_targets(case, chain))
    with open(out / "summary.csv", "w", newline="\n") as fh:
        fh.write(summary.to_csv_text())
    with open(out / "summary.txt", "w", newline="\n") as fh:
        fh.write(summary.to_pretty_text())
    _write_timing_summary(out, timing_files)
    return summary


def _write_timing_summary(out, timing_files):
    rows = []
    for path in timing_files:
        times = []
        with open(path) as fh:
            fh.readline()
            for line in fh:
                episode, phase, wall = line.rstrip("\n").split(",")
                if phase == "train":
                    times.append(float(wall))
        if len(times) >= 2:
            mean = sum(times[1:]) / len(times[1:])
            rows.append((path.stem.replace("timing_", ""), mean))
    with open(out / "timing_summary.csv", "w", newline="\n") as fh:
        fh.write("seed,mean_wall_time_per_train_episode\n")
        for seed, mean in rows:
            fh.write(f"{seed},{mean!r}\n")


GRID_HEADER = "inv_factory,inv_warehouse,value,factory_action_mean"


def export_policy_grid(agent_path, fixed_rp, out_dir):
    """Evaluate the saved agent's critic and factory actor over the
    (inv_factory, inv_warehouse) grid of its run's chain at a fixed reorder
    point; returns the CSV path.  The chain takes the ``env.*`` overrides of
    the ``run_config.txt`` next to the agent file, if any.  The multi-agent
    actors see their local views with orders and demand at their means."""
    agent, case = actor_critic.load_agent(agent_path)
    algo = agent.algo
    run_config = Path(agent_path).parent / "run_config.txt"
    values = _read_kv_file(run_config) if run_config.is_file() else {}
    chain = ChainConfig.for_case(case, **chain_overrides_from_mapping(values, run_config))
    if not chain.rp_min <= fixed_rp <= chain.rp_max:
        raise ValueError(
            f"rp={fixed_rp} outside [{chain.rp_min}, {chain.rp_max}]")
    scale = agent.obs_scale
    actor_net = agent.actor.mean_net
    incoming = IncomingOrders(chain.order_mean, chain.order_mean, chain.demand_mean)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"policy_value_grid_{algo}_case{case}_rp{fixed_rp}.csv"
    with open(path, "w", newline="\n") as fh:
        fh.write(GRID_HEADER + "\n")
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
                fh.write(f"{inv_f},{inv_w},{value!r},{mean!r}\n")
    return path


def read_policy_grid(path):
    """Grid CSV back as a dict (inv_f, inv_w) -> (value, factory_mean)."""
    grid = {}
    with open(path) as fh:
        header = fh.readline().strip()
        if header != GRID_HEADER:
            raise ValueError(f"unexpected grid header: {header!r}")
        for line in fh:
            f, w, v, m = line.rstrip("\n").split(",")
            grid[(int(f), int(w))] = (float(v), float(m))
    return grid


def _read_kv_file(path):
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: expected 'key = value', got {raw!r}")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


_ENV_FIELD_TYPES = {f.name: f.type for f in dataclass_fields(ChainConfig)}


def _cast(caster, key, raw, source):
    """``caster(raw)``; a failure names the file, the key and the raw value."""
    try:
        return caster(raw)
    except ValueError as exc:
        raise ValueError(f"{source}: {key} = {raw!r}: {exc}") from None


def _case(raw):
    case = int(raw)
    if case not in (1, 2):
        raise ValueError(f"unknown cost case {case}; expected 1 or 2")
    return case


def _algorithm(raw):
    if raw not in ALGORITHMS:
        raise ValueError(f"unknown algorithm; expected one of {ALGORITHMS}")
    return raw


def _true_or_false(raw):
    if raw.lower() not in ("true", "false"):
        raise ValueError("expected true or false")
    return raw.lower() == "true"


def chain_overrides_from_mapping(values, source="config"):
    """Pick the env.* keys out of a key/value mapping parsed from ``source``."""
    overrides = {}
    for key, raw in values.items():
        if not key.startswith("env."):
            continue
        name = key[4:]
        if name == "case":
            continue
        if name not in _ENV_FIELD_TYPES:
            raise ValueError(f"{source}: unknown chain parameter {name!r}")
        overrides[name] = _cast(_ENV_FIELD_TYPES[name], key, raw, source)
    return overrides


# every run.* key _write_run_config writes, then the algo.* spellings
_RUN_CASTERS = {"algorithm": _algorithm, "case": _case, "episodes": int,
                "save_tables": _true_or_false}
_CONFIG_KEYS = {
    "env.case": ("case", _case),   # run.case, later, wins
    **{f"run.{f.name}": (f.name, _RUN_CASTERS.get(f.name, f.type))
       for f in dataclass_fields(ExperimentConfig) if f.name != "env_overrides"},
    **{f"algo.{name}": (f"q_{name}", float) for name in ("alpha", "gamma", "epsilon")},
    "algo.action_std": ("action_std", float),
}


def experiment_config_from_file(path, **cli_overrides):
    """Build an ExperimentConfig from a key/value file plus CLI overrides.

    File keys use section prefixes: env.* feeds the chain config, algo.*
    the hyperparameters, run.* the protocol, one key per ExperimentConfig
    field, so a run's ``run_config.txt`` reads back as the same config.
    Explicit CLI values win.  Any other key, and any bad value, fails
    before a run writes anything, with an error naming the file and the
    key; so does the run's chain config, which is built here.
    """
    values = _read_kv_file(path) if path else {}
    for key in values:
        if key not in _CONFIG_KEYS and not key.startswith("env."):
            raise ValueError(f"{path}: unknown key {key!r}")
    kwargs = {}
    for key, (name, caster) in _CONFIG_KEYS.items():
        if key in values:
            kwargs[name] = _cast(caster, key, values[key], path)
    overrides = chain_overrides_from_mapping(values, path)
    kwargs["env_overrides"] = overrides
    for name, value in cli_overrides.items():
        if value is not None:
            kwargs[name] = value
    if "case" not in kwargs:
        raise ValueError(f"{path or 'command line'}: no cost case: "
                         "pass --case or set run.case in the config file")
    # the file keys each ExperimentConfig field was read from, unless the
    # command line set it
    file_keys = {name: key for key, (name, _) in _CONFIG_KEYS.items()
                 if key in values and cli_overrides.get(name) is None}
    try:
        config = ExperimentConfig(**kwargs)
    except ConfigurationError as exc:
        named = [file_keys[name] for name in exc.fields if name in file_keys]
        if not named:
            raise
        raise ValueError(f"{path}: {', '.join(named)}: {exc}") from None
    try:
        check_lead_times(config.chain_config())
    except ConfigurationError as exc:
        named = ", ".join(f"env.{name}" for name in exc.fields if name in overrides)
        raise ValueError(f"{path}: {named}: {exc}") from None
    return config
