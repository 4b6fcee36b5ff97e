"""Run one benchmark workload in a fresh interpreter; started by run.py.

    python3 perfbench/workload.py '<plan json>' <out_dir> {probe|run|trace}

``probe`` stops the workload at its first ``Env.step`` and prints the
timestamp, so run.py can time interpreter start to first training step.
``run`` and ``trace`` run the whole workload (``trace`` with the layer
wrappers on) and leave, under ``<out_dir>``, the program's own output in
``run/`` and the recorder's per-seed records in ``rec/``.  Exceptions raised
by the program are recorded, not propagated: run.py counts those seeds as
failed.  Any other failure exits nonzero.
"""

import json
import os
import platform
import resource
import sys
from pathlib import Path


class SetupDone(BaseException):
    """Raised by the probe's ``Env.step``; carries the first-step timestamp.

    A BaseException, so the program's failure handling lets it through.
    """


def seed_streams(base_seed):
    """Env and agent seeds for a single-seed workload, derived from ``base_seed``."""
    import numpy as np

    root = np.random.default_rng(base_seed)
    return int(root.integers(2 ** 63)), int(root.integers(2 ** 63))


def write_metrics_csv(path, header, train, evals):
    """The metrics CSV the harness writes, for runs that bypass the harness."""
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for phase, records in (("train", train), ("eval", evals)):
            for m in records:
                fh.write(",".join([
                    str(m.episode), phase, repr(float(m.total_reward)),
                    repr(float(m.mean_inv_factory)),
                    repr(float(m.mean_inv_warehouse)),
                    repr(float(m.mean_rp)), str(m.stockout_units),
                ]) + "\n")


def run_single_seed(plan, rec, run_dir):
    from safestock import ChainConfig, QHyper, actor_critic, harness, new_env, qlearning
    import numpy as np

    chain = ChainConfig.for_case(plan["case"])
    env_seed, agent_seed = seed_streams(plan["base_seed"])
    episodes, steps = plan["episodes"], plan["steps"]
    rec.begin_seed()
    try:
        sim = new_env(chain, env_seed)
        rng = np.random.default_rng(agent_seed)
        if plan["algo"] == "q":
            artifact, train = qlearning.train_q(sim, QHyper(), episodes, steps, rng=rng)
            evals = qlearning.evaluate_q(sim, artifact, plan["eval_episodes"], steps)
        else:
            artifact = actor_critic.make_a2c_agent(chain, agent_seed)
            train = actor_critic.train_a2c(sim, artifact, episodes, steps, rng=rng)
            evals = actor_critic.evaluate_a2c(sim, artifact, plan["eval_episodes"], steps)
        rec.end_seed(artifact)
        write_metrics_csv(run_dir / "metrics_seed00.csv", harness.METRICS_HEADER,
                          train, evals)
    except Exception as exc:
        rec.error = repr(exc)
    finally:
        rec.flush("seed00")
        rec.begin_seed()


def run_workload(plan, rec, run_dir):
    from safestock import harness

    if plan["algo"] != "maa2c":
        run_single_seed(plan, rec, run_dir)
        return None
    config = harness.ExperimentConfig(
        algorithm="maa2c", case=plan["case"], episodes=plan["episodes"],
        steps_per_episode=plan["steps"], num_seeds=plan["seeds"],
        base_seed=plan["base_seed"], eval_episodes=plan["eval_episodes"],
        out_dir=str(run_dir))
    try:
        harness.run_experiment(config, workers=plan["workers"])
    except Exception as exc:
        return repr(exc)
    return None


def blas_version():
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return f"{deps['blas']['name']} {deps['blas']['version']}"
    except (KeyError, TypeError):
        return "unknown"


def main():
    plan = json.loads(sys.argv[1])
    out = Path(sys.argv[2])
    mode = sys.argv[3]
    import numpy as np
    import safestock
    from safestock import env

    src = Path(plan["src"]).resolve()
    if src not in Path(safestock.__file__).resolve().parents:
        sys.exit(f"safestock imported from {safestock.__file__}, not from {src}")
    import tracer

    rec_dir = out / "rec"
    run_dir = out / "run"
    rec_dir.mkdir(parents=True)
    run_dir.mkdir()
    rec = tracer.Recorder(rec_dir, plan["warmup"], plan["span_stride"],
                          trace=mode == "trace")
    tracer.install(rec)
    if mode == "probe":
        def first_step(sim, action):
            raise SetupDone(tracer.now())
        env.Env.step = first_step
        try:
            run_workload(plan, rec, run_dir)
        except SetupDone as done:
            print(json.dumps({"first_step": done.args[0]}))
            return
        sys.exit("probe finished without reaching Env.step")

    rec.error = run_workload(plan, rec, run_dir)
    rec.flush("main")
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    (out / "process.json").write_text(json.dumps({
        "peak_rss_mb": rss_kb / 1024.0,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }))


if __name__ == "__main__":
    main()
