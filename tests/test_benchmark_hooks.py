"""The benchmark's tracer still sees every call it hooks.

``perfbench/tracer.py`` wraps module attributes of safestock by name; code
that bypasses one of those attributes runs untraced and silently zeroes a
per-layer metric.  The tracer patches the package for the whole process, so
one tiny seed of each algorithm runs through ``harness.run_one_seed`` in a
subprocess, and the records it flushes are checked here.  A ``--smoke``
run of each workload checks what ``run.py`` reports end to end, its
digests of the metrics files included.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ALGOS = ("q", "a2c", "maa2c")
# the calls each algorithm's seed must record: its entry points (called
# outside any episode), then the calls within its training and its
# evaluation episodes
# a training period's update runs as one call, nets.a2c_update, which the
# tracer hooks as actor_critic.a2c_step and multi_agent.maa2c_step; it ends
# with the actor's pass the next period samples from, so forward_cached runs
# once per training episode, on the reset state
TRAIN_NETS = ("env.clip_action", "nets.forward_cached")
EVAL_NETS = ("env.clip_action", "nets.forward")
HOOKED = {
    "q": {"entry": ("qlearning.train_q", "qlearning.evaluate_q"),
          "train": ("qlearning.FeasibleActions.from_state", "qlearning.select_action",
                    "qlearning.greedy_action", "qlearning.q_update"),
          "eval": ("qlearning.FeasibleActions.from_state", "qlearning.greedy_action")},
    "a2c": {"entry": ("actor_critic.train_a2c", "actor_critic.evaluate_a2c"),
            "train": ("actor_critic.a2c_step", *TRAIN_NETS),
            "eval": EVAL_NETS},
    "maa2c": {"entry": ("multi_agent.train_maa2c", "multi_agent.evaluate_maa2c"),
              "train": ("multi_agent.maa2c_step", *TRAIN_NETS),
              "eval": EVAL_NETS},
}
# the recorder's windows: training episodes fall in the first three
PHASE = {"pre_onset": "train", "ramp": "train", "steady": "train", "eval": "eval"}

SCRIPT = """
import sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])
import tracer
from safestock import harness

out = Path(sys.argv[2])
rec = tracer.Recorder(out, warmup=1, span_stride=1, trace=True)
tracer.install(rec)
for k, algo in enumerate(sys.argv[3:]):
    harness.run_one_seed(harness.ExperimentConfig(
        algorithm=algo, case=1, episodes=2, steps_per_episode=5, num_seeds=1,
        eval_episodes=1, out_dir=str(out / algo)), k)
"""


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    out = tmp_path_factory.mktemp("trace")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), str(out), *ALGOS],
        env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return {algo: json.loads((out / f"seed{k:02d}.json").read_text())
            for k, algo in enumerate(ALGOS)}


@pytest.mark.parametrize("algo", ALGOS)
def test_hooks_see_every_call(records, algo):
    record = records[algo]
    assert record["error"] is None
    assert sorted(record["bounds"]) == ["eval", "train"]
    for t0, t1 in record["bounds"].values():
        assert t0 <= t1
    called = {"entry": set(), "train": set(), "eval": set()}
    for name, window, calls, *_ in record["agg"]:
        if calls > 0:
            called[PHASE.get(window, "entry")].add(name)
    for phase, names in HOOKED[algo].items():
        assert set(names) <= called[phase], phase
    # no other algorithm's entry points or steps ran in this seed
    own = {name for names in HOOKED[algo].values() for name in names}
    others = {name for other in ALGOS for names in HOOKED[other].values()
              for name in names} - own
    assert not others & set().union(*called.values())


@pytest.mark.parametrize("workload", ["q_tabular", "a2c_steady", "maa2c_seeds"])
def test_smoke_run_is_correct(tmp_path, workload):
    # run.py writes under its own directory, so it runs from a copy; its
    # seeds' metrics files must match the digests recorded for this
    # platform, if any, and for q_tabular the tracer reads the trained
    # table's len() and nbytes
    skip = shutil.ignore_patterns("__pycache__", "out")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=skip)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--smoke",
         "--workload", workload, "--trace", "1"],
        env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.strip().splitlines()[-1])
    assert report["correct"] is True, result.stdout
    if workload != "q_tabular":
        return
    metrics = report["metrics"]
    assert metrics["qlearning.table.states"]["value"] > 0
    assert metrics["qlearning.table.mb"]["value"] > 0
    for name in HOOKED["q"]["train"]:
        assert metrics[f"{name}.us_per_call"]["value"] > 0, name
