"""The demos still run end to end.

They reach into the simulator and the Q internals the way a reader would
(assigning ``env.state``, printing ``env.ledger``, training and reading a
Q table), so each runs as a script in its own interpreter, with its
temporary files kept under the test's own directory.  The two that train
an actor-critic for a few hundred episodes (about 12 s each) are ``slow``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FAST_DEMOS = ("demo_environment_trace", "demo_gsm_enumeration",
              "demo_train_qlearning", "demo_experiment_pipeline")
SLOW_DEMOS = ("demo_multi_agent", "demo_train_actor_critic")


def run_demo(name, tmp_path):
    """The demo's standard output; it must exit cleanly and print something."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")], cwd=tmp_path,
        env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
    return result.stdout


@pytest.mark.parametrize("name", FAST_DEMOS)
def test_demo_runs(name, tmp_path):
    run_demo(name, tmp_path)


@pytest.mark.slow
@pytest.mark.parametrize("name", SLOW_DEMOS)
def test_slow_demo_runs(name, tmp_path):
    out = run_demo(name, tmp_path)
    if name == "demo_multi_agent":
        # actor parameters grow linearly with the agents
        assert "3 agents = 61803 = 3 x 20601, 4 agents = 82404 = 4 x 20601" in out
