"""The fast demos still run end to end.

They reach into the simulator and the Q internals the way a reader would
(assigning ``env.state``, printing ``env.ledger``, training and reading a
Q table), so each runs as a script in its own interpreter, with its
temporary files kept under the test's own directory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FAST_DEMOS = ("demo_environment_trace", "demo_gsm_enumeration",
              "demo_train_qlearning", "demo_experiment_pipeline")


@pytest.mark.parametrize("name", FAST_DEMOS)
def test_demo_runs(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")], cwd=tmp_path,
        env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
