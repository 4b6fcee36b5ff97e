"""The test suite's own configuration, in ``pyproject.toml``."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_probe(tmp_path, source, *args):
    """Run ``source`` as a test file under the repo's pytest config."""
    (tmp_path / "test_probe.py").write_text(source)
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), *args, "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)


def test_failing_hypothesis_test_leaves_later_tests_running(tmp_path):
    # a failing hypothesis test makes its pytest plugin import libcst, which
    # warns on import; under filterwarnings = error that warning would stop
    # the whole run with an internal error
    result = run_probe(
        tmp_path,
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n\n\n"
        "def test_passes():\n"
        "    pass\n")
    assert result.returncode == 1, result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout


def test_slow_tests_run_only_when_selected(tmp_path):
    source = ("import pytest\n\n\n"
              "@pytest.mark.slow\n"
              "def test_slow():\n"
              "    pass\n\n\n"
              "def test_plain():\n"
              "    pass\n")
    for args, expected in (((), "PASSED test_probe.py::test_plain"),
                           (("-m", "slow"), "PASSED test_probe.py::test_slow")):
        result = run_probe(tmp_path, source, "-rA", *args)
        assert result.returncode == 0, result.stdout + result.stderr
        assert expected in result.stdout
        assert "1 passed, 1 deselected" in result.stdout
