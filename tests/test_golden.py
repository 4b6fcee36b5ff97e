"""Golden-hash contract: seeded runs write byte-identical files.

Each case runs ``run_experiment`` on a small config and compares the SHA-256
of every ``metrics_seed##.csv``, of ``summary.csv`` and ``summary.txt``, and
for two cases of the policy grid exported from seed 0's agent, with the
digests recorded for this platform.
Float results depend on the BLAS kernels, so digests are keyed by CPU model,
vector ISA, numpy version and BLAS version: the key of
``perfbench/digests.json``, built by perfbench's own ``machine()`` and
``blas_version()``.  On a platform with no recorded digests the tests skip;
``python tests/test_golden.py`` prints this platform's key and digests for
recording.  A change that alters the bits on purpose says why
and records the new digests.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from safestock import nets
from safestock.harness import ExperimentConfig, export_policy_grid, run_experiment

CASES = [(algo, case) for algo in ("q", "a2c", "maa2c") for case in (1, 2)]
NUM_SEEDS = 2
# One Q seed long enough to visit thousands of states (about 3k), so the Q
# table's per-state row buffers grow several times; about 2 s.
MANY_STATES = {"algo": "q", "case": 1, "episodes": 150, "steps_per_episode": 200,
               "num_seeds": 1}
# One multi-agent seed long enough for thousands of Adam steps on the
# stacked actors; about 3 s.
LONG_MAA2C = {"algo": "maa2c", "case": 2, "episodes": 10, "steps_per_episode": 200,
              "num_seeds": 1}
SUMMARY_FILES = ("summary.csv", "summary.txt")
GRID_CASES = ("a2c-1", "maa2c-2")
GRID_RP = 3

GOLDEN = {
    "Intel(R) Xeon(R) Processor|avx512f|numpy 2.4.6|scipy-openblas 0.3.31.188.0": {
        "q-1": [
            "6273ebd3e805e21b7ee494d0fbac24406671652ee35f3df8d4da1473d9cd74ae",
            "b0cd84ffa6b89e7fc35dd73d2e4c972385238fb5ab743de652a54034355e3f20"
        ],
        "q-2": [
            "505d519c87f1ec8ab430c889cf027c905de29f1af8ba44fb43e3a9d679642e22",
            "e3b058eb0ea740f3f473514699d8c5aaba8fd78ac45edccfec377c18ae51b08a"
        ],
        "a2c-1": [
            "f8dc012026d057e29cedd7ca6d89d8c96be9e1e7f901180fae432e5a4f631401",
            "7c089101f534242d4202b322461cfa18f8e1846c101f627616bd286947a4ea90"
        ],
        "a2c-2": [
            "981e305119840a9dc70955d0d35b2da4b1a6b2eb3e3cdff808120eb46dbe5e77",
            "74b0f7d12e7d7c713733cd014f876599406aa610914e7a4f29b89a7e03003116"
        ],
        "maa2c-1": [
            "b1e1236e47bded0e9945bc986eecb8237b33b6edc71bd03d204c8f9ef5b3ce0e",
            "c23d2870b1710f093922424eb53bb1ca8d65a1c38cabf60f8c63bc63a2c7d87f"
        ],
        "maa2c-2": [
            "203ba682d6bdc77a79784640492e7138a504be71b40d002d321b4ad8d37d44fb",
            "ab2d93b4c22bd552c0f46ea30365cd5bcbbb0fe4c82538255f0a8eda5203dce6"
        ],
        "q-1-many": [
            "e7f5216f85e6042f5d4e2746daa62b6eef0424aa7cfc49f5651a8d826768d7c5"
        ],
        "maa2c-2-long": [
            "c2f2c401b13ffcf8715592a6348103575435b023ed998a52e18a3a15ac89f500"
        ],
        "q-1-summary": [
            "3d4cbc6071aa5fa746e45d5a41028f0b41f6294ee2ec20000ce7e00e65b27e95",
            "380390899b846f8aeca18e4f997b0542b448668f439c0811031432269d968bf9"
        ],
        "q-2-summary": [
            "42b8a3207b75a096a3caf748e1f24520008c88a1f0148c29dca548855163a54a",
            "edc11a0a43db7b8a0fce9e6e3e1347cf04136afa19b5136b02efe33871352ea9"
        ],
        "a2c-1-summary": [
            "7c1ca0dfaab7e0d8de6e70ce56b8a0bd4c5d0144ca70b1f700778eda57265911",
            "f8182c7ce57ff3ac3a2c6e237240a64ee37f7322dfe05333cf32750d9c5fbb1a"
        ],
        "a2c-2-summary": [
            "60e18887f61724878182d0bd0ea0fab689decbbd6640bee35bd89686fdaeb64c",
            "94c508fdeb18c65be30f428497b9d5b71fef5d76fbf5f6e64c0639ebd4d43579"
        ],
        "maa2c-1-summary": [
            "801070e13df4018ee70d276a06b789ca7ea1e2032d8d1d9a5df0276c6cf3cd03",
            "a7a0e0a4ab334fd1480ee28322a7b23a58583c60b44d5bcbf1ea410ef6118f4e"
        ],
        "maa2c-2-summary": [
            "6ce3c3376f0001f22dc2f6ad60e9a0ec95deb9accb0254de81ea1321343926a0",
            "e4182d6a5d1061525933339d7c31b6a7fa34475f3001e1dc0cdce431c01f9d8b"
        ],
        "a2c-1-grid": [
            "28aa72b6793dbd141cc620baa6dd2c9c792a0ba44e8589d87218b4cc56e39d2f"
        ],
        "maa2c-2-grid": [
            "0548400bec2c002b187e33119979488de56c4aa3d2d971358c8c8c8e3c2a3f76"
        ]
    }
}


def _perfbench_module(name):
    """``perfbench/<name>.py`` loaded by path, leaving ``sys.path`` alone."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


machine = _perfbench_module("run").machine
blas_version = _perfbench_module("workload").blas_version


def platform_key():
    """The key ``perfbench/run.py`` files its digests under on this host."""
    info = machine()
    return f"{info['cpu']}|{info['isa']}|numpy {np.__version__}|{blas_version()}"


def run_digests(algo, case, out_dir, episodes=4, steps_per_episode=30,
                num_seeds=NUM_SEEDS):
    config = ExperimentConfig(algorithm=algo, case=case, episodes=episodes,
                              steps_per_episode=steps_per_episode,
                              num_seeds=num_seeds, base_seed=11,
                              eval_episodes=2, out_dir=str(out_dir))
    run_experiment(config)
    return [file_digest(Path(out_dir) / f"metrics_seed{k:02d}.csv")
            for k in range(num_seeds)]


def file_digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def summary_digests(algo, case, out_dir):
    run_digests(algo, case, out_dir)
    return [file_digest(Path(out_dir) / name) for name in SUMMARY_FILES]


def grid_digest(name, out_dir):
    algo, case = name.split("-")
    run_digests(algo, int(case), out_dir)
    return file_digest(export_policy_grid(Path(out_dir) / "agent_seed00.txt",
                                          GRID_RP, Path(out_dir) / "viz"))


@pytest.mark.parametrize("algo,case", CASES)
def test_metrics_csv_digest(algo, case, tmp_path):
    key = platform_key()
    recorded = GOLDEN.get(key, {}).get(f"{algo}-{case}")
    if recorded is None:
        pytest.skip(f"no golden digests recorded for platform {key!r}")
    assert run_digests(algo, case, tmp_path / "run") == recorded


@pytest.mark.parametrize("algo,case", CASES)
def test_summary_digest(algo, case, tmp_path):
    key = platform_key()
    recorded = GOLDEN.get(key, {}).get(f"{algo}-{case}-summary")
    if recorded is None:
        pytest.skip(f"no golden digests recorded for platform {key!r}")
    assert summary_digests(algo, case, tmp_path / "run") == recorded


@pytest.mark.parametrize("name", GRID_CASES)
def test_policy_grid_digest(name, tmp_path):
    key = platform_key()
    recorded = GOLDEN.get(key, {}).get(f"{name}-grid")
    if recorded is None:
        pytest.skip(f"no golden digests recorded for platform {key!r}")
    assert [grid_digest(name, tmp_path / "run")] == recorded


def test_q_metrics_csv_digest_many_states(tmp_path):
    key = platform_key()
    recorded = GOLDEN.get(key, {}).get("q-1-many")
    if recorded is None:
        pytest.skip(f"no golden digests recorded for platform {key!r}")
    assert run_digests(out_dir=tmp_path / "run", **MANY_STATES) == recorded


def test_maa2c_metrics_csv_digest_long(tmp_path):
    key = platform_key()
    recorded = GOLDEN.get(key, {}).get("maa2c-2-long")
    if recorded is None:
        pytest.skip(f"no golden digests recorded for platform {key!r}")
    assert run_digests(out_dir=tmp_path / "run", **LONG_MAA2C) == recorded


@pytest.mark.parametrize("name", ["a2c-1", "a2c-2", "maa2c-1", "maa2c-2", "maa2c-2-long"])
def test_metrics_csv_digest_on_numpy_adam(name, tmp_path, no_kernels):
    # a process with no C compiler runs the numpy passes of the forward pass
    # and the update (Adam's, forward's and backward's): same bits
    key = platform_key()
    recorded = GOLDEN.get(key, {}).get(name)
    if recorded is None:
        pytest.skip(f"no golden digests recorded for platform {key!r}")
    algo, case = name.split("-")[:2]
    run = LONG_MAA2C if name.endswith("-long") else {"algo": algo, "case": int(case)}
    with no_kernels():
        assert run_digests(out_dir=tmp_path / "run", **run) == recorded


@pytest.mark.parametrize("name", ["a2c-1", "maa2c-2"])
def test_metrics_csv_digest_without_numpy_blas(name, tmp_path, monkeypatch):
    # where numpy's BLAS functions cannot be found, the whole library is off
    # and every call runs the numpy passes: same bits
    key = platform_key()
    recorded = GOLDEN.get(key, {}).get(name)
    if recorded is None:
        pytest.skip(f"no golden digests recorded for platform {key!r}")
    monkeypatch.setattr(nets, "_library", None)
    monkeypatch.setattr(nets, "BLAS_SYMBOLS", ("no_such_dgemv", "no_such_ddot"))
    assert nets.kernel_backend().startswith("numpy (numpy's BLAS is out of reach: ")
    assert nets._library.a2c_update is None
    algo, case = name.split("-")
    assert run_digests(algo, int(case), tmp_path / "run") == recorded


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {f"{algo}-{case}": run_digests(algo, case, Path(tmp) / f"{algo}{case}")
                 for algo, case in CASES}
        table["q-1-many"] = run_digests(out_dir=Path(tmp) / "many", **MANY_STATES)
        table["maa2c-2-long"] = run_digests(out_dir=Path(tmp) / "long", **LONG_MAA2C)
        for algo, case in CASES:
            table[f"{algo}-{case}-summary"] = summary_digests(
                algo, case, Path(tmp) / f"summary_{algo}{case}")
        for name in GRID_CASES:
            table[f"{name}-grid"] = [grid_digest(name, Path(tmp) / f"grid_{name}")]
    json.dump({platform_key(): table}, sys.stdout, indent=4)
    print()
