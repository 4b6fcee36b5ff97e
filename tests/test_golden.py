"""Golden-hash contract: seeded runs write byte-identical metrics CSVs.

Each case runs ``run_experiment`` on a small config and compares the SHA-256
of every ``metrics_seed##.csv`` with the digest recorded for this platform.
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
from safestock.harness import ExperimentConfig, run_experiment

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
    return [hashlib.sha256((Path(out_dir) / f"metrics_seed{k:02d}.csv")
                           .read_bytes()).hexdigest()
            for k in range(num_seeds)]


@pytest.mark.parametrize("algo,case", CASES)
def test_metrics_csv_digest(algo, case, tmp_path):
    key = platform_key()
    recorded = GOLDEN.get(key, {}).get(f"{algo}-{case}")
    if recorded is None:
        pytest.skip(f"no golden digests recorded for platform {key!r}")
    assert run_digests(algo, case, tmp_path / "run") == recorded


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
def test_metrics_csv_digest_on_numpy_adam(name, tmp_path, monkeypatch):
    # a process with no C compiler runs every kernel's numpy passes (Adam's,
    # forward's and backward's): same bits
    key = platform_key()
    recorded = GOLDEN.get(key, {}).get(name)
    if recorded is None:
        pytest.skip(f"no golden digests recorded for platform {key!r}")
    monkeypatch.setattr(nets, "_kernels",
                        dict.fromkeys(nets.KERNELS, (None, "numpy (kernel disabled)")))
    algo, case = name.split("-")[:2]
    run = LONG_MAA2C if name.endswith("-long") else {"algo": algo, "case": int(case)}
    assert run_digests(out_dir=tmp_path / "run", **run) == recorded


@pytest.mark.parametrize("name", ["a2c-1", "maa2c-2"])
def test_metrics_csv_digest_without_numpy_blas(name, tmp_path, monkeypatch):
    # where numpy's BLAS functions cannot be found, forward and backward run
    # their numpy passes beside the compiled Adam: same bits
    key = platform_key()
    recorded = GOLDEN.get(key, {}).get(name)
    if recorded is None:
        pytest.skip(f"no golden digests recorded for platform {key!r}")
    monkeypatch.setattr(nets, "_kernels", None)
    monkeypatch.setattr(nets, "BLAS_SYMBOLS", ("no_such_dgemv", "no_such_ddot"))
    assert nets.kernel_backend("forward").startswith("numpy (")
    algo, case = name.split("-")
    assert run_digests(algo, int(case), tmp_path / "run") == recorded


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {f"{algo}-{case}": run_digests(algo, case, Path(tmp) / f"{algo}{case}")
                 for algo, case in CASES}
        table["q-1-many"] = run_digests(out_dir=Path(tmp) / "many", **MANY_STATES)
        table["maa2c-2-long"] = run_digests(out_dir=Path(tmp) / "long", **LONG_MAA2C)
    json.dump({platform_key(): table}, sys.stdout, indent=4)
    print()
