"""Golden-hash contract: seeded runs write byte-identical metrics CSVs.

Each case runs ``run_experiment`` on a small config and compares the SHA-256
of every ``metrics_seed##.csv`` with the digest recorded for this platform.
Float results depend on the BLAS kernels, so digests are keyed by CPU model,
vector ISA, numpy version and BLAS version, the same key that
``perfbench/digests.json`` uses.  On a platform with no recorded digests the
tests skip; ``python tests/test_golden.py`` prints this platform's key and
digests for recording.  A change that alters the bits on purpose says why
and records the new digests.
"""

import hashlib
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from safestock.harness import ExperimentConfig, run_experiment

CASES = [(algo, case) for algo in ("q", "a2c", "maa2c") for case in (1, 2)]
NUM_SEEDS = 2

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
        ]
    }
}


def platform_key():
    # Keep in step with machine() in perfbench/run.py (CPU model, ISA) and
    # blas_version() in perfbench/workload.py: if the key drifts from theirs,
    # these tests skip on the machine the digests were recorded on.
    cpu, isa = "unknown", "baseline"
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        text = ""
    model = re.search(r"^model name\s*:\s*(.+)$", text, re.M)
    flags = re.search(r"^flags\s*:\s*(.+)$", text, re.M)
    if model:
        cpu = model.group(1).strip()
    if flags:
        have = set(flags.group(1).split())
        isa = next((f for f in ("avx512f", "avx2", "avx") if f in have), "baseline")
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas']['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return f"{cpu}|{isa}|numpy {np.__version__}|{blas}"


def run_digests(algo, case, out_dir):
    config = ExperimentConfig(algorithm=algo, case=case, episodes=4,
                              steps_per_episode=30, num_seeds=NUM_SEEDS,
                              base_seed=11, eval_episodes=2, out_dir=str(out_dir))
    run_experiment(config)
    return [hashlib.sha256((Path(out_dir) / f"metrics_seed{k:02d}.csv")
                           .read_bytes()).hexdigest()
            for k in range(NUM_SEEDS)]


@pytest.mark.parametrize("algo,case", CASES)
def test_metrics_csv_digest(algo, case, tmp_path):
    key = platform_key()
    recorded = GOLDEN.get(key, {}).get(f"{algo}-{case}")
    if recorded is None:
        pytest.skip(f"no golden digests recorded for platform {key!r}")
    assert run_digests(algo, case, tmp_path / "run") == recorded


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {f"{algo}-{case}": run_digests(algo, case, Path(tmp) / f"{algo}{case}")
                 for algo, case in CASES}
    json.dump({platform_key(): table}, sys.stdout, indent=4)
    print()
