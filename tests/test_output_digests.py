"""The Monte Carlo result files, byte for byte, at seed 0.

Each run below is a config of the benchmark's `trials` and `fano`
workloads (`perfbench/workloads.py` SPECS), built here with library
calls and written with `fileio.write_results` as a CSV plus its
`.meta.json` sidecar.  Their SHA-256 digests must equal the golden ones
in `tests/data/output_digests.json`, so a change that moves one output
byte of a harness fails Tier-1, not only the benchmark's digest check.
"""

import hashlib
import json
from pathlib import Path

import pytest

from psne_learn import ExperimentConfig, run_experiment
from psne_learn.fileio import write_results

GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "data" / "output_digests.json").read_text()
)["digests"]

TRIALS = dict(n=3, k=2, m_schedule=(10, 100, 1000, 10000, 100000), trials=100)
RUNS = {
    "recovery": dict(kind="recovery", **TRIALS),
    "gap": dict(kind="gap", **TRIALS),
    "fano_n16k2": dict(kind="fano", n=16, k=2, m_schedule=(1000, 10000), trials=10),
    "fano_n6k1": dict(kind="fano", n=6, k=1, m_schedule=(0, 6, 12, 18, 30), trials=500),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_result_files_match_golden_digests(tmp_path, name):
    path = tmp_path / f"{name}.csv"
    write_results(str(path), run_experiment(ExperimentConfig(seed=0, **RUNS[name])), "csv")
    for suffix in ("", ".meta.json"):
        data = Path(str(path) + suffix).read_bytes()
        assert hashlib.sha256(data).hexdigest() == GOLDEN[f"{name}/results.csv{suffix}"]
