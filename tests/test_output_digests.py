"""The result, family, dataset and fit files, byte for byte, at seed 0.

Each run below is a config of the benchmark's `family`, `trials`, `fano`
and `cli` workloads (`perfbench/workloads.py` SPECS), built here with
library calls or `cli.main` and written by `fileio`.  Their SHA-256
digests must equal the golden ones in `tests/data/output_digests.json`,
so a change that moves one output byte fails Tier-1, not only the
benchmark's digest check.
"""

import hashlib
import json
from pathlib import Path

import pytest

from psne_learn import ExperimentConfig, enumerate_psne_sets, run_experiment
from psne_learn.cli import main
from psne_learn.fileio import write_family, write_results

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
FAMILIES = {"family_n4k3": (4, 3, (2, 2, 2, 2)), "family_n3k2a322": (3, 2, (3, 2, 2))}

# The `cli` workload's round as its seed-0 children run it.  `Cli.setup`
# derives `--psne` and `--q` from `np.random.default_rng(0)`: the set is
# one of the (3, 1, (3, 2, 2)) family's 1,580 sets with two or more
# equilibria, and q lies 0.2-0.8 of the way through that set's interval.
CLI_ROUND = {
    "enumerate": (
        ["--n", "3", "--k", "1", "--actions", "3,2,2", "--out", "family.json"],
        ["family.json"],
    ),
    "sample": (
        ["--family", "family.json", "--psne", "1345", "--q", "0.7190353439302042",
         "--m", "200000", "--seed", "0", "--out", "data.csv"],
        ["data.csv"],
    ),
    "fit": (
        ["--family", "family.json", "--data", "data.csv", "--out", "fit.json"],
        ["fit.json"],
    ),
    "experiment": (
        ["--kind", "recovery", "--n", "3", "--k", "2", "--m-schedule", "10,1000",
         "--trials", "50", "--seed", "0", "--out", "results.csv"],
        ["results.csv", "results.csv.meta.json"],
    ),
}


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_result_files_match_golden_digests(tmp_path, name):
    path = tmp_path / f"{name}.csv"
    write_results(str(path), run_experiment(ExperimentConfig(seed=0, **RUNS[name])), "csv")
    for suffix in ("", ".meta.json"):
        assert digest(Path(str(path) + suffix)) == GOLDEN[f"{name}/results.csv{suffix}"]


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_family_files_match_golden_digests(tmp_path, name):
    path = tmp_path / "family.json"
    write_family(str(path), enumerate_psne_sets(*FAMILIES[name], (-1.0, 0.0, 1.0)))
    assert digest(path) == GOLDEN[f"{name}/family.json"]


def test_cli_round_matches_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for command, (argv, outputs) in CLI_ROUND.items():
        assert main([command, *argv]) == 0
        for name in outputs:
            assert digest(tmp_path / name) == GOLDEN[f"cli_{command}/{name}"]
