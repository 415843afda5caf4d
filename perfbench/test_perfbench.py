"""Tests of the benchmark itself, on tiny inputs so they stay fast."""

import json
import tempfile
from pathlib import Path

import pytest

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}

TINY = {
    "family": {"builds": {"tiny": {"n": 3, "k": 1, "actions": [2, 2, 2], "size": 164}}},
    "trials": {"n": 3, "k": 2, "m_schedule": [10, 100], "trials": 2, "family_size": 224},
    "fano": {"runs": {"tiny": {"n": 4, "k": 1, "m_schedule": [0, 10], "trials": 3}}},
    "cli": {
        "actions": [2, 2, 2],
        "k": 1,
        "family_size": 164,
        "m": 50,
        "experiment": {"n": 3, "k": 2, "m_schedule": [10], "trials": 2},
    },
}


@pytest.fixture(autouse=True)
def one_setup(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_end_to_end(name):
    report, result = run.run_workload(name, 3, 0.01, False, spec=TINY[name])
    assert report["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_per_layer_metrics_with_repeating_counts():
    runs = [run.run_workload("fano", 5, 0.01, True, spec=TINY["fano"])[1] for _ in range(2)]
    for result in runs:
        assert result["correct"]
        assert set(result["metrics"]) == PER_LAYER
    counts = [
        {k: m["value"] for k, m in r["metrics"].items() if m["unit"] in ("count", "B")}
        for r in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["influence.influence_game.calls"] == 4
    assert counts[0]["experiments.trials"] == 6


def test_tampered_digest_is_reported_as_failure():
    spec = TINY["trials"]
    report, result = run.run_workload("trials", 7, 0.01, False, spec=spec)
    assert result["correct"]
    with tempfile.TemporaryDirectory() as tmp:
        workload = workloads.Trials(run.import_library(), 7, Path(tmp), spec)
        digests = run.round_digests(workload.round())
    key = sorted(digests)[0]
    digests[key] = "0" * 64
    report, result = run.run_workload("trials", 7, 0.01, False, spec=spec, expected=digests)
    assert not result["correct"] and result["failed"] >= 1
    assert any(key in failure for failure in report["failures"])


def test_recorded_digests_cover_the_family_for_any_seed():
    assert run.recorded_digests("family", 12345) == run.recorded_digests("family", 0)
    assert set(run.recorded_digests("family", 0)) == {
        "family_n4k3/family.json",
        "family_n3k2a322/family.json",
    }
