"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  The heavier criteria share a module-scoped 4-player candidate
family.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from psne_learn import (
    ActionSpace,
    Dataset,
    ExperimentConfig,
    LinearPsneForm,
    MixtureModel,
    PsneSet,
    enumerate_psne_sets,
    fano_error_lower_bound,
    fano_pair_kl,
    mixture_kl,
    nll_scale,
    population_mle,
    run_fano,
    run_generalization_gap,
    run_recovery,
    sufficient_samples,
    superset_recovery_margin,
)
from helpers import (
    BLAS_THREAD_VARS,
    bimatrix_psne_sets,
    brute_is_psne,
    child_pythonpath,
    enumerate_grid_games,
    explicit_family,
    random_grid_game,
)

GRID3 = (-1.0, 0.0, 1.0)


def _passed(number, name, started, budget):
    elapsed = time.time() - started
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def recovery_instance():
    """The 4-player binary family with a deterministic 2-equilibrium truth."""
    family = enumerate_psne_sets(4, 3, (2, 2, 2, 2), GRID3)
    truth = next(c for c in family if len(c) == 2)
    q_star, delta = 0.7, 0.1
    margin = superset_recovery_margin(len(truth), q_star, 16)
    eps = margin / 2.0
    m = sufficient_samples(eps, delta, len(family))
    return family, truth, q_star, delta, eps, m


def test_criterion_1_pmf_normalization_and_nll_range():
    started = time.time()
    rng = np.random.default_rng(101)
    checked = 0
    while checked < 200:
        sizes = tuple(int(s) for s in rng.integers(2, 5, size=int(rng.integers(1, 7))))
        if math.prod(sizes) > 4096:
            continue
        space = ActionSpace(sizes)
        size = space.joint_size
        r = int(rng.integers(1, size))
        psne = PsneSet(rng.choice(size, size=r, replace=False))
        lo, up = r / size, 1.0 - 1.0 / (2.0 * size)
        q = lo + (up - lo) * (1.0 - float(rng.random()) * 0.999)
        model = MixtureModel(space, psne, q)
        every = np.arange(size)
        assert abs(float(model.pmf(every).sum()) - 1.0) < 1e-12
        losses = model.scaled_nll(every)
        assert losses.min() >= 0.0 and losses.max() <= 1.0
        checked += 1
    _passed(1, "pmf normalization and nll range", started, 10.0)


def test_criterion_2_psne_oracle_equivalence():
    started = time.time()
    pairs = 0
    for game in enumerate_grid_games(2, 1, (2, 2), GRID3):
        form = LinearPsneForm.from_game(game)
        for x in itertools.product((1, 2), (1, 2)):
            direct = game.is_psne(x)
            assert form.is_psne(x) == direct
            assert brute_is_psne(game, x) == direct
            pairs += 1
    rng = np.random.default_rng(102)
    for _ in range(120):
        sizes = tuple(int(s) for s in rng.integers(2, 4, size=3))
        game = random_grid_game(rng, 3, 2, sizes, GRID3)
        form = LinearPsneForm.from_game(game)
        for x in itertools.product(*(range(1, s + 1) for s in sizes)):
            direct = game.is_psne(x)
            assert form.is_psne(x) == direct
            assert brute_is_psne(game, x) == direct
            pairs += 1
    assert pairs > 2916
    _passed(2, "psne oracle equivalence", started, 60.0)


def test_criterion_3_margin_kl_identity():
    started = time.time()
    rng = np.random.default_rng(103)
    for joint, sizes in ((16, (4, 4)), (64, (8, 8)), (256, (16, 16))):
        space = ActionSpace(sizes)
        scale = nll_scale(space)
        for r in range(2, 9):
            lo, up = r / joint, 1.0 - 1.0 / (2.0 * joint)
            for _ in range(10):
                q = lo + (up - lo) * (0.02 + 0.96 * float(rng.random()))
                members = rng.choice(joint, size=r, replace=False)
                full = MixtureModel(space, PsneSet(members), q)
                dropped = MixtureModel(space, PsneSet(members[:-1]), q)
                margin = superset_recovery_margin(r, q, joint)
                assert abs(margin * scale - mixture_kl(full, dropped)) <= 1e-10
    # frozen spot value: the margin at (r=2, q=0.75, |A|=4) is
    # ln(3/2)/ln(32) = 0.1169925..., numerator exactly ln 1.5
    spot = superset_recovery_margin(2, 0.75, 4)
    assert abs(spot - 0.1169925001442313) <= 1e-6
    assert abs(spot * math.log(32.0) - math.log(1.5)) <= 1e-12
    _passed(3, "margin-KL identity", started, 1.0)


def test_criterion_4_fano_kl_cross_check():
    started = time.time()
    rng = np.random.default_rng(104)
    for joint in range(4, 65):
        space = ActionSpace((joint,))
        lo, up = 1.0 / joint, 1.0 - 1.0 / (2.0 * joint)
        for _ in range(3):
            q = lo + (up - lo) * (0.02 + 0.96 * float(rng.random()))
            p = MixtureModel(space, PsneSet([0]), q)
            r = MixtureModel(space, PsneSet([joint - 1]), q)
            assert abs(fano_pair_kl(q, joint) - mixture_kl(p, r)) <= 1e-12
    assert abs(fano_pair_kl(0.5, 4) - math.log(3.0) / 3.0) <= 1e-12
    assert abs(fano_pair_kl(1.0 / 32.0, 64) - 0.011256309871529941) <= 1e-6
    _passed(4, "fano KL cross-check", started, 1.0)


def test_criterion_5_population_mle_identity():
    started = time.time()
    rng = np.random.default_rng(105)
    checked = 0
    while checked < 50:
        sizes = tuple(int(s) for s in rng.integers(2, 5, size=int(rng.integers(2, 5))))
        if math.prod(sizes) > 256:
            continue
        checked += 1
        space = ActionSpace(sizes)
        size = space.joint_size
        r = int(rng.integers(1, size))
        truth_set = PsneSet(rng.choice(size, size=r, replace=False))
        lo, up = r / size, 1.0 - 1.0 / (2.0 * size)
        q_star = lo + (up - lo) * (0.05 + 0.9 * float(rng.random()))
        candidates = [list(truth_set.indices)]
        for _ in range(120):
            rr = int(rng.integers(1, size))
            candidates.append(rng.choice(size, size=rr, replace=False).tolist())
        family = explicit_family(sizes, candidates)
        fit = population_mle(family, MixtureModel(space, truth_set, q_star))
        assert fit.psne == truth_set
        assert fit.q_hat == q_star
        assert fit.clamped is False
    _passed(5, "population MLE identity", started, 30.0)


def test_criterion_6_recovery_at_sufficient_samples(recovery_instance):
    started = time.time()
    family, truth, q_star, delta, eps, m = recovery_instance
    assert eps < superset_recovery_margin(len(truth), q_star, 16)
    config = ExperimentConfig(
        kind="recovery",
        n=4,
        k=3,
        action_sizes=(2, 2, 2, 2),
        grid=GRID3,
        q_star=q_star,
        m_schedule=(m,),
        trials=50,
        seed=106,
        truth_psne=truth.indices,
        delta=delta,
    )
    table = run_recovery(config)
    row = next(r for r in table.rows if r.metric == "superset")
    assert row.value >= 1.0 - delta - 3.0 * row.stderr
    _passed(6, f"superset recovery at m={m}", started, 300.0)


def test_criterion_7_generalization_gap_quantile(recovery_instance):
    started = time.time()
    family, truth, q_star, delta, eps, m = recovery_instance
    config = ExperimentConfig(
        kind="gap",
        n=4,
        k=3,
        action_sizes=(2, 2, 2, 2),
        grid=GRID3,
        q_star=q_star,
        m_schedule=(m,),
        trials=50,
        seed=107,
        truth_psne=truth.indices,
        delta=delta,
    )
    table = run_generalization_gap(config)
    rows = {r.metric: r for r in table.rows}
    assert rows["gap_min"].value >= 0.0
    assert rows["gap_quantile"].value <= eps
    _passed(7, f"generalization gap at m={m}", started, 300.0)


def test_criterion_8_fano_minimax():
    started = time.time()
    config = ExperimentConfig(
        kind="fano",
        n=6,
        k=1,
        action_sizes=(2,) * 6,
        m_schedule=(0, 6, 12, 18, 30),
        trials=500,
        seed=108,
    )
    table = run_fano(config)
    errors = {r.m: r for r in table.rows if r.metric == "map_error"}
    bounds = {r.m: r.value for r in table.rows if r.metric == "fano_bound"}
    for m, row in errors.items():
        assert row.value >= bounds[m] - 3.0 * row.stderr
    assert abs(bounds[18] - 0.5000664019744763) <= 1e-9
    assert abs(bounds[18] - 0.5) <= 1e-3
    assert abs(fano_error_lower_bound(18, 6, 1, 64) - bounds[18]) == 0.0
    _passed(8, "fano minimax floor", started, 120.0)




def _cli(tmp_path, threads, *argv):
    """Run the CLI with `threads` OpenBLAS threads, or with none of the BLAS
    thread variables set (the library's default) when `threads` is None."""
    path = child_pythonpath()
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = path
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(threads)
    args = [sys.executable, "-m", "psne_learn.cli", *argv]
    proc = subprocess.run(
        args,
        cwd=tmp_path,
        env=env,
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == 0, (
        f"argv={args} PYTHONPATH={path}\n{proc.stderr.decode()}"
    )
    return proc.stdout


def test_criterion_9_cli_determinism_across_workers(tmp_path):
    started = time.time()
    (tmp_path / "exp.cfg").write_text(
        "kind = recovery\nn = 3\nk = 2\nactions = 2,2,2\ngrid = -1,0,1\n"
        "q = 0.7\nm_schedule = 1,40\ntrials = 16\nseed = 9\n"
    )
    outputs = {}
    for threads in (None, 1, 4, 16):
        tag = f"t{threads}"
        stdouts = []
        stdouts.append(
            _cli(
                tmp_path, threads,
                "enumerate", "--n", "2", "--k", "1", "--actions", "2,2",
                "--grid", "-1,0,1", "--out", f"family-{tag}.json",
            )
        )
        stdouts.append(
            _cli(
                tmp_path, threads,
                "sample", "--family", f"family-{tag}.json", "--psne", "4",
                "--q", "0.7", "--m", "400", "--seed", "7", "--out", f"data-{tag}.csv",
            )
        )
        stdouts.append(
            _cli(
                tmp_path, threads,
                "fit", "--family", f"family-{tag}.json", "--data", f"data-{tag}.csv",
                "--out", f"fit-{tag}.json",
            )
        )
        stdouts.append(
            _cli(
                tmp_path, threads,
                "theory", "--beta", "--r", "2", "--q", "0.75", "--joint", "4",
                "--m-sufficient", "--eps", "0.1", "--delta", "0.05", "--d-h", "100",
            )
        )
        stdouts.append(
            _cli(
                tmp_path, threads,
                "experiment", "--config", "exp.cfg", "--out", f"res-{tag}.csv",
            )
        )
        outputs[threads] = {
            "stdout": b"".join(stdouts),
            "family": (tmp_path / f"family-{tag}.json").read_bytes(),
            "data": (tmp_path / f"data-{tag}.csv").read_bytes(),
            "fit": (tmp_path / f"fit-{tag}.json").read_bytes(),
            "results": (tmp_path / f"res-{tag}.csv").read_bytes(),
            "meta": (tmp_path / f"res-{tag}.csv.meta.json").read_bytes(),
        }
    assert outputs[None] == outputs[1] == outputs[4] == outputs[16]
    _passed(9, "CLI determinism across default/1/4/16 BLAS threads", started, 300.0)


def test_criterion_10_candidate_count_oracle():
    started = time.time()
    family = enumerate_psne_sets(2, 1, (2, 2), GRID3)
    oracle = bimatrix_psne_sets(GRID3)
    assert {frozenset(c) for c in family} == oracle
    assert len(family) == len(oracle)
    _passed(10, "candidate-count oracle", started, 120.0)
