import math

import numpy as np
import pytest

from psne_learn import (
    ActionSpace,
    InputError,
    MixtureModel,
    PsneSet,
    fano_error_lower_bound,
    fano_pair_kl,
    log_binomial,
    mixture_kl,
    nll_scale,
    sufficient_samples,
    superset_recovery_margin,
)
from helpers import brute_kl

SPACE4 = ActionSpace((2, 2))


def space_of_size(joint_size):
    """A two-player factorization of the requested joint size."""
    for a in range(2, joint_size):
        if joint_size % a == 0 and joint_size // a >= 2:
            return ActionSpace((a, joint_size // a))
    return ActionSpace((joint_size,))


def sampled_q(rng, r, joint_size):
    lo, up = r / joint_size, 1.0 - 1.0 / (2.0 * joint_size)
    return lo + (up - lo) * (0.05 + 0.9 * float(rng.random()))


class TestSupersetRecoveryMargin:
    def test_spot_value(self):
        # ratio of ln(3/2) to ln(2 * 16); frozen from direct high-precision
        # evaluation of the four-term formula
        margin = superset_recovery_margin(2, 0.75, 4)
        assert margin == pytest.approx(0.1169925001442313, abs=1e-9)
        assert margin * math.log(32.0) == pytest.approx(math.log(1.5), abs=1e-12)

    def test_single_equilibrium_rejected(self):
        with pytest.raises(InputError):
            superset_recovery_margin(1, 0.5, 4)

    def test_inadmissible_q_rejected(self):
        with pytest.raises(InputError):
            superset_recovery_margin(2, 0.5, 4)  # at the open endpoint
        with pytest.raises(InputError):
            superset_recovery_margin(2, 0.9, 4)  # above the closed endpoint

    def test_joint_size_must_exceed_set_size(self):
        with pytest.raises(InputError):
            superset_recovery_margin(4, 0.9, 4)

    def test_capped_by_q_over_2r_at_moderate_signal(self):
        # the cap holds up to roughly 0.85 of the admissible interval;
        # see the companion test for the high-signal regime
        rng = np.random.default_rng(30)
        for _ in range(100):
            joint = int(rng.choice([16, 64, 256, 1024]))
            r = int(rng.integers(2, 9))
            lo, up = r / joint, 1.0 - 1.0 / (2.0 * joint)
            q = lo + (up - lo) * (0.05 + 0.75 * float(rng.random()))
            assert superset_recovery_margin(r, q, joint) <= q / (2 * r)
        assert superset_recovery_margin(2, 0.75, 4) <= 0.1875

    def test_cap_fails_at_extreme_signal(self):
        # dropping one of two equilibria is extremely detectable when the
        # noise mass is tiny, so the margin legitimately exceeds q/(2r)
        # once q gets close to 1; pin that down so nobody "fixes" it
        assert superset_recovery_margin(2, 0.9378, 64) > 0.9378 / 4

    def test_cap_gap_shrinks_with_joint_size(self):
        r, q = 2, 0.75
        gaps = [
            q / (2 * r) - superset_recovery_margin(r, q, joint)
            for joint in (8, 64, 512, 4096)
        ]
        assert all(a > b > 0 for a, b in zip(gaps, gaps[1:]))

    def test_equals_scaled_drop_one_kl(self):
        rng = np.random.default_rng(31)
        for joint in (16, 64, 256):
            space = space_of_size(joint)
            scale = nll_scale(space)
            for r in range(2, 9):
                for _ in range(5):
                    q = sampled_q(rng, r, joint)
                    indices = rng.choice(joint, size=r, replace=False)
                    full = MixtureModel(space, PsneSet(indices), q)
                    dropped = MixtureModel(space, PsneSet(indices[1:]), q)
                    margin = superset_recovery_margin(r, q, joint)
                    assert margin * scale == pytest.approx(
                        mixture_kl(full, dropped), abs=1e-10
                    )


class TestMixtureKl:
    def test_same_set_reduces_to_bernoulli_kl(self):
        bern = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        for space, indices in [(SPACE4, [0]), (ActionSpace((2, 2, 2)), [1, 4, 6])]:
            p = MixtureModel(space, PsneSet(indices), 0.75)
            r = MixtureModel(space, PsneSet(indices), 0.5)
            assert mixture_kl(p, r) == pytest.approx(bern, abs=1e-14)

    def test_identical_models_zero(self):
        model = MixtureModel(SPACE4, PsneSet([0, 2]), 0.7)
        assert mixture_kl(model, model) == 0.0

    def test_disjoint_singletons(self):
        p = MixtureModel(SPACE4, PsneSet([0]), 0.5)
        r = MixtureModel(SPACE4, PsneSet([3]), 0.5)
        assert mixture_kl(p, r) == pytest.approx(math.log(3) / 3, abs=1e-14)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(32)
        for _ in range(60):
            joint = int(rng.choice([4, 8, 16, 64, 256]))
            space = space_of_size(joint)
            rp = int(rng.integers(1, joint))
            rr = int(rng.integers(1, joint))
            p = MixtureModel(
                space, PsneSet(rng.choice(joint, rp, replace=False)), sampled_q(rng, rp, joint)
            )
            r = MixtureModel(
                space, PsneSet(rng.choice(joint, rr, replace=False)), sampled_q(rng, rr, joint)
            )
            assert mixture_kl(p, r) == pytest.approx(brute_kl(p, r), abs=1e-12)

    def test_nonnegative_and_zero_iff_same_distribution(self):
        rng = np.random.default_rng(33)
        for _ in range(60):
            joint = int(rng.choice([4, 8, 16, 64]))
            space = space_of_size(joint)
            rp = int(rng.integers(1, joint))
            rr = int(rng.integers(1, joint))
            p = MixtureModel(
                space, PsneSet(rng.choice(joint, rp, replace=False)), sampled_q(rng, rp, joint)
            )
            r = MixtureModel(
                space, PsneSet(rng.choice(joint, rr, replace=False)), sampled_q(rng, rr, joint)
            )
            kl = mixture_kl(p, r)
            same_distribution = bool(
                np.array_equal(p.pmf(np.arange(joint)), r.pmf(np.arange(joint)))
            )
            assert kl >= 0.0
            assert (kl == 0.0) == same_distribution


class TestFanoPairKl:
    def test_spot_values(self):
        assert fano_pair_kl(0.5, 4) == pytest.approx(math.log(3) / 3, abs=1e-15)
        assert fano_pair_kl(1 / 32, 64) == pytest.approx(0.011256309871529941, abs=1e-9)
        assert fano_pair_kl(1 / 32, 64) == pytest.approx(
            (math.log(63) - math.log(31)) / 63, abs=1e-15
        )

    def test_plugin_value_reduction(self):
        for joint in (4, 8, 64):
            expected = (math.log(joint - 1) - math.log(joint / 2 - 1)) / (joint - 1)
            assert fano_pair_kl(2.0 / joint, joint) == pytest.approx(expected, abs=1e-14)

    def test_vanishes_approaching_uniform(self):
        for joint in (4, 64, 4096):
            assert fano_pair_kl(1.0 / joint + 1e-9, joint) < 1e-6

    def test_domain(self):
        with pytest.raises(InputError):
            fano_pair_kl(0.25, 4)
        with pytest.raises(InputError):
            fano_pair_kl(1.0, 4)
        with pytest.raises(InputError):
            fano_pair_kl(0.5, 2)

    def test_matches_mixture_kl_on_disjoint_singletons(self):
        rng = np.random.default_rng(34)
        for joint in range(4, 65):
            space = space_of_size(joint)
            q = sampled_q(rng, 1, joint)
            p = MixtureModel(space, PsneSet([0]), q)
            r = MixtureModel(space, PsneSet([1]), q)
            assert fano_pair_kl(q, joint) == pytest.approx(
                mixture_kl(p, r), abs=1e-12
            )


class TestSufficientSamples:
    def test_spot_value(self):
        assert sufficient_samples(0.1, 0.05, 100) == 1798

    def test_doubling_hypotheses_adds_log_two(self):
        eps = 0.2
        step = (2.0 / eps**2) * math.log(2.0)
        for d in (10, 1000, 123456):
            delta = abs(
                sufficient_samples(eps, 0.1, 2 * d)
                - sufficient_samples(eps, 0.1, d)
                - step
            )
            assert delta <= 1.0

    def test_halving_eps_quadruples(self):
        base = sufficient_samples(0.2, 0.1, 50)
        finer = sufficient_samples(0.1, 0.1, 50)
        assert 4 * base - 3 <= finer <= 4 * base + 1

    def test_domain(self):
        with pytest.raises(InputError):
            sufficient_samples(0.0, 0.1, 10)
        with pytest.raises(InputError):
            sufficient_samples(0.1, 1.0, 10)
        with pytest.raises(InputError):
            sufficient_samples(0.1, 0.1, 0)


class TestFanoErrorLowerBound:
    def test_zero_information(self):
        assert fano_error_lower_bound(0, 6, 1, 64) == pytest.approx(
            1.0 - math.log(2) / math.log(6), abs=1e-12
        )

    def test_crossing_half_at_eighteen(self):
        values = {m: fano_error_lower_bound(m, 6, 1, 64) for m in (17, 18, 19)}
        assert values[18] == pytest.approx(0.5000664019744763, abs=1e-12)
        assert values[17] > 0.5 and values[19] < values[18]

    def test_nonincreasing_and_floored(self):
        values = [fano_error_lower_bound(m, 6, 1, 64) for m in range(0, 400, 25)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] == 0.0

    def test_domain(self):
        with pytest.raises(InputError):
            fano_error_lower_bound(5, 6, 0, 64)
        with pytest.raises(InputError):
            fano_error_lower_bound(5, 6, 6, 64)
        with pytest.raises(InputError):
            fano_error_lower_bound(-1, 6, 1, 64)
        with pytest.raises(InputError):
            fano_error_lower_bound(5, 3, 1, 0)

    def test_q_override(self):
        default = fano_error_lower_bound(10, 6, 1, 64)
        weaker_signal = fano_error_lower_bound(10, 6, 1, 64, q=1 / 40)
        assert weaker_signal > default


class TestLogBinomial:
    def test_matches_exact_counts(self):
        for n, k in [(6, 1), (10, 4), (60, 13), (10_000, 17)]:
            assert log_binomial(n, k) == pytest.approx(
                math.log(math.comb(n, k)), rel=1e-12
            )

    def test_domain(self):
        with pytest.raises(InputError):
            log_binomial(4, 5)
