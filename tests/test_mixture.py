import math

import numpy as np
import pytest

from psne_learn import (
    ActionSpace,
    Dataset,
    InputError,
    MixtureModel,
    PsneSet,
    expected_nll,
    mixture_interval,
    nll_scale,
)
from helpers import brute_expected_nll, masked_sample_indices, random_model

SPACE4 = ActionSpace((2, 2))
LN32 = math.log(32.0)


class TestInterval:
    def test_endpoints(self):
        iv = mixture_interval(1, 4)
        assert (iv.lower, iv.upper) == (0.25, 0.875)
        assert mixture_interval(3, 4).lower == 0.75

    def test_membership_half_open(self):
        iv = mixture_interval(1, 4)
        assert 0.25 not in iv
        assert 0.875 in iv
        assert 0.8750001 not in iv
        assert 0.26 in iv

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(InputError):
            mixture_interval(4, 4)
        with pytest.raises(InputError):
            mixture_interval(0, 4)


class TestModelValidation:
    def test_q_at_open_lower_endpoint_rejected(self):
        with pytest.raises(InputError):
            MixtureModel(SPACE4, PsneSet([0]), 0.25)

    def test_q_at_closed_upper_endpoint_accepted(self):
        assert MixtureModel(SPACE4, PsneSet([0]), 0.875).q == 0.875

    def test_full_psne_set_rejected(self):
        # and, through the same check, the empty set
        for bad in ([0, 1, 2, 3], []):
            with pytest.raises(InputError):
                MixtureModel(SPACE4, PsneSet(bad), 0.9)

    def test_out_of_range_index_rejected(self):
        with pytest.raises(InputError):
            MixtureModel(SPACE4, PsneSet([4]), 0.5)


class TestPmf:
    def test_spot_values(self):
        model = MixtureModel(SPACE4, PsneSet([0]), 0.5)
        assert model.pmf(0) == pytest.approx(0.5, abs=0)
        assert model.pmf(1) == pytest.approx(1.0 / 6.0, rel=1e-15)
        wide = MixtureModel(ActionSpace((2, 2, 2)), PsneSet([0, 5]), 0.6)
        assert wide.pmf(0) == pytest.approx(0.3, rel=1e-15)
        assert wide.pmf(7) == pytest.approx(0.4 / 6.0, rel=1e-15)

    def test_normalization_and_dominance_randomized(self):
        rng = np.random.default_rng(10)
        for _ in range(40):
            model = random_model(rng)
            values = model.pmf(np.arange(model.space.joint_size))
            assert abs(values.sum() - 1.0) < 1e-12
            inside = min(model.pmf(i) for i in model.psne)
            outside = max(
                v
                for i, v in enumerate(values)
                if i not in model.psne
            )
            assert inside > outside


class TestScaledNll:
    def test_spot_values(self):
        model = MixtureModel(SPACE4, PsneSet([0]), 0.5)
        assert model.scaled_nll(0) == pytest.approx(math.log(2) / LN32, abs=1e-15)
        assert model.scaled_nll(1) == pytest.approx(math.log(6) / LN32, abs=1e-15)
        peaked = MixtureModel(SPACE4, PsneSet([0]), 0.875)
        assert peaked.scaled_nll(0) == pytest.approx(0.03852901558847918, abs=1e-12)

    def test_range_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            model = random_model(rng)
            values = model.scaled_nll(np.arange(model.space.joint_size))
            assert values.min() >= 0.0
            assert values.max() <= 1.0

    def test_huge_joint_space_stays_finite(self):
        space = ActionSpace((4,) * 200)
        model = MixtureModel(space, PsneSet([0, 1]), 0.5)
        assert 0.0 < model.scaled_nll(0) < model.scaled_nll(2) <= 1.0
        assert math.isfinite(nll_scale(space))


class TestSampling:
    def test_empty_dataset(self):
        model = MixtureModel(SPACE4, PsneSet([0]), 0.5)
        assert model.sample(0, 1).m == 0

    def test_deterministic_per_seed(self):
        model = MixtureModel(SPACE4, PsneSet([0, 2]), 0.7)
        a = model.sample(500, 123)
        b = model.sample(500, 123)
        assert a == b
        assert a != model.sample(500, 124)

    def test_in_set_frequency_concentrates(self):
        model = MixtureModel(SPACE4, PsneSet([1]), 0.875)
        for seed in (1, 2, 3):
            data = model.sample(100_000, seed)
            freq = float(np.isin(data.indices, [1]).mean())
            assert abs(freq - 0.875) < 0.01

    def test_complement_draws_cover_complement_only(self):
        space = ActionSpace((2, 2))
        model = MixtureModel(space, PsneSet([0, 2]), 0.51)
        data = model.sample(4000, 9)
        outside = data.indices[~np.isin(data.indices, [0, 2])]
        assert set(outside.tolist()) == {1, 3}

    def test_matches_masked_formula(self):
        rng = np.random.default_rng(2024)
        for sizes in [(2, 2), (2, 2, 2), (3, 2, 2), (2,) * 6, (4, 4, 5), (2,) * 16]:
            space = ActionSpace(sizes)
            size = space.joint_size
            # the extremes |NE| = 1 and |NE| = |A| - 1, then random sizes
            for r in [1, size - 1] + [int(v) for v in rng.integers(1, min(size, 40), 3)]:
                psne = PsneSet(rng.choice(size, size=r, replace=False))
                iv = mixture_interval(r, size)
                q = iv.lower + (iv.upper - iv.lower) * float(rng.uniform(0.05, 1.0))
                model = MixtureModel(space, psne, q)
                for m in (0, 1, 10, 1000, 100_000):
                    seed = int(rng.integers(2**32))
                    expected = masked_sample_indices(model, m, seed)
                    assert np.array_equal(model.sample(m, seed).indices, expected)

    def test_negative_count_rejected(self):
        model = MixtureModel(SPACE4, PsneSet([0]), 0.5)
        with pytest.raises(InputError):
            model.sample(-1, 0)
        with pytest.raises(InputError):
            model.sample(1, -1)


class TestEmpiricalNll:
    def test_constant_dataset(self):
        model = MixtureModel(SPACE4, PsneSet([0]), 0.5)
        data = Dataset(SPACE4, [0] * 10)
        assert model.empirical_nll(data) == pytest.approx(0.2, abs=1e-15)

    def test_weighted_average(self):
        model = MixtureModel(SPACE4, PsneSet([0]), 0.5)
        data = Dataset(SPACE4, [0] * 7 + [1, 2, 3])
        expected = 0.7 * (math.log(2) / LN32) + 0.3 * (math.log(6) / LN32)
        assert model.empirical_nll(data) == pytest.approx(expected, abs=1e-15)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(12)
        model = random_model(rng)
        data = model.sample(200, 5)
        shuffled = Dataset(model.space, rng.permutation(data.indices))
        assert model.empirical_nll(data) == model.empirical_nll(shuffled)

    def test_empty_rejected(self):
        model = MixtureModel(SPACE4, PsneSet([0]), 0.5)
        with pytest.raises(InputError):
            model.empirical_nll(Dataset(SPACE4, []))


class TestExpectedNll:
    def test_self_entropy_spot(self):
        model = MixtureModel(SPACE4, PsneSet([0]), 0.5)
        expected = 0.5 * 0.2 + 0.5 * (math.log(6) / LN32)
        assert expected_nll(model, model) == pytest.approx(expected, abs=1e-15)

    def test_matches_brute_force_on_random_models(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            truth = random_model(rng)
            model = random_model_same_space(rng, truth)
            closed = expected_nll(model, truth)
            assert closed == pytest.approx(brute_expected_nll(model, truth), abs=1e-12)
            own = expected_nll(truth, truth)
            assert own == pytest.approx(brute_expected_nll(truth, truth), abs=1e-12)

    def test_disjoint_singletons_excess(self):
        p = MixtureModel(SPACE4, PsneSet([0]), 0.5)
        r = MixtureModel(SPACE4, PsneSet([1]), 0.5)
        excess = expected_nll(r, p) - expected_nll(p, p)
        assert excess == pytest.approx(math.log(3) / 3 / LN32, abs=1e-14)

    def test_consistency_with_sampling(self):
        model = MixtureModel(ActionSpace((2, 2, 2)), PsneSet([1, 6]), 0.8)
        data = model.sample(1_000_000, 77)
        gap = abs(model.empirical_nll(data) - expected_nll(model, model))
        assert gap <= 0.01

    def test_space_mismatch_rejected(self):
        a = MixtureModel(SPACE4, PsneSet([0]), 0.5)
        b = MixtureModel(ActionSpace((2, 2, 2)), PsneSet([0]), 0.5)
        with pytest.raises(InputError):
            expected_nll(a, b)


def random_model_same_space(rng, truth):
    size = truth.space.joint_size
    r = int(rng.integers(1, size))
    psne = PsneSet(rng.choice(size, size=r, replace=False))
    lo, up = r / size, 1.0 - 1.0 / (2.0 * size)
    q = lo + (up - lo) * (0.05 + 0.9 * float(rng.random()))
    return MixtureModel(truth.space, psne, q)


class TestDataset:
    def test_from_actions_round_trip(self):
        space = ActionSpace((2, 3))
        rows = [(1, 3), (2, 1), (1, 1)]
        data = Dataset.from_actions(space, rows)
        assert [tuple(r) for r in data.actions_matrix()] == rows

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            Dataset(SPACE4, [0, 4])
        with pytest.raises(InputError):
            Dataset.from_actions(SPACE4, [(1, 3)])
