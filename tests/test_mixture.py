import math

import numpy as np
import pytest

from psne_learn import (
    ActionSpace,
    CapacityError,
    ConfigError,
    Dataset,
    ExperimentConfig,
    InputError,
    MixtureModel,
    PsneSet,
    decode_joint_action,
    encode_joint_action,
    expected_nll,
    map_decoder,
    mixture_interval,
    nll_scale,
    run_fano,
    run_recovery,
    superset_recovery_margin,
)
from psne_learn.mixture import SAMPLE_BLOCK, _blocks
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

    def test_admit_returns_float_or_raises_the_one_message(self):
        iv = mixture_interval(2, 4)
        assert iv.admit(0.875) == 0.875 and type(iv.admit(np.float32(0.75))) is float
        message = r"^q=0\.5 inadmissible: outside \(0\.5, 0\.875\] for \|NE\|=2, \|A\|=4$"
        with pytest.raises(InputError, match=message):
            iv.admit(0.5)
        with pytest.raises(ConfigError, match=message):
            iv.admit(0.5, ConfigError)

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
        # every block edge, with |A| both at most m and past it: the
        # 2**13-joint space crosses m between the first two counts, and the
        # 2**63-joint space is the int64 ceiling
        edges = (SAMPLE_BLOCK - 1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1, 3 * SAMPLE_BLOCK + 7)
        rng = np.random.default_rng(2025)
        for sizes in [(2, 2), (3, 2, 2), (4, 4, 5), (2,) * 13, (2,) * 16, (2,) * 20, (2,) * 63]:
            space = ActionSpace(sizes)
            size = space.joint_size
            extremes = [1, size - 1] if size <= 2**16 else [1, 2]
            for r in extremes + [int(v) for v in rng.integers(1, min(size, 40), 2)]:
                if size < 2**63:
                    psne = PsneSet(rng.choice(size, size=r, replace=False))
                else:
                    psne = PsneSet(rng.integers(0, size, r))
                iv = mixture_interval(len(psne), size)
                q = iv.lower + (iv.upper - iv.lower) * float(rng.uniform(0.05, 1.0))
                model = MixtureModel(space, psne, q)
                for m in edges:
                    seed = int(rng.integers(2**32))
                    expected = masked_sample_indices(model, m, seed)
                    assert np.array_equal(model.sample(m, seed).indices, expected)

    def test_negative_count_rejected(self):
        model = MixtureModel(SPACE4, PsneSet([0]), 0.5)
        with pytest.raises(InputError):
            model.sample(-1, 0)
        with pytest.raises(InputError):
            model.sample(1, -1)


class TestDrawArguments:
    """`sample` and `tally` read m and an int seed through `_integer`, and
    take a Generator as the seed, as numpy's `default_rng` does."""

    MODEL = MixtureModel(SPACE4, PsneSet([0]), 0.5)

    @pytest.mark.parametrize(
        "method, m, seed, message",
        [
            ("sample", 10, 2.5, "seed must be an integer, got 2.5"),
            ("sample", 2.5, 1, "sample count must be an integer, got 2.5"),
            ("tally", 10.0, 1, "sample count must be an integer, got 10.0"),
            ("sample", 10, True, "seed must be an integer, got True"),
            ("tally", 10, "1", "seed must be an integer, got '1'"),
            ("tally", 10, -1, "seed must be nonnegative, got -1"),
        ],
        ids=["float-seed", "float-m", "float-m-tally", "bool-seed", "str-seed", "negative-seed"],
    )
    def test_bad_types_are_input_errors(self, method, m, seed, message):
        with pytest.raises(InputError) as err:
            getattr(self.MODEL, method)(m, seed)
        assert str(err.value) == message

    def test_generator_seed_equals_its_int_seed(self):
        model = MixtureModel(ActionSpace((3, 2, 2)), PsneSet([1, 5, 7]), 0.6)
        for m in (0, 5, SAMPLE_BLOCK + 1):
            for s in (0, 7, 2**32 - 1, 2**64 + 3):
                tally = model.tally(m, np.random.default_rng(s))
                assert np.array_equal(tally, model.tally(m, s))
                assert model.sample(m, np.random.default_rng(s)) == model.sample(m, s)
        assert model.sample(5, np.int64(7)) == model.sample(5, 7)


class TestTally:
    # the block edges of TestSampling, with |A| both at most m and past it:
    # the 2**13-joint space crosses m between SAMPLE_BLOCK - 1 and
    # SAMPLE_BLOCK, the larger ones never do
    COUNTS = (0, SAMPLE_BLOCK - 1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1, 3 * SAMPLE_BLOCK + 7)

    def test_matches_histogram_of_sample(self):
        rng = np.random.default_rng(2025)
        for sizes in [(2, 2), (3, 2, 2), (4, 4, 5), (2,) * 13, (2,) * 16, (2,) * 20]:
            space = ActionSpace(sizes)
            size = space.joint_size
            extremes = [1, size - 1] if size <= 2**16 else [1, 2]
            for r in extremes + [int(v) for v in rng.integers(1, min(size, 40), 2)]:
                psne = PsneSet(rng.choice(size, size=r, replace=False))
                iv = mixture_interval(r, size)
                q = iv.lower + (iv.upper - iv.lower) * float(rng.uniform(0.05, 1.0))
                model = MixtureModel(space, psne, q)
                for m in self.COUNTS:
                    seed = int(rng.integers(2**32))
                    counts = model.tally(m, seed)
                    expected = np.bincount(model.sample(m, seed).indices, minlength=size)
                    assert counts.dtype == np.int64 and counts.shape == (size,)
                    assert np.array_equal(counts, expected)
                    oracle = masked_sample_indices(model, m, seed)
                    assert np.array_equal(counts, np.bincount(oracle, minlength=size))

    def test_bad_count_or_seed_raises_on_the_call(self):
        model = MixtureModel(SPACE4, PsneSet([0]), 0.5)
        for m, seed in ((-1, 0), (1, -1)):
            with pytest.raises(InputError):
                model.tally(m, seed)
            # the checks every draw shares raise before anything is drawn
            with pytest.raises(InputError):
                model._generator(m, seed)

    def test_joint_ceiling(self):
        space = ActionSpace((2,) * 25)  # 2**25 joint actions, past 2**24
        model = MixtureModel(space, PsneSet([0]), 0.5)
        message = r"^sample tally reached 33554432 joint actions, ceiling is 16777216$"
        with pytest.raises(CapacityError, match=message):
            model.tally(1, 0)
        assert model.sample(1, 0).m == 1  # a draw itself is not bounded there
        huge = MixtureModel(TestIndexCeiling.HUGE, PsneSet([0]), 0.5)
        with pytest.raises(CapacityError, match=TestIndexCeiling.MESSAGE):
            huge._generator(1, 0)
        with pytest.raises(CapacityError):
            huge.tally(1, 0)


class TestBlockDraw:
    """`_blocks` on a block of trials, each row drawn from its own seed,
    against the per-trial formula row by row; `_tallies` against its
    histogram."""

    # (m, rows): an empty draw, one chunk of several rows, and draws past
    # SAMPLE_BLOCK that stream, one row as the harnesses run them and two
    SHAPES = ((0, 3), (1, 5), (7, 4), (SAMPLE_BLOCK // 3, 3), (SAMPLE_BLOCK + 1, 1),
              (2 * SAMPLE_BLOCK + 5, 2))

    def test_rows_match_masked_formula(self):
        rng = np.random.default_rng(2026)
        for _ in range(10):
            model = random_model(rng)
            size, ne = model.space.joint_size, model.psne.indices
            r = ne.size
            table = np.concatenate([np.delete(np.arange(size), ne), ne])
            for m, rows in self.SHAPES:
                seeds = [int(s) for s in rng.integers(2**63, size=rows)]
                draws = np.full((rows, m), -1, dtype=np.int64)
                gens = [np.random.default_rng(s) for s in seeds]
                for lo, signal, rank in _blocks(gens, m, model.q, r, size):
                    assert signal.shape == rank.shape == (rows, min(m - lo, SAMPLE_BLOCK))
                    draws[:, lo : lo + rank.shape[1]] = table[rank + signal * (size - r)]
                tallies = model._tallies([np.random.default_rng(s) for s in seeds], m)
                assert tallies.shape == (rows, size)
                for row, tally, seed in zip(draws, tallies, seeds, strict=True):
                    expected = masked_sample_indices(model, m, seed)
                    assert np.array_equal(row, expected)
                    assert np.array_equal(tally, np.bincount(expected, minlength=size))


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


class TestIndexCeiling:
    """Joint indices are int64: a space past 2**63 joint actions is a
    capacity error wherever mixture forms them."""

    HUGE = ActionSpace((2, 99999999999999999999))
    MESSAGE = (
        r"^int64 indexing reached 199999999999999999998 joint actions, "
        r"ceiling is 9223372036854775808$"
    )

    def test_sample(self):
        model = MixtureModel(self.HUGE, PsneSet([0]), 0.5)
        with pytest.raises(CapacityError, match=self.MESSAGE):
            model.sample(1, 0)

    def test_dataset(self):
        with pytest.raises(CapacityError, match=self.MESSAGE):
            Dataset(self.HUGE, [0])
        with pytest.raises(CapacityError, match=self.MESSAGE):
            Dataset.from_actions(self.HUGE, [[1, 1]])

    def test_largest_space_within(self):
        space = ActionSpace((2,) * 63)
        top = 2**63 - 1
        data = MixtureModel(space, PsneSet([0, top]), 0.5).sample(1000, 3)
        assert 0 <= data.indices.min() and data.indices.max() <= top
        assert Dataset(space, [top]).actions_matrix().tolist() == [[2] * 63]


# every caller of the q rule, on |A| = 4: (error class, |NE|, call with q)
Q_CALLERS = {
    "MixtureModel": (InputError, 2, lambda q: MixtureModel(SPACE4, PsneSet([0, 3]), q)),
    "superset_recovery_margin": (InputError, 2, lambda q: superset_recovery_margin(2, q, 4)),
    "map_decoder": (InputError, 1, lambda q: map_decoder(Dataset(SPACE4, [0]), 1, q)),
    "run_recovery": (
        ConfigError,
        2,
        lambda q: run_recovery(
            ExperimentConfig(
                kind="recovery", n=2, k=1, q_star=q, m_schedule=(5,), trials=2,
                truth_psne=(0, 3),
            )
        ),
    ),
    "run_fano": (
        ConfigError,
        1,
        lambda q: run_fano(
            ExperimentConfig(kind="fano", n=2, k=1, m_schedule=(0,), trials=1, fano_q=q)
        ),
    ),
}


@pytest.mark.parametrize("caller", sorted(Q_CALLERS))
@pytest.mark.parametrize("where", ["open-lower-end", "above-upper-end", "nan"])
def test_q_rule_at_each_caller(caller, where):
    error, r, call = Q_CALLERS[caller]
    iv = mixture_interval(r, 4)
    q = {"open-lower-end": iv.lower, "above-upper-end": 0.9, "nan": math.nan}[where]
    with pytest.raises(InputError) as one:
        iv.admit(q)
    with pytest.raises(error) as got:
        call(q)
    assert type(got.value) is error
    assert str(got.value) == str(one.value)


# every entry point of the joint-index rule on |A| = 6; an action-based one
# gets the value as player 2's action
INDEX_ENTRY_POINTS = {
    "encode_joint_action": lambda space, v: encode_joint_action(space, (1, v)),
    "decode_joint_action": decode_joint_action,
    "Dataset": lambda space, v: Dataset(space, [v]),
    "Dataset.from_actions": lambda space, v: Dataset.from_actions(space, [[1, v]]),
    "pmf": lambda space, v: MixtureModel(space, PsneSet([0]), 0.5).pmf(v),
    "scaled_nll": lambda space, v: MixtureModel(space, PsneSet([0]), 0.5).scaled_nll(v),
}


@pytest.mark.parametrize("entry", sorted(INDEX_ENTRY_POINTS))
@pytest.mark.parametrize(
    "value", [-1, 6, 10**30, 1.5], ids=["negative", "joint-size", "past-int64", "non-integer"]
)
def test_index_rule_at_every_entry_point(entry, value):
    with pytest.raises(InputError):
        INDEX_ENTRY_POINTS[entry](ActionSpace((2, 3)), value)


def test_ragged_indices_are_an_input_error():
    # numpy cannot stack them; the first nested value is named as a non-integer
    with pytest.raises(InputError, match=r"^joint index must be an integer, got \[2\]$"):
        Dataset(ActionSpace((2, 3)), [1, [2]])
