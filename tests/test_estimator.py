import functools
import gc
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from psne_learn import (
    ActionSpace,
    CapacityError,
    Dataset,
    FitResult,
    InputError,
    MixtureModel,
    PolymatrixGame,
    PsneSet,
    count_grid_games,
    enumerate_psne,
    enumerate_psne_sets,
    expected_nll,
    fit_mle,
    optimal_q,
    population_mle,
)
from psne_learn import estimator
from psne_learn.estimator import CandidateFamily, fit_counts
from helpers import (
    all_subsets_family,
    direct_player_regions,
    enumerate_grid_games,
    explicit_family,
    games_psne_sets,
    matmul_fit_counts,
    matmul_in_set,
    matmul_population_mle,
    member_matrix,
    packed_psne_sets,
)

GRID3 = (-1.0, 0.0, 1.0)
SPACE4 = ActionSpace((2, 2))
# widths past one 64-bit word and not a multiple of 8
WIDE_CASES = [
    (4, 0, (3, 3, 3, 3)),  # |A| = 81
    (7, 0, (2,) * 7),  # |A| = 128
    (3, 0, (4, 4, 5)),  # |A| = 80
    (3, 1, (3, 2, 2)),  # |A| = 12
]
# every (n, k, sizes, grid) family the suite, the demos and the small
# benchmark specs build, the empty (0.0,)-grid family aside
BUILT_FAMILIES = [
    (2, 0, (2, 2), GRID3),
    (2, 1, (2, 2), GRID3),
    (2, 1, (2, 2), (0.0, 1.0)),
    (2, 1, (2, 3), (0.0, 1.0)),
    (3, 0, (2, 2, 2), GRID3),
    (3, 1, (2, 2, 2), (0.0, 1.0)),
    (3, 1, (2, 2, 2), GRID3),
    (3, 2, (2, 2, 2), (0.0, 1.0)),
    (3, 2, (2, 2, 2), GRID3),
    (3, 2, (3, 2, 2), GRID3),
    *((n, k, sizes, GRID3) for n, k, sizes in WIDE_CASES),
    (4, 3, (2, 2, 2, 2), GRID3),
]
# (12-action space) repeated sets, in either index order, and shuffled
SHUFFLED_SETS = [
    [5, 1], [1, 5], [0], [11], [2, 3, 4], [0], [4, 3, 2], [7, 8], [1, 2],
    [0, 11], [6], [10, 0, 11], [3, 9],
]

# (2**21-action space) indices whose low bytes order them differently
WIDE_SPACE_SETS = [
    [256], [1], [2, 256], [2, 1], [2**20 + 1, 5], [511, 1], [257], [2**20],
    [1, 2**21 - 1], [255, 256, 1],
]
# (12-action space) repeated sets, their indices repeated and in any order
REPEATED_SETS = [[4, 4, 1], [1, 4], [4, 1, 1, 4], [9], [9, 9], [3, 2, 3, 0], [0, 2, 3]]


@functools.cache
def built_family(n, k, sizes, grid):
    return enumerate_psne_sets(n, k, sizes, grid)


def shuffled_family():
    sets = list(SHUFFLED_SETS)
    np.random.default_rng(18).shuffle(sets)
    return explicit_family((3, 4), sets)


def _criterion_5_family(seed):
    """A random explicit family shaped like acceptance criterion 5's."""
    rng = np.random.default_rng(seed)
    sizes = tuple(int(s) for s in rng.integers(2, 5, size=3))
    size = math.prod(sizes)
    sets = [
        rng.choice(size, size=int(rng.integers(1, size)), replace=False).tolist()
        for _ in range(120)
    ]
    return explicit_family(sizes, sets)


# every family the suite declares explicitly, plus two like criterion 5's
EXPLICIT_FAMILIES = {
    "dedupe": lambda: explicit_family((2, 2), [[3, 0], [0, 3], [1]]),
    "order": lambda: explicit_family(
        (2, 2), [[0], [1], [2], [3], [0, 3], [1, 2], [0, 1, 2]]
    ),
    "subsets-1": lambda: all_subsets_family((2, 2), 1),
    "subsets-2": lambda: all_subsets_family((2, 2), 2),
    "shuffled": shuffled_family,
    "criterion-5-a": lambda: _criterion_5_family(50),
    "criterion-5-b": lambda: _criterion_5_family(51),
}


class TestGridGameStream:
    def test_count_matches_stream_length(self):
        for n, k, sizes, grid in [
            (2, 0, (2, 2), GRID3),
            (2, 1, (2, 2), GRID3),
            (2, 1, (2, 3), (0.0, 1.0)),
            (3, 1, (2, 2, 2), (0.0, 1.0)),
        ]:
            games = list(enumerate_grid_games(n, k, sizes, grid))
            assert len(games) == count_grid_games(n, k, sizes, grid)

    def test_unary_only_count(self):
        # per player: 3 normalized unary assignments, no parents allowed
        assert count_grid_games(2, 0, (2, 2), GRID3) == 9

    def test_stream_is_normalized(self):
        for game in enumerate_grid_games(2, 1, (2, 3), (0.0, 1.0)):
            for i in (1, 2):
                assert game.unary_table(i)[0] == 0.0
                for j in game.neighbors(i):
                    table = game.pairwise_table(i, j)
                    assert np.all(table[0, :] == 0.0)
                    assert np.any(table != 0.0)

    def test_stream_contains_normalized_coordination_game(self):
        # match-the-opponent payoffs, shifted so the first row is zero
        target = PolymatrixGame(
            (2, 2),
            neighbors={1: [2], 2: [1]},
            pairwise={(1, 2): [[0, 0], [-1, 1]], (2, 1): [[0, 0], [-1, 1]]},
        )
        assert any(g == target for g in enumerate_grid_games(2, 1, (2, 2), GRID3))

    def test_singleton_grid_yields_single_game(self):
        games = list(enumerate_grid_games(2, 1, (2, 2), (0.0,)))
        assert len(games) == 1
        assert games[0].neighbors(1) == () and games[0].neighbors(2) == ()

    def test_capacity_error_reports_estimate(self):
        with pytest.raises(CapacityError, match=str(count_grid_games(2, 1, (2, 2)))):
            list(enumerate_grid_games(2, 1, (2, 2), ceiling=10))

    @pytest.mark.parametrize(
        "grid, shown",
        [(("x",), "'x'"), (("1", True), "'1'"), ((0.0, True), "True"), ((None,), "None")],
    )
    def test_grid_values_must_be_real_numbers(self, grid, shown):
        # the rule and message ExperimentConfig reads its grid with
        message = f"^grid value must be a real number, got {re.escape(shown)}$"
        for build in (enumerate_psne_sets, count_grid_games):
            with pytest.raises(InputError, match=message):
                build(2, 1, (2, 2), grid)
        assert count_grid_games(2, 1, (2, 2), (np.float64(-1), 0, 1)) == count_grid_games(
            2, 1, (2, 2), GRID3
        )

    @pytest.mark.parametrize(
        "build, n, k, sizes, message",
        [
            (enumerate_psne_sets, 3, 1.0, (), "k must be an integer, got 1.0"),
            (enumerate_psne_sets, 3.0, 1, (2, 2, 2), "n must be an integer, got 3.0"),
            (enumerate_psne_sets, 3.0, 1, (), "n must be an integer, got 3.0"),
            (count_grid_games, 3, 1.0, (2, 2, 2), "k must be an integer, got 1.0"),
            (enumerate_psne_sets, 3, True, (), "k must be an integer, got True"),
        ],
        ids=["float-k", "float-n", "float-n-default-sizes", "count-float-k", "bool-k"],
    )
    def test_n_and_k_must_be_integers(self, build, n, k, sizes, message):
        # the rule every other entry point reads n and k with
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            build(n, k, sizes)

    def test_integer_grid_value_past_float_range_is_not_finite(self):
        # the message `--grid 1e400` gets, not an OverflowError
        for build in (enumerate_psne_sets, count_grid_games):
            with pytest.raises(InputError, match="^grid values must be finite$"):
                build(2, 1, (2, 2), (0, 10**400))

    @pytest.mark.parametrize("sizes", [(0, 2), (1, 2)])
    def test_count_rejects_action_counts_below_two(self, sizes):
        # the same rule ActionSpace applies
        with pytest.raises(InputError, match="every action count must be >= 2"):
            count_grid_games(2, 1, sizes)


class TestFamilyEnumeration:
    def test_methods_agree(self):
        cases = [
            (2, 0, (2, 2), GRID3),
            (2, 1, (2, 2), GRID3),
            (2, 1, (2, 3), (0.0, 1.0)),
            (3, 1, (2, 2, 2), (0.0, 1.0)),
            (3, 2, (2, 2, 2), (0.0, 1.0)),
        ]
        for n, k, sizes, grid in cases:
            by_regions = enumerate_psne_sets(n, k, sizes, grid)
            by_games = games_psne_sets(n, k, sizes, grid)
            assert [tuple(c) for c in by_regions] == [tuple(c) for c in by_games]

    @pytest.mark.parametrize("n, k, sizes", WIDE_CASES)
    def test_matches_packed_row_oracle(self, n, k, sizes):
        by_masks = built_family(n, k, sizes, GRID3)
        by_rows = packed_psne_sets(n, k, sizes, GRID3)
        assert len(by_masks) > 0
        assert [tuple(c) for c in by_masks] == [tuple(c) for c in by_rows]

    def test_partial_ceiling_names_round_count_and_ceiling(self, monkeypatch):
        monkeypatch.setattr(estimator, "PARTIAL_SET_CEILING", 100)
        with pytest.raises(CapacityError) as err:
            enumerate_psne_sets(3, 2, (2, 2, 2))
        found = re.fullmatch(
            r"player (\d) round reached (\d+) partial PSNE sets, ceiling is 100",
            str(err.value),
        )
        assert found, str(err.value)
        # rounds 1 and 2 end at 51 and 212 sets, so round 2 trips it
        assert int(found.group(1)) == 2
        assert int(found.group(2)) > 100

    def test_singleton_grid_empty_family(self):
        assert len(enumerate_psne_sets(2, 1, (2, 2), (0.0,))) == 0

    def test_family_grows_with_grid(self):
        small = {tuple(c) for c in enumerate_psne_sets(2, 1, (2, 2), (0.0, 1.0))}
        large = {tuple(c) for c in enumerate_psne_sets(2, 1, (2, 2), GRID3)}
        assert small <= large

    def test_candidates_valid_and_sorted(self):
        # the canonical order read back set by set, not through any oracle
        # that shares the family constructor
        families = [
            built_family(3, 1, (2, 2, 2), (0.0, 1.0)),
            *(built_family(n, k, sizes, GRID3) for n, k, sizes in WIDE_CASES),
            built_family(4, 3, (2, 2, 2, 2), GRID3),
            shuffled_family(),
            # indices past one byte, which a bytewise row sort misorders
            CandidateFamily(ActionSpace((2**20, 2)), WIDE_SPACE_SETS, "explicit list"),
            # repeats in either index order and with repeated indices
            CandidateFamily(ActionSpace((3, 4)), REPEATED_SETS, "explicit list"),
            # one size only
            CandidateFamily(ActionSpace((3, 4)), [[7, 2], [0, 11], [2, 3], [1, 0]], "one size"),
        ]
        for family in families:
            keys = [(len(c), tuple(c)) for c in family]
            assert keys == sorted(keys)
            assert len(keys) == len(set(keys))
            assert all(1 <= len(c) < family.space.joint_size for c in family)
            assert family.sizes.tolist() == [len(c) for c in family]
        for family, sets in zip(families[-4:-1], [SHUFFLED_SETS, WIDE_SPACE_SETS, REPEATED_SETS]):
            distinct = {tuple(sorted(set(s))) for s in sets}
            expected = sorted(distinct, key=lambda t: (len(t), t))
            assert [tuple(c) for c in family] == expected

    @pytest.mark.parametrize("n, k, sizes", [(3, 1, (3, 2, 2)), (7, 0, (2,) * 7)])
    def test_from_masks_ignores_mask_order(self, n, k, sizes):
        family = built_family(n, k, sizes, GRID3)
        masks = [sum(1 << x for x in c) for c in family]
        np.random.default_rng(25).shuffle(masks)
        again = CandidateFamily._from_masks(family.space, masks, family.provenance)
        assert np.array_equal(again.indices, family.indices)
        assert np.array_equal(again.offsets, family.offsets)

    def test_joint_ceiling(self):
        # judged before any space is formed: the product of the first 17
        # sizes already passes 2**16
        with pytest.raises(
            CapacityError,
            match=r"^family joint space reached 131072 joint actions, ceiling is 65536$",
        ):
            enumerate_psne_sets(17, 1, (2,) * 17)

    def test_joint_ceiling_past_str_range(self):
        # a count too long for str() is named by its bit length
        bits = (2 * 10**5000).bit_length()
        with pytest.raises(
            CapacityError,
            match=rf"^family joint space reached a {bits}-bit count of joint actions, ",
        ):
            enumerate_psne_sets(2, 1, (2, 10**5000))

    def test_family_holds_no_per_candidate_frozenset(self):
        gc.collect()
        tracemalloc.start()
        try:
            family = enumerate_psne_sets(3, 2, (3, 2, 2))
            gc.collect()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # measured per candidate: about 740 B with an eager frozenset in
        # every PsneSet, about 150 B with the lazy one
        assert held / len(family) < 300


def _regions(build, n, k, sizes, grid):
    space = ActionSpace(sizes)
    return [build(n, k, sizes, grid, i, space) for i in range(1, n + 1)]


@functools.cache
def _direct_regions(n, k, sizes, grid):
    return _regions(direct_player_regions, n, k, sizes, grid)


class TestPlayerRegions:
    """The batched region build against one best-response call per
    structure, player by player."""

    @pytest.mark.parametrize(
        "n, k, sizes, grid",
        [
            (4, 3, (2, 2, 2, 2), GRID3),
            (3, 2, (3, 2, 2), GRID3),
            (3, 1, (3, 3, 3), GRID3),
            (3, 2, (2, 3, 2), GRID3),
            (2, 1, (3, 4), GRID3),  # 531,441 structures for player 2
            (5, 1, (2,) * 5, GRID3),
            (3, 0, (3, 2, 4), GRID3),
            (3, 2, (3, 2, 2), (0.0,)),
            (3, 2, (3, 2, 2), (0.0, 1.0)),
            (4, 1, (2, 3, 2, 2), (0.0, 1.0)),
        ],
    )
    def test_matches_direct_build(self, n, k, sizes, grid):
        batched = _regions(estimator._player_regions, n, k, sizes, grid)
        assert batched == _direct_regions(n, k, sizes, grid)

    @pytest.mark.parametrize(
        "budget, n, k, sizes",
        [
            (1, 4, 3, (2, 2, 2, 2)),  # one structure per chunk
            # player 1's 57,600 two-parent structures in chunks of 41, and
            # every other parent set also ends in a short chunk
            (1000, 3, 2, (3, 2, 2)),
        ],
    )
    def test_chunking_matches_direct_build(self, monkeypatch, budget, n, k, sizes):
        monkeypatch.setattr(estimator, "REGION_CHUNK_ELEMENTS", budget)
        batched = _regions(estimator._player_regions, n, k, sizes, GRID3)
        assert batched == _direct_regions(n, k, sizes, GRID3)


class TestFamilyFactories:
    def test_all_subsets_singletons(self):
        family = all_subsets_family((2, 2), 1)
        assert [tuple(c) for c in family] == [(0,), (1,), (2,), (3,)]
        assert family.provenance == "all-subsets(max_size=1)"

    def test_explicit_family_dedupes(self):
        family = explicit_family((2, 2), [[3, 0], [0, 3], [1]])
        assert [tuple(c) for c in family] == [(1,), (0, 3)]

    def test_explicit_family_rejects_full_set(self):
        # and, through the same check, an empty set or an index past |A|
        for bad in ([0, 1, 2, 3], [], [4]):
            with pytest.raises(InputError):
                explicit_family((2, 2), [bad])

    @pytest.mark.parametrize(
        "sets, message",
        [
            ([[0], [1, 5], [0, 1, 2]], "joint indices 0..5 reach past 0..3"),
            ([[0], [1, 2], [0, 1, 2, 3]], "PSNE size 4 must lie in 1..3"),
            ([[0, 1], [], [2]], "PSNE size 0 must lie in 1..3"),
            ([[0, 2**70]], "reach past int64"),
            ([[1, -1]], "joint-action indices must be nonnegative"),
        ],
        ids=["index-past-A", "full", "empty", "past-int64", "negative"],
    )
    def test_one_bad_set_among_good_ones(self, sets, message):
        with pytest.raises(InputError, match=re.escape(message)):
            CandidateFamily(ActionSpace((2, 2)), sets, "explicit list")

    def test_explicit_sets_may_be_any_iterables(self):
        sets = [(3, 0), np.array([0, 3]), range(1, 2), PsneSet([2])]
        family = CandidateFamily(ActionSpace((2, 2)), iter(sets), "explicit list")
        assert [tuple(c) for c in family] == [(1,), (2,), (0, 3)]


class TestOptimalQ:
    def test_interior_stationary_point(self):
        data = Dataset(SPACE4, [0] * 7 + [1] * 3)
        q, clamped = optimal_q(PsneSet([0]), data)
        assert (q, clamped) == (0.7, False)

    def test_lower_clamp(self):
        data = Dataset(SPACE4, [0] + [1] * 9)
        q, clamped = optimal_q(PsneSet([0]), data)
        assert clamped is True
        assert q == pytest.approx(0.25 + 1e-9, abs=1e-15)

    def test_upper_clamp(self):
        data = Dataset(SPACE4, [0] * 10)
        q, clamped = optimal_q(PsneSet([0]), data)
        assert (q, clamped) == (0.875, True)

    @pytest.mark.parametrize(
        "psne", [[], [0, 1, 2, 3], [0, 9]], ids=["empty", "full", "past-space"]
    )
    def test_rejects_invalid_set(self, psne):
        # these once gave (1e-09, True), (0.875, True) and (0.500000001, True)
        with pytest.raises(InputError):
            optimal_q(PsneSet(psne), Dataset(SPACE4, [1] * 10))

    def test_matches_grid_search(self):
        rng = np.random.default_rng(20)
        scale = math.log(2.0) + 2.0 * math.log(4.0)
        for _ in range(100):
            s = int(rng.integers(0, 21))
            data = Dataset(SPACE4, [0] * s + [1] * (20 - s))
            psne = PsneSet([0])
            q_hat, _ = optimal_q(psne, data)
            lo, up = 0.25 + 1e-9, 0.875
            grid = np.linspace(lo, up, 10_000)
            objective = (
                s * (np.log(1.0) - np.log(grid))
                + (20 - s) * (np.log(3.0) - np.log1p(-grid))
            ) / (20 * scale)
            best = grid[int(np.argmin(objective))]
            assert abs(q_hat - best) <= (up - lo) / 9_999 + 1e-12


class TestFitMle:
    def test_constant_dataset_prefers_singleton_at_upper_clamp(self):
        family = all_subsets_family((2, 2), 1)
        data = Dataset(SPACE4, [2] * 25)
        fit = fit_mle(family, data)
        assert fit.psne == PsneSet([2])
        assert fit.q_hat == 0.875
        assert fit.clamped is True

    def test_objective_no_worse_than_truth_candidate(self):
        family = enumerate_psne_sets(2, 1, (2, 2), GRID3)
        truth = MixtureModel(SPACE4, PsneSet([0, 3]), 0.8)
        data = truth.sample(2000, 31)
        fit = fit_mle(family, data)
        q_truth, _ = optimal_q(truth.psne, data)
        truth_obj = MixtureModel(SPACE4, truth.psne, q_truth).empirical_nll(data)
        assert fit.objective <= truth_obj + 1e-15

    def test_objective_only_depends_on_psne_set(self):
        # two different games, same equilibria: identical fit objectives
        anti = PolymatrixGame(
            (2, 2),
            neighbors={1: [2], 2: [1]},
            pairwise={(1, 2): [[0, 0], [-1, 1]], (2, 1): [[0, 0], [-1, 1]]},
        )
        scaled = PolymatrixGame(
            (2, 2),
            neighbors={1: [2], 2: [1]},
            pairwise={(1, 2): [[1, 0], [0, 1]], (2, 1): [[2, 0], [0, 2]]},
        )
        ne_a, ne_b = enumerate_psne(anti), enumerate_psne(scaled)
        assert ne_a == ne_b
        data = Dataset(SPACE4, [0, 0, 3, 1, 0, 3])
        for q in (0.6, 0.7, 0.875):
            nll_a = MixtureModel(SPACE4, ne_a, q).empirical_nll(data)
            nll_b = MixtureModel(SPACE4, ne_b, q).empirical_nll(data)
            assert nll_a == nll_b

    def test_sufficient_statistic_equals_per_sample_average(self):
        rng = np.random.default_rng(21)
        family = enumerate_psne_sets(2, 1, (2, 2), GRID3)
        truth = MixtureModel(SPACE4, PsneSet([1]), 0.6)
        data = truth.sample(333, 17)
        fit = fit_mle(family, data)
        model = MixtureModel(SPACE4, fit.psne, fit.q_hat)
        naive = float(np.mean(model.scaled_nll(data.indices)))
        assert fit.objective == pytest.approx(naive, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(22)
        family = enumerate_psne_sets(2, 1, (2, 2), GRID3)
        truth = MixtureModel(SPACE4, PsneSet([0, 3]), 0.8)
        data = truth.sample(500, 3)
        shuffled = Dataset(SPACE4, rng.permutation(data.indices))
        assert fit_mle(family, data) == fit_mle(family, shuffled)

    def test_empty_inputs_rejected(self):
        family = all_subsets_family((2, 2), 1)
        with pytest.raises(InputError):
            fit_mle(family, Dataset(SPACE4, []))
        with pytest.raises(InputError):
            fit_mle(explicit_family((2, 2), []), Dataset(SPACE4, [0]))


class TestPopulationMle:
    def test_recovers_truth_exactly(self):
        rng = np.random.default_rng(23)
        family = enumerate_psne_sets(3, 1, (2, 2, 2), (0.0, 1.0))
        for cand in (family.candidates[0], family.candidates[7]):
            lo = len(cand) / 8
            q_star = lo + (1 - 1 / 16 - lo) * 0.6
            truth = MixtureModel(family.space, cand, q_star)
            fit = population_mle(family, truth)
            assert fit.psne == cand
            assert fit.q_hat == q_star
            assert fit.clamped is False

    def test_singleton_family_singleton_truth(self):
        family = all_subsets_family((2, 2), 1)
        truth = MixtureModel(SPACE4, PsneSet([2]), 0.5)
        fit = population_mle(family, truth)
        assert fit.psne == PsneSet([2])
        assert fit.q_hat == 0.5

    def test_invariant_to_family_order(self):
        rng = np.random.default_rng(24)
        sets = [[0], [1], [2], [3], [0, 3], [1, 2], [0, 1, 2]]
        truth = MixtureModel(SPACE4, PsneSet([0, 3]), 0.8)
        results = []
        for _ in range(5):
            rng.shuffle(sets)
            results.append(population_mle(explicit_family((2, 2), sets), truth))
        assert all(r == results[0] for r in results)

    def test_objective_matches_expected_nll(self):
        family = all_subsets_family((2, 2), 2)
        truth = MixtureModel(SPACE4, PsneSet([1]), 0.6)
        fit = population_mle(family, truth)
        model = MixtureModel(SPACE4, fit.psne, fit.q_hat)
        assert fit.objective == pytest.approx(expected_nll(model, truth), abs=1e-15)


class TestDistinguishability:
    def test_expected_nll_separates_unless_masses_match(self):
        # candidates tie exactly when they share size and overlap with the
        # truth; otherwise the population objective separates them
        space = ActionSpace((2, 2, 2))
        truth = MixtureModel(space, PsneSet([0, 1]), 0.6)
        q = 0.55
        by_class = {}
        for r in range(1, 5):
            for combo in itertools.combinations(range(8), r):
                model = MixtureModel(space, PsneSet(combo), q)
                key = (r, len(set(combo) & {0, 1}))
                by_class.setdefault(key, set()).add(expected_nll(model, truth))
        assert all(len(v) == 1 for v in by_class.values())
        distinct = [next(iter(v)) for v in by_class.values()]
        assert len(set(distinct)) == len(distinct)


def _case_id(case):
    if isinstance(case, str):
        return case
    n, k, sizes, grid = case
    return f"{n}-{k}-{'x'.join(map(str, sizes))}-grid{len(grid)}"


ORACLE_CASES = [*BUILT_FAMILIES, *EXPLICIT_FAMILIES]


@pytest.mark.parametrize("case", BUILT_FAMILIES, ids=_case_id)
def test_sets_are_views_equal_to_rebuilt_sets(case):
    family = built_family(*case)
    for psne in family:
        assert np.shares_memory(psne.indices, family.indices)
        assert not psne.indices.flags.writeable
    ends = family.offsets.tolist()
    rebuilt = [PsneSet(family.indices[a:b].tolist()) for a, b in itertools.pairwise(ends)]
    assert family.candidates == tuple(rebuilt)
    assert [list(c) for c in family.candidates] == [list(c) for c in rebuilt]
    assert rebuilt[0] in family and rebuilt[-1] in family
    assert PsneSet([family.space.joint_size]) not in family


class TestFitOracle:
    """`fit_counts` and `population_mle` against the in-set counts of one
    int64 product with the |A|-wide membership matrix, over every family
    the suite builds or declares, on seeded histograms and truths."""

    @pytest.mark.parametrize("case", ORACLE_CASES, ids=_case_id)
    def test_fits_equal_matmul_oracle(self, case):
        if isinstance(case, str):
            family = EXPLICIT_FAMILIES[case]()
        else:
            family = built_family(*case)
        members = member_matrix(family)
        size = family.space.joint_size
        rng = np.random.default_rng(1800 + len(family))
        sparse = np.zeros(size, dtype=np.int64)
        picks = rng.choice(size, size=min(5, size), replace=False)
        sparse[picks] = rng.integers(1, 1000, size=len(picks))
        hists = [
            rng.integers(0, 40, size),
            sparse,
            np.eye(1, size, int(rng.integers(size)), dtype=np.int64)[0],
            # in-set counts past 2**53, where a float sum would round
            rng.integers(0, 2**56 // size, size),
        ]
        for hist in hists:
            inside = estimator._in_set(family, hist[family.indices])
            assert np.array_equal(inside, matmul_in_set(members, hist))
            assert fit_counts(family, hist) == matmul_fit_counts(family, members, hist)
        r = int(rng.integers(1, size))
        outsider = PsneSet(rng.choice(size, size=r, replace=False))
        for psne in (family[0], family[-1], family[len(family) // 2], outsider):
            lo, up = len(psne) / size, 1.0 - 1.0 / (2.0 * size)
            truth = MixtureModel(family.space, psne, lo + 0.6 * (up - lo))
            assert population_mle(family, truth) == matmul_population_mle(
                family, members, truth
            )

    @pytest.mark.parametrize("case", ORACLE_CASES, ids=_case_id)
    def test_block_scan_equals_one_row_fits(self, case):
        family = EXPLICIT_FAMILIES[case]() if isinstance(case, str) else built_family(*case)
        size = family.space.joint_size
        rng = np.random.default_rng(2600 + len(family))
        hists = np.stack(
            [
                rng.integers(0, 40, size),
                # every set's in-set count is its size, so sets of one size
                # tie exactly and the first of them wins
                np.ones(size, dtype=np.int64),
                # all mass on one index: every candidate's q is clamped
                np.eye(1, size, int(rng.integers(size)), dtype=np.int64)[0],
                rng.integers(0, 2**56 // size, size),
                rng.integers(0, 3, size) * (rng.random(size) < 0.2),
            ]
        )
        hists[-1, 0] += 1  # no empty row
        best, q_hat, objective, clamped = estimator._fit_rows(family, hists)
        for t, hist in enumerate(hists):
            fit = FitResult(
                family[int(best[t])], float(q_hat[t]), float(objective[t]), bool(clamped[t])
            )
            assert fit == fit_counts(family, hist)
        assert best[1] == np.searchsorted(family.sizes, family.sizes[best[1]])
        assert clamped[2]
