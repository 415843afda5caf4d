import itertools
import math
import re

import numpy as np
import pytest

from psne_learn import (
    ActionSpace,
    CapacityError,
    Dataset,
    InputError,
    MixtureModel,
    PolymatrixGame,
    PsneSet,
    all_subsets_family,
    count_grid_games,
    enumerate_grid_games,
    enumerate_psne,
    enumerate_psne_sets,
    expected_nll,
    explicit_family,
    fit_mle,
    optimal_q,
    population_mle,
)
from psne_learn import estimator
from helpers import games_psne_sets, packed_psne_sets

GRID3 = (-1.0, 0.0, 1.0)
SPACE4 = ActionSpace((2, 2))


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
            assert [c.indices for c in by_regions] == [c.indices for c in by_games]

    @pytest.mark.parametrize(
        "n, k, sizes",
        [
            (4, 0, (3, 3, 3, 3)),  # |A| = 81
            (7, 0, (2,) * 7),  # |A| = 128
            (3, 0, (4, 4, 5)),  # |A| = 80
            (3, 1, (3, 2, 2)),  # |A| = 12
        ],
    )
    def test_matches_packed_row_oracle(self, n, k, sizes):
        # widths past one 64-bit word and not a multiple of 8
        by_masks = enumerate_psne_sets(n, k, sizes, GRID3)
        by_rows = packed_psne_sets(n, k, sizes, GRID3)
        assert len(by_masks) > 0
        assert [c.indices for c in by_masks] == [c.indices for c in by_rows]

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
        small = {c.indices for c in enumerate_psne_sets(2, 1, (2, 2), (0.0, 1.0))}
        large = {c.indices for c in enumerate_psne_sets(2, 1, (2, 2), GRID3)}
        assert small <= large

    def test_candidates_valid_and_sorted(self):
        family = enumerate_psne_sets(3, 1, (2, 2, 2), (0.0, 1.0))
        keys = [(len(c), c.indices) for c in family]
        assert keys == sorted(keys)
        assert all(1 <= len(c) <= 7 for c in family)
        assert len(keys) == len(set(keys))

    def test_joint_ceiling(self):
        with pytest.raises(CapacityError):
            enumerate_psne_sets(5, 1, (4, 4, 4, 4, 4), joint_ceiling=512)


class TestFamilyFactories:
    def test_all_subsets_singletons(self):
        family = all_subsets_family((2, 2), 1)
        assert [c.indices for c in family] == [(0,), (1,), (2,), (3,)]
        assert family.provenance == "all-subsets(max_size=1)"

    def test_all_subsets_capacity(self):
        with pytest.raises(CapacityError):
            all_subsets_family((2,) * 8, 4, ceiling=1000)

    def test_explicit_family_dedupes(self):
        family = explicit_family((2, 2), [[3, 0], [0, 3], [1]])
        assert [c.indices for c in family] == [(1,), (0, 3)]

    def test_explicit_family_rejects_full_set(self):
        # and, through the same check, an empty set or an index past |A|
        for bad in ([0, 1, 2, 3], [], [4]):
            with pytest.raises(InputError):
                explicit_family((2, 2), [bad])


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
