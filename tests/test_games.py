import itertools
import re

import numpy as np
import pytest

from psne_learn import (
    ActionSpace,
    CapacityError,
    InputError,
    LinearPsneForm,
    PolymatrixGame,
    PsneSet,
    decode_joint_action,
    embed_binary_weight_game,
    encode_joint_action,
    enumerate_psne,
    influence_game,
)
from helpers import (
    all_joint_actions,
    brute_is_psne,
    random_grid_game,
    spin_psne_set,
    sweep_psne_set,
    two_walk_features,
    two_walk_phi,
)


def random_integer_game(rng):
    """2-4 players of 2-3 actions, random parents and unnormalized integer
    potentials in -3..3."""
    n = int(rng.integers(2, 5))
    sizes = [int(s) for s in rng.integers(2, 4, size=n)]
    neighbors = {
        i: [j for j in range(1, n + 1) if j != i and rng.random() < 0.6]
        for i in range(1, n + 1)
    }
    unary = {i: rng.integers(-3, 4, size=sizes[i - 1]) for i in neighbors}
    pairwise = {
        (i, j): rng.integers(-3, 4, size=(sizes[i - 1], sizes[j - 1]))
        for i, parents in neighbors.items()
        for j in parents
    }
    return PolymatrixGame(sizes, neighbors=neighbors, unary=unary, pairwise=pairwise)


def coordination_game():
    match = [[1.0, 0.0], [0.0, 1.0]]
    return PolymatrixGame(
        [2, 2],
        neighbors={1: [2], 2: [1]},
        pairwise={(1, 2): match, (2, 1): match},
    )


class TestEncoding:
    def test_examples(self):
        binary3 = ActionSpace((2, 2, 2))
        assert encode_joint_action(binary3, (1, 1, 1)) == 0
        assert encode_joint_action(binary3, (2, 2, 2)) == 7
        assert encode_joint_action(ActionSpace((2, 3)), (2, 1)) == 3

    def test_bijection_exhaustive(self):
        for sizes in [(2, 2), (2, 3), (3, 2, 2), (4,)]:
            space = ActionSpace(sizes)
            seen = set()
            for x in all_joint_actions(sizes):
                idx = encode_joint_action(space, x)
                assert decode_joint_action(space, idx) == x
                seen.add(idx)
            assert seen == set(range(space.joint_size))

    def test_range_errors(self):
        space = ActionSpace((2, 3))
        with pytest.raises(InputError):
            encode_joint_action(space, (1, 4))
        with pytest.raises(InputError):
            encode_joint_action(space, (0, 1))
        with pytest.raises(InputError):
            decode_joint_action(space, 6)
        with pytest.raises(InputError):
            ActionSpace((2, 1))


BAD_JOINTS = [(1,), (0, 1), (1, 4)]  # wrong length, action 0, action |A_2| + 1
JOINT_CHECKERS = {
    "encode": lambda game, x: encode_joint_action(game.space, x),
    "is_psne": lambda game, x: game.is_psne(x),
    "payoff": lambda game, x: game.payoff(1, x),
    "features": lambda game, x: LinearPsneForm.from_game(game).features(1, x),
}


@pytest.mark.parametrize("checker", sorted(JOINT_CHECKERS))
@pytest.mark.parametrize("x", BAD_JOINTS)
def test_joint_action_checked_everywhere(checker, x):
    game = PolymatrixGame([2, 3], neighbors={1: [2]})
    with pytest.raises(InputError):
        JOINT_CHECKERS[checker](game, x)


@pytest.mark.parametrize(
    "build",
    [
        lambda: PsneSet([0.5]),
        lambda: PsneSet([True]),
        lambda: PsneSet([np.float64(2.0)]),
        lambda: ActionSpace("22"),
        lambda: ActionSpace((2.0, 2)),
        lambda: ActionSpace((True, 2)),
        lambda: PolymatrixGame([2, 2], neighbors={1: [2.9]}),
    ],
    ids=[
        "psne-half", "psne-bool", "psne-float",
        "space-text", "space-float", "space-bool", "game-neighbor",
    ],
)
def test_non_integers_rejected_not_truncated(build):
    with pytest.raises(InputError, match="must be an integer"):
        build()


class TestPsneSet:
    @pytest.mark.parametrize(
        "indices",
        [
            [5, 1, 3, 1],
            (1, 3, 5),
            range(1, 6, 2),
            np.array([5, 3, 1], dtype=np.int64),
            (i for i in (3, 5, 1)),
            PsneSet([1, 3, 5]),
        ],
        ids=["list-with-duplicates", "tuple", "range", "int64-array", "generator", "psne-set"],
    )
    def test_every_input_form_gives_one_sorted_int64_set(self, indices):
        psne = PsneSet(indices)
        assert psne == PsneSet([1, 3, 5]) and hash(psne) == hash((1, 3, 5))
        assert psne.indices.dtype == np.int64 and not psne.indices.flags.writeable
        assert psne.indices.tolist() == [1, 3, 5]
        assert list(psne) == [1, 3, 5] and all(type(i) is int for i in psne)
        assert repr(psne) == "PsneSet([1, 3, 5])" and len(psne) == 3

    @pytest.mark.parametrize(
        "indices, message",
        [
            ([1, 0.5], "joint-action index must be an integer, got 0.5"),
            ([True], "joint-action index must be an integer, got True"),
            ([[1, 2]], "joint-action index must be an integer, got [1, 2]"),
            ([1, [2]], "joint-action index must be an integer, got [2]"),
            ([2**63], "values 9223372036854775808..9223372036854775808 reach past int64"),
            ([3, -1], "joint-action indices must be nonnegative"),
        ],
        ids=["half", "bool", "nested", "ragged", "past-int64", "negative"],
    )
    def test_rejects_each_index_as_the_index_rule_does(self, indices, message):
        with pytest.raises(InputError, match=re.escape(message)):
            PsneSet(indices)

    def test_membership_accepts_numpy_integers(self):
        psne = PsneSet([1, 3, 5])
        assert np.int64(3) in psne and np.int32(5) in psne and np.uint8(1) in psne
        assert np.int64(2) not in psne and 6 not in psne
        assert 1.5 not in psne and 1.0 in psne  # compared, never truncated
        assert set(psne) == {1, 3, 5}


class TestPayoff:
    def test_influenced_player_collects_one_unit_per_parent_on_one(self):
        inst = influence_game(3, 2, [1, 2])
        assert inst.game.payoff(3, (1, 1, 2)) == 2.0
        assert inst.game.payoff(3, (1, 2, 2)) == 1.0
        assert inst.game.payoff(3, (1, 1, 1)) == 0.0

    def test_zero_game(self):
        game = PolymatrixGame([2, 2, 2])
        for x in all_joint_actions((2, 2, 2)):
            for i in (1, 2, 3):
                assert game.payoff(i, x) == 0.0

    def test_weight_embedding_pairwise_contribution(self):
        game = embed_binary_weight_game([[0.0, 2.0], [0.0, 0.0]])
        # spins +1, -1 correspond to actions (2, 1)
        assert game.payoff(1, (2, 1)) == -2.0

    def test_index_validation(self):
        game = coordination_game()
        with pytest.raises(InputError):
            game.payoff(3, (1, 1))
        with pytest.raises(InputError):
            game.payoff(1, (1, 3))


class TestBestResponses:
    def test_influential_player_always_prefers_one(self):
        inst = influence_game(3, 1, [2])
        for x in all_joint_actions((2, 2, 2)):
            assert inst.game.best_responses(2, x) == frozenset({1})

    def test_zero_game_ties_everywhere(self):
        game = PolymatrixGame([2, 3])
        assert game.best_responses(2, (1, 1)) == frozenset({1, 2, 3})

    def test_coordination_follows_opponent(self):
        game = coordination_game()
        assert game.best_responses(1, (1, 2)) == frozenset({2})
        assert game.best_responses(1, (1, 1)) == frozenset({1})


class TestIsPsne:
    def test_influence_instance_unique_equilibrium(self):
        inst = influence_game(3, 1, [1])
        for x in all_joint_actions((2, 2, 2)):
            assert inst.game.is_psne(x) == (x == (1, 2, 2))

    def test_zero_game_all_equilibria(self):
        game = PolymatrixGame([2, 2])
        assert all(game.is_psne(x) for x in all_joint_actions((2, 2)))

    def test_matches_best_response_definition_on_random_games(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            game = random_grid_game(rng, 3, 2, (2, 3, 2), (-1.0, 0.0, 1.0))
            for x in all_joint_actions((2, 3, 2)):
                by_def = all(
                    x[i - 1] in game.best_responses(i, x) for i in (1, 2, 3)
                )
                assert game.is_psne(x) == by_def


class TestEnumeratePsne:
    def test_coordination(self):
        assert enumerate_psne(coordination_game()) == PsneSet([0, 3])

    def test_influence_singleton(self):
        inst = influence_game(3, 1, [1])
        assert enumerate_psne(inst.game) == PsneSet([3])

    def test_zero_game_full_space(self):
        game = PolymatrixGame([2, 2])
        assert enumerate_psne(game) == PsneSet(range(4))

    def test_agrees_with_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            sizes = tuple(int(rng.integers(2, 4)) for _ in range(3))
            game = random_grid_game(rng, 3, 2, sizes, (-1.0, 0.0, 1.0))
            assert enumerate_psne(game) == brute_psne_set_local(game)

    def test_ceiling(self):
        game = PolymatrixGame([2] * 25)
        with pytest.raises(
            CapacityError,
            match=r"^PSNE sweep reached 33554432 joint actions, ceiling is 16777216$",
        ):
            enumerate_psne(game)

    def test_mixed_games_match_brute_force(self):
        rng = np.random.default_rng(2)
        games = [random_grid_game(rng, 4, 3, (2, 2, 2, 2), (-1.0, 0.0, 1.0))]
        for _ in range(10):
            sizes = tuple(int(rng.integers(2, 4)) for _ in range(3))
            games.append(random_grid_game(rng, 3, 2, sizes, (-1.0, 0.0, 1.0)))
        # matching pennies between players 1 and 2: no candidate survives
        # their checks
        pennies = PolymatrixGame(
            [2, 2, 3],
            neighbors={1: [2], 2: [1]},
            pairwise={
                (1, 2): [[1.0, 0.0], [0.0, 1.0]],
                (2, 1): [[0.0, 1.0], [1.0, 0.0]],
            },
        )
        zero = PolymatrixGame([2, 3, 2])
        assert len(brute_psne_set_local(pennies)) == 0
        assert len(brute_psne_set_local(zero)) == zero.space.joint_size
        for game in games + [pennies, zero]:
            assert enumerate_psne(game) == brute_psne_set_local(game)

    @pytest.mark.parametrize("n", [4, 5])
    def test_mixed_sizes_past_three_players(self, n):
        # dense parent sets over mixed action sizes: every pairwise table is
        # laid on the joint grid in both parent-index orders
        rng = np.random.default_rng(n)
        checked = 0
        while checked < 40:
            sizes = tuple(int(s) for s in rng.integers(2, 5, size=n))
            if np.prod(sizes) > 300:
                continue
            game = random_grid_game(rng, n, n - 1, sizes, (-1.0, 0.0, 1.0))
            assert enumerate_psne(game) == brute_psne_set_local(game)
            checked += 1


def join_matches_oracles(game):
    """`enumerate_psne(game)`, asserted equal to the full joint-space sweep
    and, up to 4,096 joint actions, to the brute-force check."""
    found = enumerate_psne(game)
    assert found == sweep_psne_set(game)
    if game.space.joint_size <= 4096:
        assert found == brute_psne_set_local(game)
    return found


class TestJoin:
    """The scope-order join against the sweep it replaced and brute force."""

    def test_every_influence_game_n16_k2(self):
        for pi in itertools.combinations(range(1, 17), 2):
            inst = influence_game(16, 2, pi)
            assert join_matches_oracles(inst.game) == PsneSet([inst.psne_index])

    @pytest.mark.parametrize("n", [8, 12, 16])
    @pytest.mark.parametrize("k", [1, 2])
    def test_random_grid_games_mixed_sizes(self, n, k):
        rng = np.random.default_rng(100 + 10 * n + k)
        for _ in range(6):
            sizes = tuple(int(s) for s in rng.integers(2, 4, size=n))
            # at most 2**22 joint actions keeps the sweep oracle fast
            while np.prod(sizes) > 2**22:
                sizes = tuple(int(s) for s in rng.integers(2, 4, size=n))
            join_matches_oracles(random_grid_game(rng, n, k, sizes, (-1.0, 0.0, 1.0)))

    def test_complete_graph_spin_game(self):
        w = np.random.default_rng(7).choice([-1.0, 1.0], size=(10, 10))
        game = embed_binary_weight_game(w)
        assert all(len(game.neighbors(i)) == 9 for i in range(1, 11))
        assert join_matches_oracles(game) == spin_psne_set(w)

    def test_zero_game_keeps_every_candidate(self):
        assert join_matches_oracles(PolymatrixGame([2] * 12)) == PsneSet(range(4096))

    def test_one_player(self):
        game = PolymatrixGame([4], unary={1: [0.0, 2.0, 1.0, 2.0]})
        assert join_matches_oracles(game) == PsneSet([1, 3])

    def test_candidates_die_early(self):
        # matching pennies between players 1 and 2 (scope 2) kills every
        # candidate before players 3 and 4 (scope 3, on the pennies pair)
        # are placed and checked
        pennies = [[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]
        follow = [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
        game = PolymatrixGame(
            [2, 2, 3, 2],
            neighbors={1: [2], 2: [1], 3: [1, 2], 4: [1, 3]},
            pairwise={(1, 2): pennies[0], (2, 1): pennies[1], (3, 1): np.transpose(follow)},
        )
        assert len(join_matches_oracles(game)) == 0

    def test_parents_above_the_child(self):
        # every parent carries a higher index than its child, so each check
        # waits for players placed after the child
        rng = np.random.default_rng(8)
        for sizes in [(2, 3, 2, 2, 3, 2), (3, 2, 2, 3, 2, 2, 2)]:
            n = len(sizes)
            neighbors = {i: [j for j in (i + 1, i + 3) if j <= n] for i in range(1, n)}
            pairwise = {
                (i, j): rng.choice([-1.0, 0.0, 1.0], size=(sizes[i - 1], sizes[j - 1]))
                for i, parents in neighbors.items()
                for j in parents
            }
            unary = {n: rng.choice([-1.0, 0.0, 1.0], size=sizes[-1])}
            game = PolymatrixGame(sizes, neighbors=neighbors, unary=unary, pairwise=pairwise)
            join_matches_oracles(game)


def brute_psne_set_local(game):
    from helpers import brute_psne_set

    return brute_psne_set(game)


class TestLinearForm:
    def test_coordination_examples(self):
        form = LinearPsneForm.from_game(coordination_game())
        assert form.is_psne((1, 1)) is True
        assert form.is_psne((1, 2)) is False
        # exactly one violated inequality, with margin -1
        flat = np.concatenate(form.margins((1, 2)))
        assert sorted(flat.tolist()) == [-1.0, -1.0, 0.0, 0.0]

    def test_feature_dimension(self):
        game = random_grid_game(
            np.random.default_rng(3), 3, 2, (2, 3, 2), (-1.0, 1.0)
        )
        form = LinearPsneForm.from_game(game)
        y = form.features(2, (1, 1, 1))
        assert y.shape == ((1 + 3) * (1 + 4),)

    def test_agrees_with_payoff_check_exhaustively(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            sizes = tuple(int(rng.integers(2, 4)) for _ in range(3))
            game = random_grid_game(rng, 3, 2, sizes, (-1.0, 0.0, 1.0))
            form = LinearPsneForm.from_game(game)
            for x in all_joint_actions(sizes):
                assert form.is_psne(x) == game.is_psne(x)

    def test_margins_are_payoff_differences(self):
        # phi(i, a) . y(i, x) = u_i(x) - u_i(a, x_-i) exactly, for every
        # player, action and joint action of unnormalized integer games
        rng = np.random.default_rng(21)
        for _ in range(30):
            game = random_integer_game(rng)
            form = LinearPsneForm.from_game(game)
            for x in all_joint_actions(game.space.counts):
                for i, margin in enumerate(form.margins(x), start=1):
                    deviations = [
                        game.payoff(i, x) - game.payoff(i, x[: i - 1] + (a,) + x[i:])
                        for a in range(1, game.space.counts[i - 1] + 1)
                    ]
                    assert margin.tolist() == deviations

    def test_matches_two_walk_oracle_bytes(self):
        # -0.0 in the grid: phi copies each potential with its sign
        rng = np.random.default_rng(22)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            sizes = tuple(int(s) for s in rng.integers(2, 4, size=n))
            k = int(rng.integers(0, n))
            game = random_grid_game(rng, n, k, sizes, (-1.0, -0.0, 0.0, 1.0, 2.5))
            form = LinearPsneForm.from_game(game)
            oracle = two_walk_phi(game)
            for phi, want in zip(form._phi, oracle, strict=True):
                assert phi.shape == want.shape and phi.tobytes() == want.tobytes()
            for x in all_joint_actions(sizes):
                for i, margin in enumerate(form.margins(x), start=1):
                    y = two_walk_features(game.space, i, x)
                    assert form.features(i, x).tobytes() == y.tobytes()
                    assert margin.tobytes() == (oracle[i - 1] @ y).tobytes()

    def test_joint_action_of_wrong_length(self):
        form = LinearPsneForm.from_game(coordination_game())
        with pytest.raises(InputError, match="expected 2 actions"):
            form.is_psne((1, 1, 1))

    def test_dimension_mismatch(self):
        form = LinearPsneForm.from_game(coordination_game())
        narrow = LinearPsneForm(form.space, [phi[:, :-1] for phi in form._phi])
        with pytest.raises(InputError, match="feature/coefficient dimension mismatch"):
            narrow.margins((1, 1))


class TestWeightEmbedding:
    def test_zero_matrix_full_space(self):
        game = embed_binary_weight_game(np.zeros((3, 3)))
        assert enumerate_psne(game) == PsneSet(range(8))

    def test_coordination_weights(self):
        game = embed_binary_weight_game([[0, 1], [1, 0]])
        assert enumerate_psne(game) == PsneSet([0, 3])

    def test_matching_pennies_cycle(self):
        game = embed_binary_weight_game([[0, 1], [-1, 0]])
        assert len(enumerate_psne(game)) == 0

    def test_non_square(self):
        with pytest.raises(InputError):
            embed_binary_weight_game(np.zeros((2, 3)))

    def test_spin_oracle_exhaustive_n2(self):
        for cells in itertools.product((-1.0, 0.0, 1.0), repeat=4):
            w = np.asarray(cells).reshape(2, 2)
            assert enumerate_psne(embed_binary_weight_game(w)) == spin_psne_set(w)

    def test_spin_oracle_sampled_n3_n4(self):
        rng = np.random.default_rng(5)
        for n in (3, 4):
            for _ in range(150):
                w = rng.choice([-1.0, 0.0, 1.0], size=(n, n))
                assert enumerate_psne(embed_binary_weight_game(w)) == spin_psne_set(w)


class TestPotentialShifts:
    def test_unary_shift_keeps_best_responses(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            sizes = (2, 3, 2)
            game = random_grid_game(rng, 3, 2, sizes, (-1.0, 0.0, 1.0))
            i = int(rng.integers(1, 4))
            shifted = PolymatrixGame(
                sizes,
                neighbors={p: game.neighbors(p) for p in (1, 2, 3)},
                unary={
                    p: game.unary_table(p) + (7.0 if p == i else 0.0)
                    for p in (1, 2, 3)
                },
                pairwise={
                    (p, j): game.pairwise_table(p, j)
                    for p in (1, 2, 3)
                    for j in game.neighbors(p)
                },
            )
            for x in all_joint_actions(sizes):
                assert shifted.best_responses(i, x) == game.best_responses(i, x)

    def test_pairwise_column_shift_keeps_best_responses(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            sizes = (2, 3, 2)
            game = random_grid_game(rng, 3, 2, sizes, (-1.0, 0.0, 1.0))
            edges = [(i, j) for i in (1, 2, 3) for j in game.neighbors(i)]
            if not edges:
                continue
            i, j = edges[int(rng.integers(len(edges)))]
            column = int(rng.integers(sizes[j - 1]))
            bumped = game.pairwise_table(i, j).copy()
            bumped[:, column] += 5.0
            tables = {
                (p, q): game.pairwise_table(p, q)
                for p in (1, 2, 3)
                for q in game.neighbors(p)
            }
            tables[(i, j)] = bumped
            shifted = PolymatrixGame(
                sizes,
                neighbors={p: game.neighbors(p) for p in (1, 2, 3)},
                unary={p: game.unary_table(p) for p in (1, 2, 3)},
                pairwise=tables,
            )
            for x in all_joint_actions(sizes):
                assert shifted.best_responses(i, x) == game.best_responses(i, x)


class TestRelabeling:
    def test_player_permutation_maps_psne_set(self):
        rng = np.random.default_rng(8)
        sizes = (2, 2, 2)
        for _ in range(25):
            game = random_grid_game(rng, 3, 2, sizes, (-1.0, 0.0, 1.0))
            perm = tuple(int(p) for p in rng.permutation(3) + 1)  # new = perm[old-1]
            relabeled = PolymatrixGame(
                sizes,
                neighbors={
                    perm[i - 1]: [perm[j - 1] for j in game.neighbors(i)]
                    for i in (1, 2, 3)
                },
                unary={perm[i - 1]: game.unary_table(i) for i in (1, 2, 3)},
                pairwise={
                    (perm[i - 1], perm[j - 1]): game.pairwise_table(i, j)
                    for i in (1, 2, 3)
                    for j in game.neighbors(i)
                },
            )
            space = game.space
            mapped = set()
            for idx in enumerate_psne(game):
                x = decode_joint_action(space, idx)
                y = [0] * 3
                for old in (1, 2, 3):
                    y[perm[old - 1] - 1] = x[old - 1]
                mapped.add(encode_joint_action(space, y))
            assert enumerate_psne(relabeled) == PsneSet(mapped)


class TestGameValidation:
    def test_self_parent_rejected(self):
        with pytest.raises(InputError):
            PolymatrixGame([2, 2], neighbors={1: [1]})

    def test_pairwise_without_edge_rejected(self):
        with pytest.raises(InputError):
            PolymatrixGame([2, 2], pairwise={(1, 2): [[1, 0], [0, 1]]})

    def test_nonfinite_rejected(self):
        with pytest.raises(InputError):
            PolymatrixGame([2, 2], unary={1: [0.0, float("inf")]})

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (
                {"pairwise": {(1, 2): [1.0, 0.0, 1.0]}},
                r"^pairwise table for edge \(1, 2\) must have shape \(2, 2\), "
                r"got \(3,\)$",
            ),
            (
                {"pairwise": {(1, 2): [[1.0], [0.0], [0.0], [1.0]]}},
                r"^pairwise table for edge \(1, 2\) must have shape \(2, 2\), "
                r"got \(4, 1\)$",
            ),
            (
                {"unary": {2: [[0.0], [1.0]]}},
                r"^unary table for player 2 must have shape \(2,\), got \(2, 1\)$",
            ),
            (
                {"unary": {1: [0.0, 1.0, 2.0]}},
                r"^unary table for player 1 must have shape \(2,\), got \(3,\)$",
            ),
            (
                {"unary": {2: [[0.0], [1.0, 2.0]]}},
                r"^unary table for player 2 must be numeric with shape \(2,\): ",
            ),
        ],
        ids=[
            "pairwise-wrong-size",
            "pairwise-wrong-shape",
            "unary-wrong-shape",
            "unary-wrong-size",
            "unary-ragged",
        ],
    )
    def test_table_shape_rejected(self, kwargs, message):
        with pytest.raises(InputError, match=message):
            PolymatrixGame([2, 2], neighbors={1: [2]}, **kwargs)

    def test_missing_pairwise_defaults_to_zeros(self):
        game = PolymatrixGame([2, 2], neighbors={1: [2]})
        assert np.array_equal(game.pairwise_table(1, 2), np.zeros((2, 2)))
