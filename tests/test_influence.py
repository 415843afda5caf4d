import itertools
import math

import numpy as np
import pytest

from psne_learn import (
    ActionSpace,
    Dataset,
    InputError,
    MixtureModel,
    PsneSet,
    all_influence_sets,
    encode_joint_action,
    enumerate_psne,
    influence_game,
    influence_psne,
    map_decoder,
    mixture_interval,
)
from psne_learn.influence import _decode_rows

from helpers import unique_map_decoder


class TestInfluencePsne:
    def test_full_and_empty_sets(self):
        assert influence_psne(range(1, 5), 4) == (1, 1, 1, 1)
        assert influence_psne([], 4) == (2, 2, 2, 2)

    def test_injective(self):
        n = 6
        images = set()
        for k in range(0, n + 1):
            for pi in itertools.combinations(range(1, n + 1), k):
                images.add(influence_psne(pi, n))
        assert len(images) == 2**n

    def test_out_of_range(self):
        with pytest.raises(InputError):
            influence_psne([5], 4)

    def test_non_integer_player_rejected_not_truncated(self):
        with pytest.raises(InputError, match="must be an integer"):
            influence_psne([True], 2)


class TestInfluenceGame:
    def test_small_examples(self):
        inst = influence_game(3, 1, [1])
        assert inst.psne_action == (1, 2, 2)
        assert len(inst.psne) == 1
        inst = influence_game(4, 2, [1, 2])
        assert inst.psne_action == (1, 1, 2, 2)

    def test_single_psne_exhaustive_small_n(self):
        for n in range(2, 6):
            for k in range(1, n):
                for pi in itertools.combinations(range(1, n + 1), k):
                    inst = influence_game(n, k, pi)
                    assert enumerate_psne(inst.game) == PsneSet([inst.psne_index])

    def test_single_psne_sampled_larger_n(self):
        rng = np.random.default_rng(40)
        for n, k in [(9, 2), (12, 1), (12, 3)]:
            for _ in range(4):
                pi = sorted(int(j) for j in rng.choice(n, size=k, replace=False) + 1)
                inst = influence_game(n, k, pi)
                assert enumerate_psne(inst.game) == PsneSet([inst.psne_index])

    def test_extra_actions_keep_single_psne(self):
        inst = influence_game(3, 2, [1, 3], action_sizes=(3, 2, 4))
        assert inst.psne_action == (1, 2, 1)
        assert enumerate_psne(inst.game) == PsneSet([inst.psne_index])

    def test_class_membership(self):
        inst = influence_game(5, 2, [2, 4])
        for i in range(1, 6):
            parents = inst.game.neighbors(i)
            assert len(parents) <= 2
            if i in (2, 4):
                assert parents == ()
            else:
                assert parents == (2, 4)

    def test_default_mixture_weight_admissible(self):
        for n in range(2, 8):
            size = 2**n
            assert (2.0 / size) in mixture_interval(1, size)

    def test_parameter_validation(self):
        with pytest.raises(InputError):
            influence_game(3, 0, [])
        with pytest.raises(InputError):
            influence_game(3, 3, [1, 2, 3])
        with pytest.raises(InputError):
            influence_game(3, 2, [1])

    def test_non_integer_player_rejected_not_truncated(self):
        with pytest.raises(InputError, match="must be an integer"):
            influence_game(3, 1, [1.6])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: influence_game(3, 2.0, [1]), "k must be an integer, got 2.0"),
        (lambda: influence_game(3.0, 1, [1]), "n must be an integer, got 3.0"),
        (lambda: influence_psne([1], 3.0), "n must be an integer, got 3.0"),
        (lambda: all_influence_sets(3, 1.0), "k must be an integer, got 1.0"),
        (lambda: all_influence_sets(3.0, 1), "n must be an integer, got 3.0"),
        (
            lambda: map_decoder(Dataset(ActionSpace((2, 2, 2)), [0]), 1.5, 0.5),
            "k must be an integer, got 1.5",
        ),
    ],
)
def test_non_integer_n_or_k_is_input_error(call, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("n, k", [(3, -1), (-2, 0), (3, 0), (3, 3)])
def test_k_outside_one_to_n_minus_one_is_input_error(n, k):
    with pytest.raises(InputError, match=rf"^k={k} must lie in 1\.\.{n - 1}$"):
        all_influence_sets(n, k)


def test_one_k_rule_for_games_decoder_and_sets():
    data = Dataset(ActionSpace((2, 2, 2)), [0])
    for call in (
        lambda: influence_game(3, 3, [1, 2, 3]),
        lambda: map_decoder(data, 3, 0.5),
        lambda: all_influence_sets(3, 3),
    ):
        with pytest.raises(InputError, match=r"^k=3 must lie in 1\.\.2$"):
            call()


def brute_map_decoder(data, k, q):
    """Full likelihood scan over every candidate player set."""
    space = data.space
    size = space.joint_size
    best = None
    for pi in itertools.combinations(range(1, space.n + 1), k):
        target = encode_joint_action(space, influence_psne(pi, space.n))
        hits = int(np.sum(data.indices == target))
        loglik = hits * math.log(q) + (data.m - hits) * (
            math.log1p(-q) - math.log(size - 1)
        )
        if best is None or loglik > best[0] + 1e-12:
            best = (loglik, pi)
    return best[1]


class TestMapDecoder:
    def test_pure_signal(self):
        space = ActionSpace((2,) * 5)
        pi = (2, 4)
        idx = encode_joint_action(space, influence_psne(pi, 5))
        data = Dataset(space, [idx] * 9)
        assert map_decoder(data, 2, 2 / 32) == pi

    def test_no_signal_lexicographic(self):
        space = ActionSpace((2,) * 5)
        stray = encode_joint_action(space, (1, 1, 2, 2, 2))  # two ones: not k=3
        data = Dataset(space, [stray] * 4)
        assert map_decoder(data, 3, 2 / 32) == (1, 2, 3)
        assert map_decoder(Dataset(space, []), 3, 2 / 32) == (1, 2, 3)

    def test_tie_goes_to_smaller_candidate(self):
        space = ActionSpace((2,) * 4)
        a = encode_joint_action(space, influence_psne((2, 4), 4))
        b = encode_joint_action(space, influence_psne((1, 3), 4))
        data = Dataset(space, [a, b, a, b])
        assert map_decoder(data, 2, 2 / 16) == (1, 3)

    def test_order_invariance(self):
        rng = np.random.default_rng(41)
        space = ActionSpace((2,) * 4)
        model = MixtureModel(space, PsneSet([3]), 2 / 16)
        data = model.sample(40, 4)
        shuffled = Dataset(space, rng.permutation(data.indices))
        assert map_decoder(data, 2, 2 / 16) == map_decoder(shuffled, 2, 2 / 16)

    def test_matches_brute_force_likelihood_scan(self):
        rng = np.random.default_rng(42)
        for sizes in ((2,) * 4, (2,) * 5, (2,) * 6, (2, 3, 2, 2, 3)):
            space = ActionSpace(sizes)
            n, size = space.n, space.joint_size
            q = 2.0 / size
            for k in (1, 2, n - 1):
                candidates = all_influence_sets(n, k)
                for trial in range(25):
                    pi, rival = (
                        candidates[int(j)]
                        for j in rng.choice(len(candidates), size=2, replace=False)
                    )
                    idx = encode_joint_action(space, influence_psne(pi, n))
                    if trial % 5 == 4:
                        # Two candidates tie at a nonzero count.  A more
                        # frequent stray scores for nobody: pi's equilibrium
                        # with an outsider on action 3, or on action 1 when
                        # every outsider is binary.
                        outsiders = [i for i in range(1, n + 1) if i not in pi]
                        wide = [i for i in outsiders if sizes[i - 1] > 2]
                        stray = list(influence_psne(pi, n))
                        stray[(wide or outsiders)[0] - 1] = 3 if wide else 1
                        c = int(rng.integers(1, 6))
                        other = encode_joint_action(space, influence_psne(rival, n))
                        data = Dataset(
                            space,
                            [idx, other] * c
                            + [encode_joint_action(space, stray)] * (c + 1),
                        )
                        assert map_decoder(data, k, q) == min(pi, rival)
                    else:
                        model = MixtureModel(space, PsneSet([idx]), q)
                        m = int(rng.integers(0, 30 if trial % 2 else 4000))
                        data = model.sample(m, 1000 + trial)
                    assert map_decoder(data, k, q) == brute_map_decoder(data, k, q)

    def test_parameter_validation(self):
        space = ActionSpace((2, 2))
        data = Dataset(space, [0])
        with pytest.raises(InputError):
            map_decoder(data, 0, 0.5)
        with pytest.raises(InputError):
            map_decoder(data, 1, 0.25)  # at the uniform weight: no signal
        assert map_decoder(data, 1, 1 - 1 / 8) == (1,)  # closed upper end


class TestDecodeRows:
    """The row decoder behind `map_decoder` and `run_fano`, row by row
    against the one-trial `np.unique` oracle and the likelihood scan."""

    SPACES = ((2,) * 4, (2,) * 6, (2, 3, 2, 2, 3))

    @staticmethod
    def row(rng, space, k, kind, m):
        """m joint indices: a seeded draw, a tie at a nonzero count, or no
        candidate at all (only the all-2 and all-1 profiles, which put 0
        and n players on action 1)."""
        n, size = space.n, space.joint_size
        candidates = all_influence_sets(n, k)
        if kind == "draw":
            pi = candidates[int(rng.integers(len(candidates)))]
            idx = encode_joint_action(space, influence_psne(pi, n))
            return MixtureModel(space, PsneSet([idx]), 2.0 / size).sample(
                m, int(rng.integers(2**32))
            ).indices
        if kind == "tie":
            pair = rng.choice(len(candidates), size=2, replace=False)
            a, b = (
                encode_joint_action(space, influence_psne(candidates[int(j)], n))
                for j in pair
            )
            c = m // 3
            filler = rng.integers(0, size, size=m - 2 * c)
            return rng.permutation(np.concatenate([[a, b] * c, filler]).astype(np.int64))
        blank = [encode_joint_action(space, (2,) * n), encode_joint_action(space, (1,) * n)]
        return rng.choice(np.asarray(blank, dtype=np.int64), size=m)

    def check_block(self, space, block, k):
        q = 2.0 / space.joint_size
        decoded = _decode_rows(space, block, k)
        assert len(decoded) == block.shape[0]
        for row, got in zip(block, decoded):
            assert got == unique_map_decoder(space, row, k)
            assert got == brute_map_decoder(Dataset(space, row), k, q)

    def test_seeded_blocks_match_oracles(self):
        rng = np.random.default_rng(43)
        kinds = ("draw", "tie", "none")
        seen = set()
        for sizes in self.SPACES:
            space = ActionSpace(sizes)
            for k in sorted({1, 2, space.n - 1}):
                for trials in range(1, 6):
                    for m in (0, 1, 2, 3, 7, 12, 23, 40):
                        picks = [kinds[int(j)] for j in rng.integers(0, 3, size=trials)]
                        block = np.stack(
                            [self.row(rng, space, k, kind, m) for kind in picks]
                        ).reshape(trials, m)
                        self.check_block(space, block, k)
                        seen.update(picks)
        assert seen == set(kinds)

    def test_long_row(self):
        rng = np.random.default_rng(44)
        for sizes in self.SPACES:
            space = ActionSpace(sizes)
            for k in (1, space.n - 1):
                for kind in ("draw", "tie"):
                    block = self.row(rng, space, k, kind, 4000).reshape(1, -1)
                    self.check_block(space, block, k)

    def test_tie_at_nonzero_count_goes_to_smaller_candidate(self):
        space = ActionSpace((2, 3, 2, 2, 3))
        a = encode_joint_action(space, influence_psne((2, 4), 5))
        b = encode_joint_action(space, influence_psne((1, 3), 5))
        stray = encode_joint_action(space, (2, 3, 2, 2, 3))  # scores for nobody
        block = np.array([[a, b, a, b, stray], [stray] * 3 + [a] * 2], dtype=np.int64)
        assert _decode_rows(space, block, 2) == [(1, 3), (2, 4)]

    def test_runs_never_straddle_rows(self):
        space = ActionSpace((2,) * 4)
        low = encode_joint_action(space, influence_psne((1, 2), 4))
        high = encode_joint_action(space, influence_psne((3, 4), 4))
        assert low < high  # row 0 sorted ends on the value row 1 holds throughout
        block = np.array([[high, low], [high, high]], dtype=np.int64)
        assert _decode_rows(space, block, 2) == [(1, 2), (3, 4)]

    def test_rows_without_candidate_decode_to_first_set(self):
        space = ActionSpace((2,) * 4)
        blank = encode_joint_action(space, (2, 2, 2, 2))
        block = np.array([[blank] * 3, [0, blank, 0]], dtype=np.int64)
        assert _decode_rows(space, block, 2) == [(1, 2), (1, 2)]
        assert _decode_rows(space, block[:, :0], 3) == [(1, 2, 3)] * 2


class TestAllInfluenceSets:
    def test_lexicographic_enumeration(self):
        assert all_influence_sets(4, 2) == [
            (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
        ]
