"""Independent oracles shared across the test suite.

These deliberately re-derive results from first principles (raw table
lookups, exhaustive loops over the joint space) instead of calling the
library's equilibrium or likelihood code paths, so agreement is evidence
rather than tautology.
"""

import itertools
import math

import numpy as np

from psne_learn import (
    ActionSpace,
    CandidateFamily,
    MixtureModel,
    PolymatrixGame,
    PsneSet,
    encode_joint_action,
    enumerate_grid_games,
    enumerate_psne,
)
from psne_learn.estimator import _player_structures
from psne_learn.games import _best_response_table


def all_joint_actions(sizes):
    return itertools.product(*(range(1, s + 1) for s in sizes))


def brute_is_psne(game, x):
    """Equilibrium check straight off the potential tables."""
    sizes = game.space.counts
    for i in range(1, game.n + 1):

        def local(a):
            total = float(game.unary_table(i)[a - 1])
            for j in game.neighbors(i):
                total += float(game.pairwise_table(i, j)[a - 1, x[j - 1] - 1])
            return total

        played = local(x[i - 1])
        if any(local(a) > played for a in range(1, sizes[i - 1] + 1)):
            return False
    return True


def brute_psne_set(game):
    space = game.space
    return PsneSet(
        encode_joint_action(space, x)
        for x in all_joint_actions(space.counts)
        if brute_is_psne(game, x)
    )


def spin_psne_set(weights):
    """PSNE of a weight-matrix spin game, checked in spin coordinates."""
    w = np.asarray(weights, dtype=float)
    n = w.shape[0]
    hits = []
    for spins in itertools.product((-1.0, 1.0), repeat=n):

        def pay(i, s):
            return w[i, i] * s + sum(
                w[i, j] * s * spins[j] for j in range(n) if j != i
            )

        if all(pay(i, spins[i]) >= pay(i, -spins[i]) for i in range(n)):
            hits.append(sum((1 << (n - 1 - p)) for p, s in enumerate(spins) if s > 0))
    return PsneSet(hits)


def random_grid_game(rng, n, k, sizes, grid):
    """A normalized grid game with random parent sets and potentials."""
    grid = list(grid)
    neighbors, unary, pairwise = {}, {}, {}
    for i in range(1, n + 1):
        others = [j for j in range(1, n + 1) if j != i]
        psize = int(rng.integers(0, k + 1))
        parents = (
            sorted(int(j) for j in rng.choice(others, size=psize, replace=False))
            if psize
            else []
        )
        neighbors[i] = parents
        u = np.zeros(sizes[i - 1])
        u[1:] = rng.choice(grid, size=sizes[i - 1] - 1)
        unary[i] = u
        for j in parents:
            t = np.zeros((sizes[i - 1], sizes[j - 1]))
            t[1:, :] = rng.choice(grid, size=(sizes[i - 1] - 1, sizes[j - 1]))
            pairwise[(i, j)] = t
    return PolymatrixGame(sizes, neighbors=neighbors, unary=unary, pairwise=pairwise)


def games_psne_sets(n, k, sizes, grid):
    """The grid-game family the slow way: every game's own PSNE set.

    Maps the whole normalized game stream through the exact PSNE sweep, the
    definition that region intersection in `enumerate_psne_sets` shortcuts.
    """
    space = ActionSpace(sizes)
    found = {}
    for game in enumerate_grid_games(n, k, sizes, grid):
        psne = enumerate_psne(game)
        if 1 <= len(psne) <= space.joint_size - 1:
            found[psne.indices] = psne
    return CandidateFamily(space, list(found.values()), "grid-game stream")


def packed_player_regions(n, k, sizes, grid, i, space):
    """One player's distinct acceptance regions as packed uint8 rows."""
    size = space.joint_size
    all_idx = np.arange(size, dtype=np.int64)
    digits = {j: space.digit(all_idx, j) for j in range(1, n + 1)}
    rows = set()
    for parents, u, tables in _player_structures(n, k, sizes, grid, i):
        br, cstrides = _best_response_table(u, [tables[j] for j in parents])
        cfg = np.zeros(size, dtype=np.int64)
        for j, stride in zip(parents, cstrides):
            cfg += digits[j] * stride
        rows.add(np.packbits(br[digits[i], cfg]).tobytes())
    packed = np.frombuffer(b"".join(sorted(rows)), dtype=np.uint8)
    return packed.reshape(len(rows), -1)


def packed_intersect_all(partials, regions):
    """Every pairwise AND of two packed-row sets, deduplicated by row."""
    prod = partials[:, None, :] & regions[None, :, :]
    return np.unique(prod.reshape(-1, partials.shape[1]), axis=0)


def packed_psne_sets(n, k, sizes, grid):
    """The region-intersection family on packed byte rows.

    Regions are uint8 rows from `np.packbits`, each player round takes the
    full outer AND and dedupes it with `np.unique(axis=0)`, and rows decode
    through `np.unpackbits`: the same class as `enumerate_psne_sets`, built
    with none of its bitmask arithmetic.
    """
    space = ActionSpace(sizes)
    size = space.joint_size
    # packbits zero-fills the bits past joint_size, so rows compare cleanly
    partial = np.packbits(np.ones(size, dtype=bool))[None, :]
    for i in range(1, n + 1):
        regions = packed_player_regions(n, k, sizes, grid, i, space)
        partial = packed_intersect_all(partial, regions)
    candidates = []
    for row in partial:
        members = np.unpackbits(row, count=size).astype(bool)
        if 1 <= int(members.sum()) <= size - 1:
            candidates.append(PsneSet(np.flatnonzero(members)))
    return CandidateFamily(space, candidates, "packed rows")


def random_model(rng, max_joint=256, max_psne=None):
    """A random valid mixture model on a random small action space."""
    while True:
        n = int(rng.integers(1, 5))
        sizes = tuple(int(rng.integers(2, 5)) for _ in range(n))
        if math.prod(sizes) <= max_joint:
            break
    space = ActionSpace(sizes)
    size = space.joint_size
    cap = size - 1 if max_psne is None else min(max_psne, size - 1)
    r = int(rng.integers(1, cap + 1))
    psne = PsneSet(rng.choice(size, size=r, replace=False))
    lo, up = r / size, 1.0 - 1.0 / (2.0 * size)
    q = lo + (up - lo) * (0.05 + 0.9 * float(rng.random()))
    return MixtureModel(space, psne, q)


def masked_sample_indices(model, m, seed):
    """The sampler's draw with boolean-mask gathers and a rank lookup per
    complement draw: the formula `MixtureModel.sample` must reproduce."""
    rng = np.random.default_rng(seed)
    signal = rng.random(m) < model.q
    pick = rng.random(m)
    idx = np.empty(m, dtype=np.int64)
    ne = model.psne.as_array()
    r = ne.size
    idx[signal] = ne[(pick[signal] * r).astype(np.int64)]
    ranks = (pick[~signal] * (model.space.joint_size - r)).astype(np.int64)
    shifted = ne - np.arange(r, dtype=np.int64)
    idx[~signal] = ranks + np.searchsorted(shifted, ranks, side="right")
    return idx


def brute_expected_nll(model, truth):
    """Population scaled NLL by full summation over the joint space."""
    idx = np.arange(truth.space.joint_size)
    return float(np.sum(truth.pmf(idx) * model.scaled_nll(idx)))


def brute_kl(p, r):
    """KL divergence by full summation, in nats."""
    idx = np.arange(p.space.joint_size)
    pv, rv = p.pmf(idx), r.pmf(idx)
    return float(np.sum(pv * (np.log(pv) - np.log(rv))))


def bimatrix_psne_sets(grid):
    """Distinct PSNE sets of all full-table 2-player binary games on a grid.

    The payoff tables are unconstrained over the grid (no unary/pairwise
    factorization), which covers every 2-player game.  Returns the set of
    frozensets of joint indices with 1 <= |NE| <= 3.
    """
    found = set()
    cells = list(itertools.product(grid, repeat=4))
    for u1 in cells:
        t1 = np.asarray(u1).reshape(2, 2)  # t1[a1, a2]
        for u2 in cells:
            t2 = np.asarray(u2).reshape(2, 2)  # t2[a2, a1]
            hits = []
            for a1 in range(2):
                for a2 in range(2):
                    if (
                        t1[a1, a2] >= t1[1 - a1, a2]
                        and t2[a2, a1] >= t2[1 - a2, a1]
                    ):
                        hits.append(2 * a1 + a2)
            if 1 <= len(hits) <= 3:
                found.add(frozenset(hits))
    return found
