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
