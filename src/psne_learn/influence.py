"""Single-PSNE games that hide a set of influential players.

For a set pi of k players, the game gives each member of pi a strict best
response of action 1 (a unary bonus, no parents) and every other player a
strict best response of action 2 whenever some parent in pi plays 1 (a
pairwise bonus from each member of pi).  The unique equilibrium therefore
spells out pi: action 1 on pi, action 2 elsewhere.  Distinct pi give
distinct equilibria, which makes the family a clean decoding problem: a
learner sees samples from the mixture around the hidden equilibrium and
must identify pi.

`map_decoder` is the exact maximum-likelihood identifier for that problem;
since equilibrium samples are the only feature, it reduces to counting
which candidate equilibrium appears most often.  One row decoder,
`_decode_rows`, does that count for a (trials x m) block of draws at once:
it sorts each row, takes run lengths, tests only the distinct values for
being a candidate equilibrium, and returns each row's first maximum as a
joint index.  `map_decoder` reads its one row's index as a player set;
`experiments.run_fano` compares a block's indices with the hidden ones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError
from .games import ActionSpace, PolymatrixGame, PsneSet, _integer
from .games import encode_joint_action, enumerate_psne
from .mixture import Dataset, mixture_interval


def influence_psne(pi: Iterable[int], n: int) -> tuple[int, ...]:
    """The joint action playing 1 on pi and 2 everywhere else."""
    n, members = _integer(n, "n"), {_integer(i, "influential player") for i in pi}
    if not members <= set(range(1, n + 1)):
        raise InputError(f"influential players {sorted(members)} not within 1..{n}")
    return tuple(1 if i in members else 2 for i in range(1, n + 1))


def _check_k(n: int, k) -> int:
    """k as an int in 1..n-1, the sizes with more than one candidate set."""
    k = _integer(k, "k")
    if not 1 <= k <= n - 1:
        raise InputError(f"k={k} must lie in 1..{n - 1}")
    return k


@dataclass(frozen=True)
class InfluenceInstance:
    n: int
    k: int
    pi: tuple[int, ...]
    game: PolymatrixGame
    psne_action: tuple[int, ...]
    psne_index: int

    @property
    def psne(self) -> PsneSet:
        return PsneSet([self.psne_index])


def influence_game(
    n: int, k: int, pi: Iterable[int], action_sizes: Sequence[int] | None = None
) -> InfluenceInstance:
    """Build and verify the single-PSNE game encoding pi.

    Action sets may be larger than binary; extra actions carry zero
    potential everywhere and never join a best response, which the
    verification confirms rather than assumes.
    """
    n = _integer(n, "n")
    k = _check_k(n, k)
    pi = tuple(sorted({_integer(i, "influential player") for i in pi}))
    if len(pi) != k:
        raise InputError(f"expected {k} influential players, got {len(pi)}")
    action = influence_psne(pi, n)
    sizes = ActionSpace(tuple(action_sizes)).counts if action_sizes else (2,) * n
    if len(sizes) != n:
        raise InputError(f"expected {n} action sizes, got {len(sizes)}")

    influenced = [i for i in range(1, n + 1) if i not in pi]
    unary = {}
    pairwise = {}
    for i in pi:
        table = np.zeros(sizes[i - 1])
        table[0] = 1.0
        unary[i] = table
    for i in influenced:
        for j in pi:
            table = np.zeros((sizes[i - 1], sizes[j - 1]))
            table[1, 0] = 1.0
            pairwise[(i, j)] = table
    game = PolymatrixGame(
        sizes,
        neighbors={i: pi for i in influenced},
        unary=unary,
        pairwise=pairwise,
    )

    index = encode_joint_action(game.space, action)
    found = enumerate_psne(game)
    if found != PsneSet([index]):
        raise RuntimeError(
            f"influence construction broke its single-PSNE guarantee for "
            f"pi={pi}: found {found}"
        )
    return InfluenceInstance(n, k, pi, game, psne_action=action, psne_index=index)


def map_decoder(data: Dataset, k: int, q: float) -> tuple[int, ...]:
    """Most likely influential-player set given the observations.

    Under the known mixture weight q the log-likelihood of a candidate pi
    is affine in the number of samples equal to its equilibrium, so the
    argmax is the candidate whose equilibrium occurs most often: the row
    decoder `_decode_rows` on the one row of observed indices.
    """
    space = data.space
    k = _check_k(space.n, k)
    mixture_interval(1, space.joint_size).admit(q)
    index = _decode_rows(space, data.indices.reshape(1, -1), k)[0]
    return tuple(p for p in range(1, space.n + 1) if space.digit(index, p) == 0)


def _decode_rows(space: ActionSpace, rows: np.ndarray, k: int) -> list[int]:
    """The MAP equilibrium's joint index for each row of a (trials x m) int64 block.

    Each row is sorted and cut into runs of equal indices, so only the
    distinct values of a row take the candidate test (every action 1 or 2,
    exactly k players on action 1), one pass per player over the values
    still in the running.  A candidate scores its run length.  Player 1 is
    most significant, so ascending index order is lexicographic order of
    candidates: each row's first maximum sends ties to the smallest, and a
    row with no candidate (every row when m = 0) decodes to (1, ..., k)'s
    equilibrium.  No (distinct x n) digit array is formed; the block's
    sorted copy is the largest temporary.
    """
    trials, m = rows.shape
    decoded = np.full(trials, sum(space.strides[k:]))  # (1..k)'s equilibrium: 2 past k
    if m == 0:
        return decoded.tolist()
    ordered = np.sort(rows, axis=1)
    opens = np.ones(ordered.shape, dtype=bool)  # a row's first entry opens a run
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=opens[:, 1:])
    starts = np.flatnonzero(opens)
    values, counts = ordered.ravel()[starts], np.diff(starts, append=ordered.size)
    del ordered, opens  # free the sorted copy before the per-player passes

    # the candidate test, one pass per player over the runs still alive:
    # every action 1 or 2, and at most k players on action 1 so far
    alive = np.arange(values.size)
    ones = np.zeros(values.size, dtype=np.int64)
    for stride, count in zip(space.strides, space.counts):
        digit = values[alive] // stride % count
        ones += digit == 0
        keep = (digit <= 1) & (ones <= k)
        alive, ones = alive[keep], ones[keep]
    hit = alive[ones == k]

    # each row's best candidate run: rank by row, then by count descending;
    # lexsort is stable, so ties keep ascending index order
    row = starts[hit] // m
    ranked = np.lexsort((-counts[hit], row))
    row, best = row[ranked], values[hit[ranked]]
    first = np.ones(row.size, dtype=bool)
    np.not_equal(row[1:], row[:-1], out=first[1:])
    decoded[row[first]] = best[first]
    return decoded.tolist()


def all_influence_sets(n: int, k: int) -> list[tuple[int, ...]]:
    """Every size-k player subset, in lexicographic order; k in 1..n-1."""
    n = _integer(n, "n")
    return list(itertools.combinations(range(1, n + 1), _check_k(n, k)))
