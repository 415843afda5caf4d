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
which candidate equilibrium appears most often.
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
    n, k = _integer(n, "n"), _integer(k, "k")
    pi = tuple(sorted({_integer(i, "influential player") for i in pi}))
    if not 1 <= k <= n - 1:
        raise InputError(f"k={k} must lie in 1..{n - 1}")
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
    argmax is the candidate whose equilibrium occurs most often.  One pass
    per player over the distinct observed indices keeps a validity mask
    (every action 1 or 2) and a count of players on action 1.  Player 1 is
    most significant, so ascending index order is lexicographic order of
    candidates: the first maximum sends ties to the smallest, and with no
    candidate observed the answer is (1, ..., k).
    """
    space = data.space
    n, k = space.n, _integer(k, "k")
    if not 1 <= k <= n - 1:
        raise InputError(f"k={k} must lie in 1..{n - 1}")
    mixture_interval(1, space.joint_size).admit(q)

    observed, counts = np.unique(data.indices, return_counts=True)
    valid = np.ones(observed.shape, dtype=bool)
    ones = np.zeros(observed.shape, dtype=np.int64)
    for p in range(1, n + 1):
        digit = space.digit(observed, p)
        valid &= digit <= 1
        ones += digit == 0
    score = np.where(valid & (ones == k), counts, 0)
    if not score.any():
        return tuple(range(1, k + 1))
    best = int(observed[np.argmax(score)])
    return tuple(p for p in range(1, n + 1) if space.digit(best, p) == 0)


def all_influence_sets(n: int, k: int) -> list[tuple[int, ...]]:
    """Every size-k player subset, in lexicographic order."""
    return list(itertools.combinations(range(1, _integer(n, "n") + 1), _integer(k, "k")))
