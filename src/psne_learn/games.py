"""Polymatrix games over finite discrete action sets.

A game has n players, player i choosing from actions 1..|A_i|.  Player i's
payoff is a unary potential on their own action plus one pairwise potential
per parent j in their neighbor set:

    u_i(x) = u_ii(x_i) + sum_{j in N(i)} u_ij(x_i, x_j)

A joint action is a pure-strategy Nash equilibrium (PSNE) when every
player's action attains the maximum payoff against the others; ties count,
so the comparison is >= throughout.  Potentials are expected to be
integer-valued (or otherwise exactly representable) so that equilibrium
checks involve no floating-point tolerance.

Players and actions are 1-based in the public API.  Joint actions are
tuples of per-player actions, or equivalently indices in 0..|A|-1: the
flat C-order position in an array of shape `counts`, one axis per player,
so player 1 is the slowest axis (mixed radix, most significant digit).
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InputError, check_capacity

JOINT_CEILING = 2**24  # max |A| to join in enumerate_psne (<= |A| int64 candidates) or tally
INDEX_CEILING = 2**63  # samples and datasets hold joint indices 0..|A|-1 as int64


def _integer(value, what: str) -> int:
    """`value` as an int; anything else (a bool, a float 2.0) is an InputError."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return operator.index(value)


def _real(value, what: str) -> int | float:
    """`value` as a Python int if it is an integer, else as a float, so an
    integer grid value keeps its JSON form; anything but a real number (a
    bool, a str) is an InputError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InputError(f"{what} must be a real number, got {value!r}")
    return int(value) if isinstance(value, numbers.Integral) else float(value)


def _int64_array(values, what: str) -> np.ndarray:
    """`values` as int64; a value `_integer` rejects, or past int64, is an InputError."""
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged nesting: `_integer` words its first sequence
        arr = np.asarray(values, dtype=object)
    if arr.dtype.kind != "i" and arr.size:
        ints = [_integer(v, what) for v in np.asarray(values, dtype=object).flat]
        if not all(-(2**63) <= v < 2**63 for v in ints):
            raise InputError(f"{what} values {min(ints)}..{max(ints)} reach past int64")
        arr = np.array(ints, dtype=np.int64).reshape(arr.shape)
    return arr.astype(np.int64, copy=False)


def _joint_indices(values) -> np.ndarray:
    """PSNE joint indices as 1-D int64: each an integer, within int64 and >= 0."""
    arr = _int64_array(values, "joint-action index")
    if arr.ndim != 1:  # nested lists: their first item is not an index
        _integer(next(iter(values)), "joint-action index")
    if arr.size and arr.min() < 0:
        raise InputError("joint-action indices must be nonnegative")
    return arr


@dataclass(frozen=True)
class ActionSpace:
    """Per-player action-set sizes and the induced joint index arithmetic,
    with the one action-range and joint-index-range checks."""

    counts: tuple[int, ...]
    strides: tuple[int, ...] = field(init=False, repr=False, compare=False)
    joint_size: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        counts = tuple(_integer(c, "action count") for c in self.counts)
        if len(counts) == 0:
            raise InputError("action space needs at least one player")
        if any(c < 2 for c in counts):
            raise InputError(f"every action count must be >= 2, got {counts}")
        object.__setattr__(self, "counts", counts)
        strides = [1] * len(counts)
        for p in range(len(counts) - 2, -1, -1):
            strides[p] = strides[p + 1] * counts[p + 1]
        object.__setattr__(self, "strides", tuple(strides))
        object.__setattr__(self, "joint_size", strides[0] * counts[0])

    @property
    def n(self) -> int:
        return len(self.counts)

    def digit(self, index, player: int):
        """Player's 0-based action digit of a joint index or an int array of them."""
        self._check_player(player)
        p = player - 1
        return (index // self.strides[p]) % self.counts[p]

    def encode(self, actions) -> np.ndarray:
        """Int64 joint indices of (..., n) 1-based actions; |A| must be <= INDEX_CEILING."""
        self._check_int64()
        return (self._check_joint(actions) - 1) @ np.asarray(self.strides, dtype=np.int64)

    def check_indices(self, indices) -> np.ndarray:
        """`indices` as int64 joint indices, each in 0..|A|-1 (for any |A|)."""
        idx, top = _int64_array(indices, "joint index"), self.joint_size - 1
        if idx.size and (idx.min() < 0 or int(idx.max()) > top):
            raise InputError(f"joint indices {idx.min()}..{idx.max()} reach past 0..{top}")
        return idx

    def _check_int64(self) -> None:
        check_capacity("int64 indexing", self.joint_size, INDEX_CEILING, "joint actions")

    def _check_player(self, player: int) -> None:
        if not 1 <= player <= self.n:
            raise InputError(f"player {player} out of range 1..{self.n}")

    def _check_joint(self, actions) -> np.ndarray:
        """An (..., n) int64 array of 1-based actions, each in its player's range."""
        arr = _int64_array(actions, "action")
        if arr.shape[-1:] != (self.n,):
            raise InputError(f"expected {self.n} actions, got shape {arr.shape}")
        bad = np.argwhere((arr < 1) | (arr > np.asarray(self.counts)))
        if bad.size:
            a, p = arr[tuple(bad[0])], bad[0, -1]
            raise InputError(f"action {a} for player {p + 1} outside 1..{self.counts[p]}")
        return arr


def bounded_joint_size(n: int, counts, ceiling=sys.float_info.max) -> int:
    """|A| for n players with these counts (2 each when none are given), or
    past `ceiling` (float range by default) a partial product: each count is
    at least 2, so the first ceiling.bit_length() counts, or n alone, pass it."""
    bits = int(ceiling).bit_length()
    return math.prod(map(int, (counts or (2,) * min(n, bits))[:bits]))


def encode_joint_action(space: ActionSpace, actions: Sequence[int]) -> int:
    """Mixed-radix index of a joint action, player 1 most significant."""
    return space.encode(actions).item()


def decode_joint_action(space: ActionSpace, index: int) -> tuple[int, ...]:
    index = space.check_indices(index).item()
    return tuple(space.digit(index, p) + 1 for p in range(1, space.n + 1))


class PsneSet:
    """A set of joint-action indices, one read-only sorted distinct int64 array."""

    __slots__ = ("indices",)

    def __init__(self, indices: Iterable[int]):
        values = indices if isinstance(indices, np.ndarray) else list(indices)
        self.indices = np.unique(_joint_indices(values))
        self.indices.flags.writeable = False

    @classmethod
    def _view(cls, indices: np.ndarray) -> "PsneSet":
        """The set around `indices` as they are, with no check and no copy."""
        psne = object.__new__(cls)
        psne.indices = indices
        return psne

    def __contains__(self, index) -> bool:
        return index in self.indices.tolist()  # as in a set of ints: 1.0 is in, 1.5 not

    def __len__(self) -> int:
        return self.indices.size

    def __iter__(self):
        return iter(self.indices.tolist())

    def __eq__(self, other) -> bool:
        return isinstance(other, PsneSet) and np.array_equal(self.indices, other.indices)

    def __hash__(self) -> int:
        return hash(tuple(self.indices.tolist()))

    def __repr__(self) -> str:
        return f"PsneSet({self.indices.tolist()})"


def _as_readonly(values, shape, what: str) -> np.ndarray:
    try:
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{what} must be numeric with shape {shape}: {exc}") from None
    if arr.shape != shape:
        raise InputError(f"{what} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InputError("potentials must be finite")
    arr.flags.writeable = False
    return arr


class PolymatrixGame:
    """Neighbor structure plus unary and pairwise potential tables.

    Parameters
    ----------
    action_sizes : per-player action counts (each >= 2).
    neighbors : mapping player -> iterable of parent players; players
        absent from the mapping have no parents.
    unary : mapping player -> length-|A_i| sequence; absent players get
        zeros.
    pairwise : mapping (i, j) -> |A_i| x |A_j| table, with a key allowed
        exactly when j is a parent of i; missing edges get zero tables.
    """

    __slots__ = ("space", "_neighbors", "_unary", "_pairwise")

    def __init__(
        self,
        action_sizes: Sequence[int],
        neighbors: Mapping[int, Iterable[int]] | None = None,
        unary: Mapping[int, Sequence[float]] | None = None,
        pairwise: Mapping[tuple[int, int], Sequence[Sequence[float]]] | None = None,
    ):
        self.space = ActionSpace(tuple(action_sizes))
        n = self.space.n
        neighbors = dict(neighbors or {})
        unary = dict(unary or {})
        pairwise = dict(pairwise or {})

        nbr: list[tuple[int, ...]] = []
        for i in range(1, n + 1):
            parents = tuple(sorted({_integer(j, "neighbor") for j in neighbors.pop(i, ())}))
            for j in parents:
                if not 1 <= j <= n:
                    raise InputError(f"neighbor {j} of player {i} out of range")
            if i in parents:
                raise InputError(f"player {i} cannot be its own parent")
            nbr.append(parents)
        if neighbors:
            raise InputError(f"neighbor keys out of range: {sorted(neighbors)}")
        self._neighbors = tuple(nbr)

        tables: list[np.ndarray] = []
        for i in range(1, n + 1):
            vals = unary.pop(i, None)
            s = self.space.counts[i - 1]
            if vals is None:
                vals = np.zeros(s)
            tables.append(_as_readonly(vals, (s,), f"unary table for player {i}"))
        if unary:
            raise InputError(f"unary keys out of range: {sorted(unary)}")
        self._unary = tuple(tables)

        pw: dict[tuple[int, int], np.ndarray] = {}
        for i in range(1, n + 1):
            si = self.space.counts[i - 1]
            for j in self._neighbors[i - 1]:
                sj = self.space.counts[j - 1]
                vals = pairwise.pop((i, j), None)
                if vals is None:
                    vals = np.zeros((si, sj))
                pw[(i, j)] = _as_readonly(
                    vals, (si, sj), f"pairwise table for edge ({i}, {j})"
                )
        if pairwise:
            raise InputError(
                f"pairwise keys without a matching edge: {sorted(pairwise)}"
            )
        self._pairwise = pw

    @property
    def n(self) -> int:
        return self.space.n

    def neighbors(self, i: int) -> tuple[int, ...]:
        self.space._check_player(i)
        return self._neighbors[i - 1]

    def unary_table(self, i: int) -> np.ndarray:
        self.space._check_player(i)
        return self._unary[i - 1]

    def pairwise_table(self, i: int, j: int) -> np.ndarray:
        if (i, j) not in self._pairwise:
            raise InputError(f"no edge ({i}, {j}) in the game")
        return self._pairwise[(i, j)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolymatrixGame):
            return NotImplemented
        return (
            self.space == other.space
            and self._neighbors == other._neighbors
            and all(np.array_equal(a, b) for a, b in zip(self._unary, other._unary))
            and self._pairwise.keys() == other._pairwise.keys()
            and all(
                np.array_equal(t, other._pairwise[e])
                for e, t in self._pairwise.items()
            )
        )

    __hash__ = None

    def local_payoffs(self, i: int, x: Sequence[int]) -> np.ndarray:
        """Payoff of every candidate action a for player i against x."""
        self.space._check_player(i)
        x = self.space._check_joint(x)
        vals = self._unary[i - 1].copy()
        for j in self._neighbors[i - 1]:
            vals += self._pairwise[(i, j)][:, x[j - 1] - 1]
        return vals

    def payoff(self, i: int, x: Sequence[int]) -> float:
        """u_i(x): unary potential plus one pairwise term per parent."""
        return float(self.local_payoffs(i, x)[x[i - 1] - 1])

    def best_responses(self, i: int, x: Sequence[int]) -> frozenset[int]:
        """All payoff-maximizing actions for player i against x (ties kept)."""
        vals = self.local_payoffs(i, x)
        best = vals.max()
        return frozenset(int(a) + 1 for a in np.flatnonzero(vals == best))

    def is_psne(self, x: Sequence[int]) -> bool:
        x = self.space._check_joint(x)
        return all(x[i - 1] in self.best_responses(i, x) for i in range(1, self.n + 1))


def _best_response_grid(
    space: ActionSpace,
    i: int,
    unary: np.ndarray,
    tables: Mapping[int, np.ndarray],
) -> np.ndarray:
    """Player i's best-response indicator laid over the joint grid.

    `unary` is the player's float potential vector, shape (..., |A_i|), and
    `tables` maps each parent j to its (..., |A_i|, |A_j|) pairwise table.
    Leading axes are a batch of games sharing one parent set: one game has
    none, the family build passes a chunk of structures.  The result has
    the batch axes, then one axis per player: |A_p| long for i and its
    parents, 1 for everyone else, so it broadcasts against an array of
    shape `space.counts` whose flat C-order index is the joint index.
    """
    batch = unary.shape[:-1]
    axes = [1] * space.n
    axes[i - 1] = space.counts[i - 1]
    payoff = unary.reshape(batch + tuple(axes))
    for j, table in tables.items():
        if j < i:
            table = np.swapaxes(table, -1, -2)
        shape = list(axes)
        shape[j - 1] = space.counts[j - 1]
        payoff = payoff + table.reshape(batch + tuple(shape))
    return payoff == payoff.max(axis=len(batch) + i - 1, keepdims=True)


def enumerate_psne(game: PolymatrixGame) -> PsneSet:
    """Exact PSNE set of a game, by a join over players in scope order.

    Players are placed by scope size (the player and its parents), ties to
    the lower index; a candidate is the int64 joint index of the actions
    placed so far.  Once a player's scope is placed, one gather from its
    best-response grid drops the candidates where it would deviate.  The
    survivors are the equilibria.  At most |A| <= JOINT_CEILING candidates
    live: few in a sparse game with strict best responses, all of |A| if no
    check fires before the last placement.
    """
    space = game.space
    check_capacity("PSNE sweep", space.joint_size, JOINT_CEILING, "joint actions")
    scope = {i: {i, *game.neighbors(i)} for i in range(1, game.n + 1)}
    placed, cand = set(), np.zeros(1, dtype=np.int64)
    for p in sorted(scope, key=lambda i: (len(scope[i]), i)):
        placed.add(p)
        cand = (cand[:, None] + space.strides[p - 1] * np.arange(space.counts[p - 1])).ravel()
        for i in [i for i in scope if p in scope[i] and scope[i] <= placed]:
            tables = {j: game.pairwise_table(i, j) for j in game.neighbors(i)}
            br = _best_response_grid(space, i, game.unary_table(i), tables)
            # the grid's flat index: a run of consecutive scope players is one digit
            flat, run = 0, 1
            for j in sorted(scope[i]):
                run *= space.counts[j - 1]
                if j + 1 not in scope[i]:
                    flat, run = flat * run + cand // space.strides[j - 1] % run, 1
            cand = cand[br.ravel()[flat]]
    return PsneSet(cand)


class LinearPsneForm:
    """Equilibrium test as a conjunction of sum_i |A_i| linear inequalities.

    Player i's potentials form one list of blocks: u_ii as an |A_i| x 1
    block, then u_ij, or zeros when j is not a parent, for each j != i.
    With z(i, x) = (1, then the one-hot of x_j for each j != i):

    - phi(i, a) is each block flattened in turn, then row a of every block;
    - y(i, x) is the one-hot of x_i outer each part of z, then -z;

    both of dimension (1 + |A_i|) * (1 + sum_{j != i} |A_j|), so that

        phi(i, a) . y(i, x) = u_i(x) - u_i(a, x_{-i}).

    A joint action is a PSNE exactly when all sum_i |A_i| dot products are
    nonnegative.  Must agree with PolymatrixGame.is_psne on every input.
    """

    __slots__ = ("space", "_phi")

    def __init__(self, space: ActionSpace, phi: Sequence[np.ndarray]):
        self.space = space
        self._phi = tuple(phi)

    @classmethod
    def from_game(cls, game: PolymatrixGame) -> "LinearPsneForm":
        phis = []
        for i, si in enumerate(game.space.counts, start=1):
            blocks = [game.unary_table(i)[:, None]]
            for j, sj in enumerate(game.space.counts, start=1):
                if j in game.neighbors(i):
                    blocks.append(game.pairwise_table(i, j))
                elif j != i:
                    blocks.append(np.zeros((si, sj)))
            flat = np.concatenate([b.ravel() for b in blocks])
            phi = np.hstack([np.tile(flat, (si, 1)), *blocks])
            phi.flags.writeable = False
            phis.append(phi)
        return cls(game.space, phis)

    def features(self, i: int, x: Sequence[int]) -> np.ndarray:
        """y(i, x) in {-1, 0, 1}: the one-hot of x_i outer each part of z, then -z."""
        self.space._check_player(i)
        x = self.space._check_joint(x)
        one_hot = [np.eye(s)[a - 1] for s, a in zip(self.space.counts, x)]
        z = [np.ones(1)] + one_hot[: i - 1] + one_hot[i:]
        parts = [np.outer(one_hot[i - 1], part).ravel() for part in z]
        return np.concatenate(parts + [0.0 - np.concatenate(z)])  # 0.0 - z keeps +0.0

    def margins(self, x: Sequence[int]) -> list[np.ndarray]:
        """Per-player vectors of payoff advantages over each deviation."""
        out = []
        for i in range(1, self.space.n + 1):
            y = self.features(i, x)
            if y.shape[0] != self._phi[i - 1].shape[1]:
                raise InputError("feature/coefficient dimension mismatch")
            out.append(self._phi[i - 1] @ y)
        return out

    def is_psne(self, x: Sequence[int]) -> bool:
        return all((m >= 0.0).all() for m in self.margins(x))


def embed_binary_weight_game(weights) -> PolymatrixGame:
    """Two-action game from a weight matrix over spins {-1, +1}.

    Row i of the matrix gives player i's payoff w_ii * x_i +
    sum_{j != i} w_ij * x_i * x_j with spin values; action 1 stands for
    spin -1 and action 2 for spin +1.  The PSNE set of the returned game
    equals the spin game's.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise InputError(f"weight matrix must be square, got shape {w.shape}")
    n = w.shape[0]
    spin = np.array([-1.0, 1.0])
    neighbors = {
        i: [j for j in range(1, n + 1) if j != i and w[i - 1, j - 1] != 0.0]
        for i in range(1, n + 1)
    }
    unary = {i: w[i - 1, i - 1] * spin for i in range(1, n + 1)}
    pairwise = {
        (i, j): w[i - 1, j - 1] * np.outer(spin, spin)
        for i in range(1, n + 1)
        for j in neighbors[i]
    }
    return PolymatrixGame([2] * n, neighbors=neighbors, unary=unary, pairwise=pairwise)
