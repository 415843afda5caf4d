"""Exact maximum likelihood over candidate PSNE sets.

The per-observation loss depends on a game only through its PSNE set, so
the estimator searches equivalence classes directly: a candidate family is
a deduplicated collection of PSNE sets, and fitting scans the family for
the minimum average scaled NLL with q optimized in closed form.

Families come from three sources: exhaustive enumeration of grid-quantized
polymatrix games under a parent budget (the realizable sets, whose count is
the empirical hypothesis-class size), all subsets up to a size cap, or an
explicit list.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CapacityError, InputError
from .games import ActionSpace, PolymatrixGame, PsneSet, _best_response_table
from .mixture import Dataset, MixtureInterval, MixtureModel, check_psne_set, nll_scale

DEFAULT_GRID = (-1.0, 0.0, 1.0)
DEFAULT_GAME_CEILING = 10_000_000
# partial PSNE sets one player round of the family build may reach
PARTIAL_SET_CEILING = 4_000_000
DEFAULT_FAMILY_JOINT_CEILING = 2**16
# the infimum at the open lower endpoint of the q interval is not attained;
# clamp this far above it so the estimator stays total
LOWER_CLAMP_OFFSET = 1e-9


class CandidateFamily:
    """Deduplicated PSNE sets over one action space, in canonical order."""

    __slots__ = ("space", "candidates", "provenance", "_members", "_sizes")

    def __init__(
        self,
        space: ActionSpace,
        candidates: Sequence[PsneSet],
        provenance: str,
    ):
        size = space.joint_size
        seen = {}
        for cand in candidates:
            check_psne_set(cand, size)
            seen[cand.indices] = cand
        ordered = sorted(seen.values(), key=lambda c: (len(c), c.indices))
        self.space = space
        self.candidates = tuple(ordered)
        self.provenance = provenance
        self._members = None
        self._sizes = None

    def __len__(self) -> int:
        return len(self.candidates)

    def __iter__(self):
        return iter(self.candidates)

    def __contains__(self, psne: PsneSet) -> bool:
        return any(c == psne for c in self.candidates)

    def member_matrix(self) -> np.ndarray:
        """Boolean membership matrix, one row per candidate."""
        if self._members is None:
            mat = np.zeros((len(self.candidates), self.space.joint_size), dtype=bool)
            for row, cand in enumerate(self.candidates):
                mat[row, list(cand.indices)] = True
            mat.flags.writeable = False
            self._members = mat
        return self._members

    def sizes(self) -> np.ndarray:
        if self._sizes is None:
            arr = np.asarray([len(c) for c in self.candidates], dtype=np.int64)
            arr.flags.writeable = False
            self._sizes = arr
        return self._sizes


@dataclass(frozen=True)
class FitResult:
    """Winning PSNE set, its fitted q, the objective value, and whether q
    was pushed back inside the admissible interval."""

    psne: PsneSet
    q_hat: float
    objective: float
    clamped: bool


def _normalize_grid(grid) -> tuple[float, ...]:
    vals = tuple(sorted({float(v) for v in grid}))
    if not vals:
        raise InputError("grid must contain at least one value")
    if any(not math.isfinite(v) for v in vals):
        raise InputError("grid values must be finite")
    return vals


def _check_class_params(n: int, k: int, action_sizes) -> tuple[int, ...]:
    if n < 2:
        raise InputError(f"need at least 2 players, got n={n}")
    if not 0 <= k <= n - 1:
        raise InputError(f"parent budget k={k} outside 0..{n - 1}")
    sizes = tuple(int(s) for s in action_sizes)
    if len(sizes) != n:
        raise InputError(f"expected {n} action sizes, got {len(sizes)}")
    return sizes


def _player_structure_count(n, k, sizes, grid, i) -> int:
    g = len(grid)
    si = sizes[i - 1]
    others = [j for j in range(1, n + 1) if j != i]
    per_player = 0
    for psize in range(0, k + 1):
        for parents in itertools.combinations(others, psize):
            combos = g ** (si - 1)
            for j in parents:
                combos *= g ** ((si - 1) * sizes[j - 1]) - 1
            per_player += combos
    return per_player


def count_grid_games(n: int, k: int, action_sizes, grid=DEFAULT_GRID) -> int:
    """Closed-form size of the normalized grid-game stream.

    Per player: every parent set of size <= k, every unary assignment with
    u_ii(1) = 0, and every pairwise table with a zero first row that is not
    identically zero (an all-zero table would duplicate the same game under
    a smaller parent set).
    """
    sizes = _check_class_params(n, k, action_sizes)
    grid = _normalize_grid(grid)
    total = 1
    for i in range(1, n + 1):
        total *= _player_structure_count(n, k, sizes, grid, i)
    return total


def _player_structures(n, k, sizes, grid, i):
    """Yield (parents, unary, {parent: table}) for one player, normalized."""
    si = sizes[i - 1]
    others = [j for j in range(1, n + 1) if j != i]
    unary_choices = []
    for vals in itertools.product(grid, repeat=si - 1):
        u = np.zeros(si)
        u[1:] = vals
        u.flags.writeable = False
        unary_choices.append(u)
    for psize in range(0, k + 1):
        for parents in itertools.combinations(others, psize):
            table_choices = []
            for j in parents:
                sj = sizes[j - 1]
                tables = []
                for vals in itertools.product(grid, repeat=(si - 1) * sj):
                    if all(v == 0.0 for v in vals):
                        continue
                    t = np.zeros((si, sj))
                    t[1:, :] = np.asarray(vals).reshape(si - 1, sj)
                    t.flags.writeable = False
                    tables.append(t)
                table_choices.append(tables)
            for u in unary_choices:
                for combo in itertools.product(*table_choices):
                    yield parents, u, dict(zip(parents, combo))


def enumerate_grid_games(
    n: int,
    k: int,
    action_sizes,
    grid=DEFAULT_GRID,
    *,
    ceiling: int = DEFAULT_GAME_CEILING,
) -> Iterator[PolymatrixGame]:
    """Stream every normalized grid game with at most k parents per player.

    Potentials are canonically normalized (u_ii(1) = 0, zero first pairwise
    row), which does not change any best-response set.  Raises CapacityError
    with the closed-form count when the stream would exceed `ceiling`.
    """
    sizes = _check_class_params(n, k, action_sizes)
    grid = _normalize_grid(grid)
    total = count_grid_games(n, k, sizes, grid)
    if total > ceiling:
        raise CapacityError(
            f"grid-game stream would contain {total} games, ceiling is {ceiling}"
        )
    per_player = [
        list(_player_structures(n, k, sizes, grid, i)) for i in range(1, n + 1)
    ]
    for combo in itertools.product(*per_player):
        neighbors = {i: parents for i, (parents, _, _) in enumerate(combo, start=1)}
        unary = {i: u for i, (_, u, _) in enumerate(combo, start=1)}
        pairwise = {
            (i, j): table
            for i, (_, _, tabs) in enumerate(combo, start=1)
            for j, table in tabs.items()
        }
        yield PolymatrixGame(sizes, neighbors=neighbors, unary=unary, pairwise=pairwise)


def _player_regions(n, k, sizes, grid, i, space: ActionSpace) -> set[int]:
    """Distinct acceptance regions for one player, as int bitmasks.

    A region is the set of joint actions where player i's action is a best
    response, for one choice of parents and potentials; bit x of its mask
    is joint index x.  Regions dedupe heavily: distinct potentials often
    induce the same best-response pattern.
    """
    size = space.joint_size
    all_idx = np.arange(size, dtype=np.int64)
    digits = {j: space.digit(all_idx, j) for j in range(1, n + 1)}
    rows = set()
    for parents, u, tables in _player_structures(n, k, sizes, grid, i):
        br, cstrides = _best_response_table(u, [tables[j] for j in parents])
        cfg = np.zeros(size, dtype=np.int64)
        for j, stride in zip(parents, cstrides):
            cfg += digits[j] * stride
        allowed = br[digits[i], cfg]
        packed = np.packbits(allowed, bitorder="little").tobytes()
        rows.add(int.from_bytes(packed, "little"))
    return rows


def enumerate_psne_sets(
    n: int,
    k: int,
    action_sizes,
    grid=DEFAULT_GRID,
    *,
    joint_ceiling: int = DEFAULT_FAMILY_JOINT_CEILING,
    game_ceiling: int = DEFAULT_GAME_CEILING,
) -> CandidateFamily:
    """Every PSNE set realizable by a grid game under the parent budget.

    The family size is the empirical hypothesis-class count for this grid.
    The build enumerates per-player best-response regions and intersects
    them across players: the class is a product over players, so this
    reaches exactly the sets that mapping `enumerate_grid_games` through
    `enumerate_psne` would, without sweeping a single game.

    Each region and each partial PSNE set is an int bitmask over the joint
    space (bit x is joint index x), so a set intersection is one `&` at any
    width, and a Python set dedupes the partial sets of each player round.
    Raises CapacityError when a round exceeds PARTIAL_SET_CEILING sets.
    """
    sizes = _check_class_params(n, k, action_sizes)
    grid = _normalize_grid(grid)
    space = ActionSpace(sizes)
    if space.joint_size > joint_ceiling:
        raise CapacityError(
            f"joint space has {space.joint_size} actions, "
            f"family ceiling is {joint_ceiling}"
        )
    label = (
        f"grid-games(n={n}, k={k}, actions={','.join(map(str, sizes))}, "
        f"grid={','.join(repr(v) for v in grid)})"
    )
    per_player_structures = sum(
        _player_structure_count(n, k, sizes, grid, i) for i in range(1, n + 1)
    )
    if per_player_structures > game_ceiling:
        raise CapacityError(
            f"region enumeration needs {per_player_structures} per-player grid "
            f"assignments, ceiling is {game_ceiling}"
        )
    size = space.joint_size
    full = (1 << size) - 1
    partial = {full}
    for i in range(1, n + 1):
        regions = _player_regions(n, k, sizes, grid, i, space)
        merged = set()
        for row in partial:
            merged.update([row & r for r in regions])
            if len(merged) > PARTIAL_SET_CEILING:
                raise CapacityError(
                    f"player {i} round reached {len(merged)} partial PSNE sets, "
                    f"ceiling is {PARTIAL_SET_CEILING}"
                )
        partial = merged
    nbytes = (size + 7) // 8
    candidates = []
    for row in partial:
        if row not in (0, full):
            bits = np.frombuffer(row.to_bytes(nbytes, "little"), np.uint8)
            members = np.unpackbits(bits, count=size, bitorder="little")
            candidates.append(PsneSet(np.flatnonzero(members)))
    return CandidateFamily(space, candidates, label)


def all_subsets_family(
    action_sizes, max_size: int, *, ceiling: int = 2_000_000
) -> CandidateFamily:
    """All PSNE sets up to a size cap, independent of realizability."""
    space = ActionSpace(tuple(action_sizes))
    size = space.joint_size
    max_size = min(int(max_size), size - 1)
    if max_size < 1:
        raise InputError("max_size must be at least 1")
    total = sum(math.comb(size, s) for s in range(1, max_size + 1))
    if total > ceiling:
        raise CapacityError(f"family would contain {total} sets, ceiling {ceiling}")
    candidates = [
        PsneSet(combo)
        for s in range(1, max_size + 1)
        for combo in itertools.combinations(range(size), s)
    ]
    return CandidateFamily(space, candidates, f"all-subsets(max_size={max_size})")


def explicit_family(action_sizes, sets: Iterable[Iterable[int]]) -> CandidateFamily:
    space = ActionSpace(tuple(action_sizes))
    return CandidateFamily(space, [PsneSet(s) for s in sets], "explicit list")


def _clamp_q(q_unconstrained, sizes, joint_size):
    """Push the unconstrained optimizer into the admissible interval."""
    interval = MixtureInterval.of(sizes, joint_size)
    q = np.clip(q_unconstrained, interval.lower + LOWER_CLAMP_OFFSET, interval.upper)
    return q, q != q_unconstrained


def optimal_q(psne: PsneSet, data: Dataset) -> tuple[float, bool]:
    """Closed-form q for a fixed PSNE set: the in-set sample fraction,
    clamped to the admissible interval (the average NLL is convex in q with
    unconstrained minimizer s/m)."""
    if data.m == 0:
        raise InputError("cannot fit q on an empty dataset")
    s = int(np.isin(data.indices, psne.as_array()).sum())
    q, clamped = _clamp_q(s / data.m, float(len(psne)), float(data.space.joint_size))
    return float(q), bool(clamped)


def _select(family: CandidateFamily, objective, q, clamped) -> FitResult:
    """First minimum: the family's (size, indices) order breaks ties."""
    winner = int(np.argmin(objective))
    return FitResult(
        psne=family.candidates[winner],
        q_hat=float(q[winner]),
        objective=float(objective[winner]),
        clamped=bool(clamped[winner]),
    )


def _check_fit(family: CandidateFamily, space: ActionSpace, source: str) -> None:
    if len(family) == 0:
        raise InputError("cannot fit over an empty candidate family")
    if space.counts != family.space.counts:
        raise InputError(f"{source} and family action spaces differ")


def _in_set(family: CandidateFamily, per_index: np.ndarray) -> np.ndarray:
    """Per-candidate sum of an integer vector over each set's indices."""
    # integer matmul keeps the sum exact and independent of any threaded
    # summation order
    return (family.member_matrix().astype(np.int64) @ per_index).astype(float)


def _scan(family: CandidateFamily, inside, outside, total) -> FitResult:
    """Argmin of the average scaled NLL, with each candidate's q in closed
    form, given the weight falling inside and outside each set."""
    size = family.space.joint_size
    sizes = family.sizes().astype(float)
    q, clamped = _clamp_q(inside / total, sizes, float(size))
    scale = nll_scale(family.space)
    nll_in = (np.log(sizes) - np.log(q)) / scale
    nll_out = (np.log(size - sizes) - np.log1p(-q)) / scale
    objective = (inside * nll_in + outside * nll_out) / total
    return _select(family, objective, q, clamped)


def fit_mle(family: CandidateFamily, data: Dataset) -> FitResult:
    """Empirical MLE over the family.

    The dataset enters only through per-candidate in-set counts, taken from
    a histogram of joint indices, so the scan is a single matrix product.
    """
    _check_fit(family, data.space, "dataset")
    if data.m == 0:
        raise InputError("cannot fit on an empty dataset")
    hist = np.bincount(data.indices, minlength=family.space.joint_size)
    counts = _in_set(family, hist)
    m = float(data.m)
    return _scan(family, counts, m - counts, m)


def population_mle(family: CandidateFamily, truth: MixtureModel) -> FitResult:
    """Expected MLE over the family under a known generating model.

    The probability mass the truth puts on each candidate set plays the
    role of the in-set sample fraction; when the family contains the true
    set, that candidate at q equal to the true parameter is the unique
    minimizer.
    """
    _check_fit(family, truth.space, "truth model")
    truth_indicator = np.zeros(family.space.joint_size, dtype=np.int64)
    truth_indicator[list(truth.psne.indices)] = 1
    overlap = _in_set(family, truth_indicator)
    mass = truth.mass(overlap, family.sizes().astype(float))
    return _scan(family, mass, 1.0 - mass, 1.0)
