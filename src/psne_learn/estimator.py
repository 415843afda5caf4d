"""Exact maximum likelihood over candidate PSNE sets.

The per-observation loss depends on a game only through its PSNE set, so
the estimator searches equivalence classes directly: a candidate family is
a deduplicated collection of PSNE sets, and fitting scans the family for
the minimum average scaled NLL with q optimized in closed form.

Families come from two sources: exhaustive enumeration of grid-quantized
polymatrix games under a parent budget (the realizable sets, whose count is
the empirical hypothesis-class size) or an explicit list.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InputError, check_capacity
from .games import JOINT_CEILING, ActionSpace, PsneSet, _best_response_grid, _int64_array
from .games import _integer, _joint_indices, _real, bounded_joint_size
from .mixture import Dataset, MixtureInterval, MixtureModel, check_psne_set, mixture_interval
from .mixture import nll_scale

DEFAULT_GRID = (-1.0, 0.0, 1.0)
# joint actions a family build may span
FAMILY_JOINT_CEILING = 2**16
# per-player grid assignments the region build may walk, over all players
GAME_CEILING = 10_000_000
# partial PSNE sets one player round of the family build may reach
PARTIAL_SET_CEILING = 4_000_000
# payoff cells plus joint cells one chunk of the region build may hold
REGION_CHUNK_ELEMENTS = 1 << 16
# the infimum at the open lower endpoint of the q interval is not attained;
# clamp this far above it so the estimator stays total
LOWER_CLAMP_OFFSET = 1e-9


class CandidateFamily(Sequence):
    """Deduplicated PSNE sets over one action space, in the canonical order
    of `_store`, stored in one form: read-only int64 `indices` holding every
    set's ascending joint indices end to end, and `offsets`, set i being
    indices[offsets[i]:offsets[i + 1]].  `family[i]` wraps that slice in a
    `PsneSet`, a view: iteration and `candidates` copy nothing."""

    __slots__ = ("space", "provenance", "indices", "offsets")

    def __init__(self, space: ActionSpace, psne_sets: Iterable[Iterable[int]], provenance):
        """The distinct sets among `psne_sets`, each a `PsneSet` or any
        iterable of joint indices; every set must hold 1..|A|-1 of them."""
        space._check_int64()
        sets = [list(s) for s in psne_sets]
        values = iter(_joint_indices(list(itertools.chain.from_iterable(sets))).tolist())
        sets = [sorted(set(itertools.islice(values, len(s)))) for s in sets]
        lengths = np.fromiter(map(len, sets), np.int64, len(sets))
        for r in lengths.min(initial=1), lengths.max(initial=1):  # smallest, then largest
            mixture_interval(int(r), space.joint_size)
        flat = space.check_indices(list(itertools.chain.from_iterable(sets)))
        self._store(space, provenance, flat, lengths)

    @classmethod
    def _from_masks(cls, space: ActionSpace, masks: list[int], provenance: str):
        """The family of int bitmasks (bit x is joint index x), none empty or
        full, unpacked REGION_CHUNK_ELEMENTS // |A| at a time."""
        size = space.joint_size
        nbytes, chunk = (size + 7) // 8, max(1, REGION_CHUNK_ELEMENTS // size)
        lengths = np.fromiter((m.bit_count() for m in masks), np.int64, len(masks))
        flat, end = np.empty(lengths.sum(), np.int64), 0
        for start in range(0, len(masks), chunk):
            raw = [m.to_bytes(nbytes, "little") for m in masks[start : start + chunk]]
            rows = np.frombuffer(b"".join(raw), np.uint8).reshape(-1, nbytes)
            bits = np.unpackbits(rows, axis=1, count=size, bitorder="little")
            cols = np.nonzero(bits)[1]
            flat[end : end + len(cols)] = cols
            end += len(cols)
        family = object.__new__(cls)
        family._store(space, provenance, flat, lengths)
        return family

    def _store(self, space, provenance, flat, lengths) -> None:
        """Hold the distinct sets among those given end to end in `flat`,
        set i being the next lengths[i] indices, ascending and distinct; sets
        may repeat and come in any order.  The canonical order is by size,
        then by index tuple: per size, one `np.unique` of that size's sets as
        int64 rows sorts them numerically and drops the repeats."""
        ends, sizes = np.cumsum(lengths), np.unique(lengths)
        indices, kept, end = np.empty_like(flat), [], 0
        for r in sizes:  # that size's sets as (count, r) rows
            rows = np.unique(flat[ends[lengths == r, None] - np.arange(r, 0, -1)], axis=0)
            indices[end : end + rows.size] = rows.ravel()
            end += rows.size
            kept.append(len(rows))
        self.space, self.provenance = space, provenance
        self.indices = indices[:end]
        self.offsets = np.concatenate(([0], np.cumsum(np.repeat(sizes, kept))))
        self.indices.flags.writeable = self.offsets.flags.writeable = False

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, i: int) -> PsneSet:
        i = range(len(self))[i]
        return PsneSet._view(self.indices[self.offsets[i] : self.offsets[i + 1]])

    @property
    def candidates(self) -> tuple[PsneSet, ...]:
        return tuple(self)

    @property
    def sizes(self) -> np.ndarray:
        return self.offsets[1:] - self.offsets[:-1]


@dataclass(frozen=True)
class FitResult:
    """Winning PSNE set, its fitted q, the objective value, and whether q
    was pushed back inside the admissible interval."""

    psne: PsneSet
    q_hat: float
    objective: float
    clamped: bool


def _normalize_grid(grid) -> tuple[float, ...]:
    """The distinct grid values, ascending, as floats; each must be a real
    number by the rule `ExperimentConfig` reads its grid with."""
    try:
        vals = tuple(sorted({float(_real(v, "grid value")) for v in grid}))
    except OverflowError:  # an integer past float range, as the inf it rounds to
        vals = (math.inf,)
    if not vals:
        raise InputError("grid must contain at least one value")
    if any(not math.isfinite(v) for v in vals):
        raise InputError("grid values must be finite")
    return vals


def _class_param_problems(n: int, k: int, action_sizes) -> list[str]:
    """One message per broken rule of the hypothesis class: n >= 2,
    0 <= k <= n - 1 and, unless `action_sizes` is None, one size per
    player.  Builds nothing, so any n is cheap."""
    problems = []
    if n < 2:
        problems.append(f"n must be at least 2, got {n}")
    if not 0 <= k <= max(n - 1, 0):
        problems.append(f"parent budget k={k} outside 0..{n - 1}")
    if action_sizes is not None and len(action_sizes) != n:
        problems.append(f"{len(action_sizes)} action sizes for {n} players")
    return problems


def _check_class_params(n: int, k: int, action_sizes) -> tuple[int, ...]:
    n, k = _integer(n, "n"), _integer(k, "k")
    sizes = tuple(action_sizes)
    problems = _class_param_problems(n, k, sizes)
    if problems:
        raise InputError("; ".join(problems))
    return ActionSpace(sizes).counts


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
    return math.prod(
        _player_structure_count(n, k, sizes, grid, i) for i in range(1, n + 1)
    )


def _grid_tables(grid, rows: int, cols: int) -> np.ndarray:
    """Every (rows, cols) table with a zero first row and grid values below,
    stacked in `itertools.product` order: shape (g ** ((rows - 1) * cols),
    rows, cols)."""
    cells = (rows - 1) * cols
    pick = np.indices((len(grid),) * cells).reshape(cells, -1).T
    tables = np.zeros((len(pick), rows, cols))
    tables[:, 1:, :] = np.asarray(grid)[pick].reshape(-1, rows - 1, cols)
    return tables


def _player_regions(n, k, sizes, grid, i, space: ActionSpace) -> set[int]:
    """Distinct acceptance regions for one player, as int bitmasks.

    A region is the set of joint actions where player i's action is a best
    response, for one choice of parents and potentials; bit x of its mask
    is joint index x.  The unary choices stack as a (U, |A_i|) array and
    each parent's nonzero pairwise tables as a (T_j, |A_i|, |A_j|) array.
    Per parent set, the product of their indices is walked in chunks of
    max(1, REGION_CHUNK_ELEMENTS // (|A_i| * m + |A|)) structures, m being
    the number of parent configurations: a chunk's payoff grid and joint
    rows stay within that element budget, so beyond the stacks themselves
    peak memory does not grow with the structure count.  Each chunk takes
    one batched best-response grid, one broadcast of it to (chunk, |A|)
    rows over the joint space and one `np.packbits`; only its distinct rows
    become ints.  Regions dedupe heavily: distinct potentials often induce
    the same best-response pattern.
    """
    size = space.joint_size
    nbytes = (size + 7) // 8
    si = sizes[i - 1]
    others = [j for j in range(1, n + 1) if j != i]
    unary = _grid_tables(grid, si, 1)[:, :, 0]
    pairwise = {}
    # with no parents allowed, a table stack could dwarf the game ceiling
    if k:
        for j in others:
            tables = _grid_tables(grid, si, sizes[j - 1])
            pairwise[j] = tables[tables.any(axis=(1, 2))]
    rows = set()
    for psize in range(0, k + 1):
        for parents in itertools.combinations(others, psize):
            shape = (len(unary), *(len(pairwise[j]) for j in parents))
            total = math.prod(shape)
            m = math.prod(sizes[j - 1] for j in parents)
            chunk = max(1, REGION_CHUNK_ELEMENTS // (si * m + size))
            for start in range(0, total, chunk):
                pick = np.unravel_index(
                    np.arange(start, min(start + chunk, total)), shape
                )
                tables = {j: pairwise[j][p] for j, p in zip(parents, pick[1:])}
                br = _best_response_grid(space, i, unary[pick[0]], tables)
                joint = np.broadcast_to(br, (len(br), *space.counts))
                packed = np.packbits(
                    joint.reshape(len(br), size), axis=1, bitorder="little"
                )
                keys = np.ascontiguousarray(packed).view(np.dtype((np.void, nbytes)))
                distinct = set(keys.ravel().tolist())
                rows.update(int.from_bytes(row, "little") for row in distinct)
    return rows


def family_sizes(n: int, action_sizes=()) -> tuple[int, ...]:
    """`action_sizes`, or 2 for each of n players when none are given; raises
    CapacityError, before they are formed, past FAMILY_JOINT_CEILING."""
    n = _integer(n, "n")
    size = bounded_joint_size(n, tuple(action_sizes), FAMILY_JOINT_CEILING)
    check_capacity("family joint space", size, FAMILY_JOINT_CEILING, "joint actions")
    return tuple(action_sizes) or (2,) * n


def enumerate_psne_sets(
    n: int, k: int, action_sizes, grid=DEFAULT_GRID
) -> CandidateFamily:
    """Every PSNE set realizable by a grid game under the parent budget.

    The family size is the empirical hypothesis-class count for this grid.
    The build enumerates per-player best-response regions and intersects
    them across players: the class is a product over players, so this
    reaches exactly the sets that mapping every normalized grid game (the
    stream `count_grid_games` counts) through `enumerate_psne` would,
    without sweeping a single game.

    Each region (see `_player_regions`) and each partial PSNE set is an
    int bitmask over the joint space, so a set intersection is one `&` at
    any width and a Python set dedupes each player round; the distinct
    masks then go to the family unpacked in bounded chunks, with no
    `PsneSet` per candidate.  Sizes resolve through `family_sizes` (empty
    means 2 per player); CapacityError is raised past its ceiling,
    GAME_CEILING or a round's PARTIAL_SET_CEILING.
    """
    sizes = _check_class_params(n, k, family_sizes(n, action_sizes))
    grid = _normalize_grid(grid)
    space = ActionSpace(sizes)
    label = (
        f"grid-games(n={n}, k={k}, actions={','.join(map(str, sizes))}, "
        f"grid={','.join(repr(v) for v in grid)})"
    )
    structures = sum(
        _player_structure_count(n, k, sizes, grid, i) for i in range(1, n + 1)
    )
    check_capacity("region build", structures, GAME_CEILING, "grid assignments")
    full = (1 << space.joint_size) - 1
    partial = {full}
    for i in range(1, n + 1):
        regions = _player_regions(n, k, sizes, grid, i, space)
        stage = f"player {i} round"
        merged = set()
        for row in partial:
            merged.update([row & r for r in regions])
            check_capacity(stage, len(merged), PARTIAL_SET_CEILING, "partial PSNE sets")
        partial = merged
    return CandidateFamily._from_masks(space, list(partial - {0, full}), label)


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
    check_psne_set(psne, data.space)
    s = data.count_in(psne)
    q, clamped = _clamp_q(s / data.m, float(len(psne)), float(data.space.joint_size))
    return float(q), bool(clamped)


def _check_fit(family: CandidateFamily, space=None, source: str = "") -> None:
    if len(family) == 0:
        raise InputError("cannot fit over an empty candidate family")
    if space is not None and space.counts != family.space.counts:
        raise InputError(f"{source} and family action spaces differ")


def _in_set(family: CandidateFamily, values: np.ndarray) -> np.ndarray:
    """Per-candidate sums, along the last axis, of an integer or bool array
    aligned there with `family.indices`, exact in int64."""
    return np.add.reduceat(values, family.offsets[:-1], axis=-1, dtype=np.int64).astype(float)


def _overlaps(family: CandidateFamily, psne: PsneSet) -> np.ndarray:
    """|candidate & psne| for every candidate, in family order."""
    return _in_set(family, np.isin(family.indices, psne.indices))


def _scan(family: CandidateFamily, inside, outside, total):
    """Per row of (B, len(family)) weights inside and outside each set, of
    `total` in all (a scalar or a (B, 1) column), the argmin of the average
    scaled NLL with each candidate's q in closed form.  Returns (best,
    q_hat, objective, clamped), one entry per row; the first minimum wins,
    so family order breaks ties."""
    size = family.space.joint_size
    sizes = family.sizes.astype(float)
    q, clamped = _clamp_q(inside / total, sizes, float(size))
    scale = nll_scale(family.space)
    nll_in = (np.log(sizes) - np.log(q)) / scale
    nll_out = (np.log(size - sizes) - np.log1p(-q)) / scale
    objective = (inside * nll_in + outside * nll_out) / total
    best = objective.argmin(axis=1)
    rows = np.arange(len(best))
    return best, q[rows, best], objective[rows, best], clamped[rows, best]


def _fit_rows(family: CandidateFamily, counts: np.ndarray) -> tuple:
    """`_scan` of (B, |A|) int64 histograms, one per row, each totalling
    below 2**63: one gather of the counts at the family's indices."""
    inside = _in_set(family, counts[:, family.indices])
    total = counts.sum(axis=1, keepdims=True).astype(float)
    return _scan(family, inside, total - inside, total)


def _result(family: CandidateFamily, scan) -> FitResult:
    """The FitResult of a one-row `_scan`."""
    (best,), (q_hat,), (objective,), (clamped,) = scan
    return FitResult(family[int(best)], float(q_hat), float(objective), bool(clamped))


def fit_counts(family: CandidateFamily, counts) -> FitResult:
    """Empirical MLE over the family from a histogram of joint indices:
    counts[x] observations of joint index x, m = counts.sum() in all.
    The counts carry only their length, so that is all that is checked
    against the family's space.  The data enter only through per-candidate
    in-set counts: `_fit_rows` of the one histogram."""
    _check_fit(family)
    size = family.space.joint_size
    hist = _int64_array(counts, "observation count")
    if hist.shape != (size,):
        raise InputError(
            f"expected {size} observation counts, one per joint action, "
            f"got shape {hist.shape}"
        )
    if hist.min() < 0:
        raise InputError("observation counts must be nonnegative")
    # exact, so that a total past int64 is caught rather than wrapped; below
    # it, no candidate's in-set count can wrap either
    m = hist.sum(dtype=object)
    if m >= 2**63:
        raise InputError(f"observation counts total {m}, past int64")
    if m == 0:
        raise InputError("cannot fit on an empty dataset")
    return _result(family, _fit_rows(family, hist[None]))


def fit_mle(family: CandidateFamily, data: Dataset) -> FitResult:
    """Empirical MLE over the family: the `fit_counts` fit on the dataset's
    histogram of joint indices, whose length JOINT_CEILING bounds."""
    _check_fit(family, data.space, "dataset")
    size = family.space.joint_size
    check_capacity("fit histogram", size, JOINT_CEILING, "joint actions")
    return fit_counts(family, np.bincount(data.indices, minlength=size))


def population_mle(family: CandidateFamily, truth: MixtureModel) -> FitResult:
    """Expected MLE over the family under a known generating model.

    The probability mass the truth puts on each candidate set plays the
    role of the in-set sample fraction; when the family contains the true
    set, that candidate at q equal to the true parameter is the unique
    minimizer.
    """
    _check_fit(family, truth.space, "truth model")
    mass = truth.mass(_overlaps(family, truth.psne), family.sizes.astype(float))[None]
    return _result(family, _scan(family, mass, 1.0 - mass, 1.0))
