"""Mixture distribution over joint actions: signal on equilibria, noise off.

A model is (action space, PSNE set, q).  With probability q an observation
is uniform over the PSNE set, otherwise uniform over its complement:

    p(x) = q / |NE|             if x in NE
    p(x) = (1 - q) / (|A| - |NE|)   otherwise

q ranges over the half-open interval (|NE|/|A|, 1 - 1/(2|A|)], which keeps
equilibria strictly more probable than non-equilibria and the model away
from the uniform distribution.  The scaled negative log-likelihood divides
by c = ln(2|A|^2) so each per-observation loss lands in [0, 1].

All log-likelihood arithmetic happens on set cardinalities in log space;
only the q interval's float endpoints need |A| within float range.

One sampler, `_blocks`, draws a block of trials at a time, each trial's
observations from its own Generator: masking and ranking run once on the
block's (trials x m) arrays, and a draw longer than SAMPLE_BLOCK is one
trial streamed in chunks of SAMPLE_BLOCK.  `sample` maps its one row's
ranks into a dataset's index array by one rank map at any |A|: a
sorted-rank lookup for a complement rank, the PSNE set for a signal rank.
`tally` and the trial fits count each row's ranks, and `experiments.run_fano`
maps each row to joint indices around its trial's one equilibrium index.
A tally holds no m-long index array, only the m-byte signal mask of the
first pass.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, check_capacity
from .games import INDEX_CEILING  # re-exported
from .games import JOINT_CEILING, ActionSpace, PsneSet, _integer

# elements a block of trials holds per trial-wide array (draws, counts, fit
# scan), and the chunk a longer draw streams in
SAMPLE_BLOCK = 1 << 13


def nll_scale(space: ActionSpace) -> float:
    """c = ln(2 |A|^2), accumulated per player to avoid forming |A|."""
    return math.log(2.0) + 2.0 * sum(math.log(s) for s in space.counts)


@dataclass(frozen=True)
class MixtureInterval:
    """Admissible q values for |NE| and |A|: open at `lower`, closed at `upper`."""

    lower: float
    upper: float
    _sizes: tuple = field(repr=False, compare=False)  # (|NE|, |A|), for `admit`

    @classmethod
    def of(cls, psne_size, joint_size) -> "MixtureInterval":
        """(|NE|/|A|, 1 - 1/(2|A|)], unchecked; given an array of set sizes,
        `lower` is the array of their lower ends."""
        lower, upper = psne_size / joint_size, 1.0 - 1.0 / (2.0 * joint_size)
        return cls(lower, upper, (psne_size, joint_size))

    def __contains__(self, q: float) -> bool:
        return self.lower < q <= self.upper

    def admit(self, q, error: type[Exception] = InputError) -> float:
        """float(q), or `error` with the one message of every q check."""
        if float(q) not in self:
            raise error(
                f"q={float(q)} inadmissible: outside ({self.lower}, {self.upper}] "
                "for |NE|={}, |A|={}".format(*self._sizes)
            )
        return float(q)


def check_joint_size(joint_size: int) -> None:
    """Reject a joint space past float range, where the q interval's
    endpoints |NE|/|A| and 1 - 1/(2|A|) cannot be formed."""
    if joint_size > sys.float_info.max:
        bits = int(joint_size).bit_length()
        raise InputError(f"joint size reached {bits} bits, past float range")


def mixture_interval(psne_size: int, joint_size: int) -> MixtureInterval:
    check_joint_size(joint_size)
    if not 1 <= psne_size <= joint_size - 1:
        raise InputError(
            f"PSNE size {psne_size} must lie in 1..{joint_size - 1} "
            f"for a joint space of {joint_size}"
        )
    return MixtureInterval.of(psne_size, joint_size)


def check_psne_set(psne: PsneSet, space: ActionSpace) -> MixtureInterval:
    """The set's q interval; an InputError for a set empty, full or past the space."""
    space.check_indices(psne.indices)
    return mixture_interval(len(psne), space.joint_size)


def _blocks(rngs, m: int, q: float, r: int, size: int):
    """The draws of m observations from a mixture of q, |NE| = r and
    |A| = size, one row per Generator in `rngs` (a block of trials), as a
    generator of column chunks (lo, signal, rank): bool and int64 arrays of
    shape (len(rngs), b) for columns lo..lo+b-1 of every row.  Each row is
    a pure function of its Generator's state, whatever the block.

    A row consumes 2m uniforms from its own stream, in two passes of at
    most SAMPLE_BLOCK doubles: the first m become the m-byte signal mask
    (u < q), the next m are scaled by |A| - |NE| (noise) or |NE| (signal)
    and truncated to a rank within the chosen set.  Successive
    `random(out=...)` calls yield exactly the doubles of one call, so the
    ranks depend on neither the block nor the chunk size.  Rows of at most
    SAMPLE_BLOCK draws come in one chunk; a longer draw streams.
    """
    width = min(m, SAMPLE_BLOCK)
    signal = np.empty((len(rngs), m), dtype=bool)
    buf = np.empty((len(rngs), width))
    scale = np.array([size - r, r], dtype=float)
    chunks = range(0, m, max(width, 1))

    def uniforms(b: int) -> np.ndarray:
        u = buf[:, :b]
        for rng, row in zip(rngs, u):
            rng.random(out=row)
        return u

    for lo in chunks:
        s = signal[:, lo : lo + width]
        np.less(uniforms(s.shape[1]), q, out=s)
    for lo in chunks:
        s = signal[:, lo : lo + width]
        u = uniforms(s.shape[1])
        u *= scale.take(s, mode="clip")
        yield lo, s, u.astype(np.int64)


class Dataset:
    """An ordered multiset of observed joint actions, stored as indices."""

    __slots__ = ("space", "indices")

    def __init__(self, space: ActionSpace, indices):
        space._check_int64()
        idx = space.check_indices(indices).copy()
        if idx.ndim != 1:
            raise InputError("dataset indices must be one-dimensional")
        idx.flags.writeable = False
        self.space = space
        self.indices = idx

    @classmethod
    def from_actions(cls, space: ActionSpace, rows) -> "Dataset":
        """The observations given as m rows of n 1-based actions."""
        return cls(space, space.encode(rows) if len(rows) else ())

    @property
    def m(self) -> int:
        return int(self.indices.size)

    def count_in(self, psne: PsneSet) -> int:
        """Number of observations inside a PSNE set."""
        return int(np.isin(self.indices, psne.indices).sum())

    def __len__(self) -> int:
        return self.m

    def actions_matrix(self) -> np.ndarray:
        """m x n matrix of 1-based actions, in sample order."""
        digits = [self.space.digit(self.indices, p) for p in range(1, self.space.n + 1)]
        return np.stack(digits, axis=1) + 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Dataset)
            and self.space == other.space
            and np.array_equal(self.indices, other.indices)
        )


class MixtureModel:
    """The distribution over joint actions induced by (space, PSNE set, q)."""

    __slots__ = (
        "space",
        "psne",
        "q",
        "scale",
        "log_in",
        "log_out",
        "in_set_nll",
        "out_set_nll",
    )

    def __init__(self, space: ActionSpace, psne: PsneSet, q: float):
        size = space.joint_size
        q = check_psne_set(psne, space).admit(q)
        self.space = space
        self.psne = psne
        self.q = q
        self.scale = nll_scale(space)
        r = len(psne)
        self.log_in = math.log(q) - math.log(r)
        self.log_out = math.log1p(-q) - math.log(size - r)
        self.in_set_nll = -self.log_in / self.scale
        self.out_set_nll = -self.log_out / self.scale

    def _membership(self, index, inside, outside):
        """`inside` on joint indices in the PSNE set, `outside` elsewhere."""
        idx = self.space.check_indices(index)
        out = np.where(np.isin(idx, self.psne.indices), inside, outside)
        return float(out) if idx.ndim == 0 else out

    def pmf(self, index):
        """Probability of joint indices (scalar or ndarray)."""
        return self._membership(index, math.exp(self.log_in), math.exp(self.log_out))

    def scaled_nll(self, index):
        """-ln p(x) / ln(2|A|^2), always within [0, 1]."""
        return self._membership(index, self.in_set_nll, self.out_set_nll)

    def _generator(self, m: int, seed):
        """The Generator a draw of m observations reads: `default_rng(seed)`
        of a nonnegative int seed, or the Generator given as the seed, which
        then draws as `default_rng` of its int seed would.  A bad m or seed
        and the int64 ceiling raise here, before anything is drawn."""
        if _integer(m, "sample count") < 0:
            raise InputError("sample count must be nonnegative")
        if not isinstance(seed, np.random.Generator) and _integer(seed, "seed") < 0:
            raise InputError(f"seed must be nonnegative, got {seed}")
        self.space._check_int64()
        return np.random.default_rng(seed)

    def sample(self, m: int, seed) -> Dataset:
        """Draw m observations: the one row of `_blocks` (see there; the seed
        as `_generator` reads it), mapped straight into the dataset's index
        array.  A complement rank resolves through a sorted-rank lookup and a
        PSNE rank through the set, both exact integer lookups."""
        rng = self._generator(m, seed)
        size, ne = self.space.joint_size, self.psne.indices
        r = ne.size
        # the complement rank c is joint index c plus the PSNE indices it skips
        shifted = ne - np.arange(r, dtype=np.int64)
        idx = np.empty(m, dtype=np.int64)
        for lo, (s,), (k,) in _blocks([rng], m, self.q, r, size):
            out = idx[lo : lo + k.size]
            # signal draws add a stray offset here and are overwritten next
            np.add(k, shifted.searchsorted(k, side="right"), out=out)
            np.copyto(out, ne.take(k, mode="clip"), where=s)
        return Dataset(self.space, idx)

    def tally(self, m: int, seed) -> np.ndarray:
        """Int64 counts of the m observations `sample(m, seed)` draws, one
        per joint index: np.bincount(sample(m, seed).indices, minlength=|A|),
        as the one row of `_tallies`.  CapacityError past JOINT_CEILING
        joint actions, the length of the counts."""
        rng = self._generator(m, seed)
        size = self.space.joint_size
        check_capacity("sample tally", size, JOINT_CEILING, "joint actions")
        return self._tallies([rng], m)[0]

    def _tallies(self, rngs, m: int) -> np.ndarray:
        """(len(rngs), |A|) int64: row t counts, per joint index, the m
        observations that `rngs[t]` draws.  Each chunk of the block is one
        `bincount` of its keys rank + signal * (|A| - |NE|), offset by |A|
        per row; the key counts, complement ranks then PSNE ranks, move to
        their joint indices once.  No index array is formed, only the
        block's signal mask."""
        ne = self.psne.indices
        size, r = self.space.joint_size, ne.size
        keys = np.zeros(len(rngs) * size, dtype=np.int64)
        offsets = np.arange(0, keys.size, size)[:, None]
        for _, s, k in _blocks(rngs, m, self.q, r, size):
            k += s * (size - r)
            k += offsets
            keys += np.bincount(k.ravel(), minlength=keys.size)
        keys = keys.reshape(-1, size)
        counts, noise = np.empty_like(keys), np.ones(keys.shape, dtype=bool)
        counts[:, ne], noise[:, ne] = keys[:, size - r :], False
        np.place(counts, noise, keys[:, : size - r])  # row by row, no index array
        return counts

    def mass(self, overlap, set_size):
        """Probability of a set of `set_size` joint actions, `overlap` of
        them in the PSNE set; elementwise over arrays."""
        r = len(self.psne)
        return self.q * (overlap / r) + (1.0 - self.q) * (
            (set_size - overlap) / (self.space.joint_size - r)
        )

    def empirical_nll(self, data: Dataset) -> float:
        """Average scaled NLL over a dataset, via the in-set count."""
        if data.m == 0:
            raise InputError("empirical NLL of an empty dataset is undefined")
        if data.space.counts != self.space.counts:
            raise InputError("dataset and model action spaces differ")
        s = data.count_in(self.psne)
        return (s * self.in_set_nll + (data.m - s) * self.out_set_nll) / data.m


def expected_log_pmf(truth: MixtureModel, model: MixtureModel) -> float:
    """E_{x ~ truth}[ln p_model(x)], in closed form from set overlaps.

    Only four cardinalities enter: both sets, truth only, model only, and
    neither; the joint space is never summed over.
    """
    if truth.space.counts != model.space.counts:
        raise InputError("models live on different action spaces")
    inter = np.intersect1d(truth.psne.indices, model.psne.indices, assume_unique=True).size
    r = len(model.psne)
    mass_on_model = truth.mass(inter, r)
    mass_off_model = truth.mass(len(truth.psne) - inter, truth.space.joint_size - r)
    return mass_on_model * model.log_in + mass_off_model * model.log_out


def expected_nll(model: MixtureModel, truth: MixtureModel) -> float:
    """Population value of the scaled NLL of `model` under `truth`'s law."""
    return -expected_log_pmf(truth, model) / model.scale
