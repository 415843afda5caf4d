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
the joint-space size never needs to fit in a float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError
from .games import ActionSpace, PsneSet


def nll_scale(space: ActionSpace) -> float:
    """c = ln(2 |A|^2), accumulated per player to avoid forming |A|."""
    return math.log(2.0) + 2.0 * sum(math.log(s) for s in space.counts)


@dataclass(frozen=True)
class MixtureInterval:
    """Admissible q values: open at `lower`, closed at `upper`."""

    lower: float
    upper: float

    @classmethod
    def of(cls, psne_size, joint_size) -> "MixtureInterval":
        """(|NE|/|A|, 1 - 1/(2|A|)], unchecked; given an array of set sizes,
        `lower` is the array of their lower ends."""
        return cls(psne_size / joint_size, 1.0 - 1.0 / (2.0 * joint_size))

    def __contains__(self, q: float) -> bool:
        return self.lower < q <= self.upper


def mixture_interval(psne_size: int, joint_size: int) -> MixtureInterval:
    if not 1 <= psne_size <= joint_size - 1:
        raise InputError(
            f"PSNE size {psne_size} must lie in 1..{joint_size - 1} "
            f"for a joint space of {joint_size}"
        )
    return MixtureInterval.of(psne_size, joint_size)


def check_psne_set(psne: PsneSet, joint_size: int) -> MixtureInterval:
    """Reject a PSNE set that is empty, full, or reaches past the joint
    space; return its admissible q interval."""
    interval = mixture_interval(len(psne), joint_size)
    if psne.indices[-1] >= joint_size:
        raise InputError(f"PSNE set index {psne.indices[-1]} outside 0..{joint_size - 1}")
    return interval


class Dataset:
    """An ordered multiset of observed joint actions, stored as indices."""

    __slots__ = ("space", "indices")

    def __init__(self, space: ActionSpace, indices):
        idx = np.asarray(indices, dtype=np.int64).copy()
        if idx.ndim != 1:
            raise InputError("dataset indices must be one-dimensional")
        if idx.size and (idx.min() < 0 or idx.max() >= space.joint_size):
            raise InputError("dataset contains out-of-range joint indices")
        idx.flags.writeable = False
        self.space = space
        self.indices = idx

    @classmethod
    def from_actions(cls, space: ActionSpace, rows) -> "Dataset":
        arr = np.asarray(rows, dtype=np.int64)
        if arr.size == 0:
            return cls(space, np.zeros(0, dtype=np.int64))
        if arr.ndim != 2 or arr.shape[1] != space.n:
            raise InputError(f"rows must have {space.n} columns")
        counts = np.asarray(space.counts)
        if (arr < 1).any() or (arr > counts[None, :]).any():
            raise InputError("action out of range in dataset rows")
        strides = np.asarray(space.strides, dtype=np.int64)
        return cls(space, (arr - 1) @ strides)

    @property
    def m(self) -> int:
        return int(self.indices.size)

    def __len__(self) -> int:
        return self.m

    def actions_matrix(self) -> np.ndarray:
        """m x n matrix of 1-based actions, in sample order."""
        cols = [
            self.space.digit(self.indices, p) + 1 for p in range(1, self.space.n + 1)
        ]
        return np.stack(cols, axis=1) if cols else np.zeros((0, 0), dtype=np.int64)

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
        "interval",
        "scale",
        "log_in",
        "log_out",
        "in_set_nll",
        "out_set_nll",
    )

    def __init__(self, space: ActionSpace, psne: PsneSet, q: float):
        size = space.joint_size
        interval = check_psne_set(psne, size)
        q = float(q)
        if q not in interval:
            raise InputError(
                f"q={q} outside admissible interval "
                f"({interval.lower}, {interval.upper}]"
            )
        self.space = space
        self.psne = psne
        self.q = q
        self.interval = interval
        self.scale = nll_scale(space)
        r = len(psne)
        self.log_in = math.log(q) - math.log(r)
        self.log_out = math.log1p(-q) - math.log(size - r)
        self.in_set_nll = -self.log_in / self.scale
        self.out_set_nll = -self.log_out / self.scale

    def _membership(self, index):
        idx = np.asarray(index, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.space.joint_size):
            raise InputError("joint index out of range")
        return idx, np.isin(idx, self.psne.as_array())

    def pmf(self, index):
        """Probability of joint indices (scalar or ndarray)."""
        idx, member = self._membership(index)
        out = np.where(member, math.exp(self.log_in), math.exp(self.log_out))
        return float(out) if np.isscalar(index) or idx.ndim == 0 else out

    def scaled_nll(self, index):
        """-ln p(x) / ln(2|A|^2), always within [0, 1]."""
        idx, member = self._membership(index)
        out = np.where(member, self.in_set_nll, self.out_set_nll)
        return float(out) if np.isscalar(index) or idx.ndim == 0 else out

    def sample(self, m: int, seed: int) -> Dataset:
        """Draw m observations; bit-identical for identical (m, seed).

        Each sample consumes two uniforms: the first chooses signal vs
        noise, the second positions within the chosen set (complement
        positions resolve through a sorted-rank lookup, so the draw count
        per sample is fixed).  Both draws share one buffer, and no step
        gathers through a boolean mask.
        """
        if m < 0:
            raise InputError("sample count must be nonnegative")
        if seed < 0:
            raise InputError(f"seed must be nonnegative, got {seed}")
        rng = np.random.default_rng(seed)
        ne = self.psne.as_array()
        r = ne.size
        pos = rng.random(m)
        signal = pos < self.q
        rng.random(out=pos)
        pos *= np.where(signal, r, self.space.joint_size - r)
        idx = pos.astype(np.int64)
        del pos
        # the complement rank c is joint index c plus the PSNE indices it skips
        shifted = ne - np.arange(r, dtype=np.int64)
        idx += np.searchsorted(shifted, idx, side="right") * ~signal
        np.copyto(idx, ne.take(idx, mode="clip"), where=signal)
        return Dataset(self.space, idx)

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
        s = int(np.isin(data.indices, self.psne.as_array()).sum())
        return (s * self.in_set_nll + (data.m - s) * self.out_set_nll) / data.m


def expected_log_pmf(truth: MixtureModel, model: MixtureModel) -> float:
    """E_{x ~ truth}[ln p_model(x)], in closed form from set overlaps.

    Only four cardinalities enter: both sets, truth only, model only, and
    neither; the joint space is never summed over.
    """
    if truth.space.counts != model.space.counts:
        raise InputError("models live on different action spaces")
    inter = len(truth.psne.members & model.psne.members)
    r = len(model.psne)
    mass_on_model = truth.mass(inter, r)
    mass_off_model = truth.mass(len(truth.psne) - inter, truth.space.joint_size - r)
    return mass_on_model * model.log_in + mass_off_model * model.log_out


def expected_nll(model: MixtureModel, truth: MixtureModel) -> float:
    """Population value of the scaled NLL of `model` under `truth`'s law."""
    return -expected_log_pmf(truth, model) / model.scale
