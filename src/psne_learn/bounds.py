"""Closed-form sample-complexity calculators.

Everything here is a pure function of integers and probabilities, in nats.
The two KL calculators cross-validate against each other and against the
mixture module's population quantities:

  * `mixture_kl` handles any pair of mixture models on one action space,
    through the four set-overlap cardinalities.
  * `superset_recovery_margin` is the scaled KL gap opened by deleting one
    equilibrium from a set of r; an excess-risk budget below this margin
    forces the fitted PSNE set to cover the true one.
  * `fano_pair_kl` is the same divergence specialized to two distinct
    single-equilibrium models with equal q, the quantity a Fano argument
    feeds on.

`sufficient_samples` inverts the union-bound/Hoeffding chain with explicit
constants; `fano_error_lower_bound` assembles the pairwise-KL mutual
information bound into a minimax error floor valid for every decoder.
"""

from __future__ import annotations

import math

from .errors import InputError
from .mixture import MixtureModel, expected_log_pmf, mixture_interval


def mixture_kl(p: MixtureModel, r: MixtureModel) -> float:
    """KL(P || R) in nats between two mixture models on one space."""
    return expected_log_pmf(p, p) - expected_log_pmf(p, r)


def superset_recovery_margin(psne_size: int, q: float, joint_size: int) -> float:
    """Largest admissible excess-risk budget for superset recovery.

    Equals KL between the mixture on a size-r equilibrium set and the
    mixture on the same set minus one equilibrium (both at the same q),
    divided by the NLL scale ln(2|A|^2).  Requires r >= 2: with a single
    equilibrium there is no smaller valid set to separate from.

    The joint-space size is an explicit argument because it enters both
    the scale factor and the off-equilibrium masses.
    """
    r = int(psne_size)
    if r < 2:
        raise InputError("superset margin needs at least 2 equilibria")
    if joint_size <= r:
        raise InputError(f"joint size {joint_size} must exceed PSNE size {r}")
    q = float(q)
    if q not in mixture_interval(r, joint_size):
        raise InputError(f"q={q} inadmissible for |NE|={r}, |A|={joint_size}")
    log_q, log_1mq = math.log(q), math.log1p(-q)
    numerator = (
        q * (log_q - math.log(r))
        + (1.0 - q) * (log_1mq - math.log(joint_size - r))
        - ((r - 1) / r) * q * (log_q - math.log(r - 1))
        - (q / r + 1.0 - q) * (log_1mq - math.log(joint_size - r + 1))
    )
    return numerator / (math.log(2.0) + 2.0 * math.log(joint_size))


def _check_fano_space(joint_size: int) -> None:
    if joint_size < 3:
        raise InputError("need a joint space of at least 3 actions")


def fano_pair_kl(q: float, joint_size: int) -> float:
    """KL between two singleton-equilibrium mixtures with equal q.

    Closed form ((|A|q - 1)/(|A| - 1)) * (ln q - ln((1-q)/(|A|-1))).
    Defined for q above the uniform weight 1/|A|; at q = 1/|A| both models
    collapse to uniform and the divergence vanishes.
    """
    _check_fano_space(joint_size)
    q = float(q)
    if not 1.0 / joint_size < q < 1.0:
        raise InputError(f"q={q} must lie in (1/{joint_size}, 1)")
    weight = (q - 1.0 / joint_size) / (1.0 - 1.0 / joint_size)
    return weight * (math.log(q) - math.log1p(-q) + math.log(joint_size - 1))


def sufficient_samples(eps: float, delta: float, d_h: int) -> int:
    """Samples making the uniform-deviation bound hold at (eps, delta).

    Smallest integer m with 4 * d_h * exp(-m eps^2 / 2) <= delta, i.e.
    ceil((2/eps^2) ln(4 d_h / delta)); d_h counts the distinct PSNE sets
    the class can produce.
    """
    if not 0.0 < eps < 1.0 or not 0.0 < delta < 1.0:
        raise InputError("eps and delta must lie in (0, 1)")
    if d_h < 1:
        raise InputError("the hypothesis count must be at least 1")
    return math.ceil(
        (2.0 / (eps * eps))
        * (math.log(4.0) + math.log(d_h) - math.log(delta))
    )


def log_binomial(n: int, k: int) -> float:
    """ln C(n, k) through log-gamma; stable for n up to at least 1e4."""
    if not 0 <= k <= n:
        raise InputError(f"k={k} outside 0..{n}")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def fano_error_lower_bound(
    m: int, n: int, k: int, joint_size: int, q: float | None = None
) -> float:
    """Minimax decoding-error floor for the k-influential-players family.

    max(0, 1 - (m * KL + ln 2) / ln C(n, k)) where KL is the pairwise
    divergence between family members at the shared mixture weight
    (default q = 2/|A|).  Valid for every decoder; nonincreasing in m.
    """
    if m < 0:
        raise InputError("sample count must be nonnegative")
    _check_fano_space(joint_size)
    if not 1 <= k <= n - 1:
        raise InputError(
            f"k={k} must lie in 1..{n - 1}: otherwise there is a single "
            "hypothesis and no decoding problem"
        )
    if q is None:
        q = 2.0 / joint_size
    kl = fano_pair_kl(q, joint_size)
    log_count = log_binomial(n, k)
    return max(0.0, 1.0 - (m * kl + math.log(2.0)) / log_count)
