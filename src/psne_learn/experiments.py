"""Seeded Monte Carlo harnesses: recovery, generalization gap, minimax.

Every harness output is a pure function of (config, master seed).  Trial
randomness derives from the master seed through numpy SeedSequence with a
fixed spawn key: (0,) reserves a stream for drawing the truth instance,
and (1, m_index, trial_index) yields the per-trial stream, from which
integer sub-seeds are read as consecutive 32-bit words.  Trials run on
the calling thread in trial-index order.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from . import __version__
from .bounds import fano_error_lower_bound
from .errors import ConfigError
from .estimator import CandidateFamily, enumerate_psne_sets, fit_mle
from .games import ActionSpace, PsneSet, encode_joint_action
from .influence import all_influence_sets, influence_game, influence_psne, map_decoder
from .mixture import MixtureModel, expected_nll, mixture_interval

KINDS = ("recovery", "gap", "fano")
ENUMERATE_PI_LIMIT = 10_000


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs to one harness run; validation reports every violation."""

    kind: str
    n: int = 4
    k: int = 3
    action_sizes: tuple[int, ...] = ()
    grid: tuple[float, ...] = (-1.0, 0.0, 1.0)
    q_star: float = 0.7
    m_schedule: tuple[int, ...] = (1, 10, 100, 1000)
    trials: int = 20
    seed: int = 0
    delta: float = 0.1
    truth_psne: tuple[int, ...] | None = None
    fano_q: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "action_sizes", tuple(self.action_sizes))
        object.__setattr__(self, "grid", tuple(self.grid))
        object.__setattr__(self, "m_schedule", tuple(self.m_schedule))
        if self.truth_psne is not None:
            object.__setattr__(self, "truth_psne", tuple(self.truth_psne))
        problems = []
        if self.kind not in KINDS:
            problems.append(f"kind must be one of {'/'.join(KINDS)}, got {self.kind!r}")
        if self.n < 2:
            problems.append(f"n must be at least 2, got {self.n}")
        if not 0 <= self.k <= max(self.n - 1, 0):
            problems.append(f"k={self.k} outside 0..{self.n - 1}")
        sizes = self.action_sizes or (2,) * self.n
        if len(sizes) != self.n:
            problems.append(
                f"{len(sizes)} action sizes for {self.n} players"
            )
        if any(s < 2 for s in sizes):
            problems.append(f"action sizes must all be >= 2, got {sizes}")
        if not self.m_schedule:
            problems.append("m_schedule must be nonempty")
        if any(b <= a for a, b in zip(self.m_schedule, self.m_schedule[1:])):
            problems.append(f"m_schedule must be strictly increasing: {self.m_schedule}")
        if any(m < 0 for m in self.m_schedule):
            problems.append("sample sizes cannot be negative")
        if self.kind in ("recovery", "gap") and any(m < 1 for m in self.m_schedule):
            problems.append(f"{self.kind} runs need at least one sample per trial")
        if self.trials < 1:
            problems.append(f"trials must be at least 1, got {self.trials}")
        if not 0.0 < self.delta < 1.0:
            problems.append(f"delta={self.delta} outside (0, 1)")
        if self.kind in ("recovery", "gap") and not 0.0 < self.q_star < 1.0:
            problems.append(f"q_star={self.q_star} outside (0, 1)")
        if self.seed < 0:
            problems.append(f"seed must be nonnegative, got {self.seed}")
        if problems:
            raise ConfigError("; ".join(problems))

    @property
    def sizes(self) -> tuple[int, ...]:
        return self.action_sizes or (2,) * self.n


@dataclass(frozen=True)
class ResultRow:
    m: int
    metric: str
    value: float
    stderr: float
    trials: int


@dataclass(frozen=True)
class ResultTable:
    rows: tuple[ResultRow, ...]
    meta: dict = field(compare=True)

    def values(self, metric: str) -> list[tuple[int, float]]:
        return [(r.m, r.value) for r in self.rows if r.metric == metric]


def thread_count() -> int:
    """Worker threads a harness uses: always 1, trials run on the caller."""
    return 1


def _trial_words(master: int, m_index: int, trial_index: int, words: int) -> list[int]:
    state = np.random.SeedSequence(
        entropy=master, spawn_key=(1, m_index, trial_index)
    ).generate_state(2 * words)
    return [
        (int(state[2 * w]) << 32) | int(state[2 * w + 1]) for w in range(words)
    ]


def _freq_row(m: int, metric: str, hits: Sequence[bool]) -> ResultRow:
    trials = len(hits)
    f = sum(bool(h) for h in hits) / trials
    return ResultRow(m, metric, f, math.sqrt(f * (1.0 - f) / trials), trials)


def _choose_truth(
    config: ExperimentConfig, family: CandidateFamily
) -> MixtureModel:
    space = family.space
    if config.truth_psne is not None:
        truth = PsneSet(config.truth_psne)
        if truth not in family:
            raise ConfigError(
                "declared truth PSNE set is not in the candidate family; "
                "recovery against it is ill-posed"
            )
    else:
        eligible = [
            c
            for c in family
            if len(c) >= 2
            and config.q_star in mixture_interval(len(c), space.joint_size)
        ]
        if not eligible:
            raise ConfigError(
                f"no candidate with >= 2 equilibria admits q_star={config.q_star}"
            )
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=config.seed, spawn_key=(0,))
        )
        truth = eligible[int(rng.integers(len(eligible)))]
    if config.q_star not in mixture_interval(len(truth), space.joint_size):
        raise ConfigError(
            f"q_star={config.q_star} outside the admissible interval for "
            f"|NE|={len(truth)}, |A|={space.joint_size}"
        )
    return MixtureModel(space, truth, config.q_star)


def _base_meta(config: ExperimentConfig) -> dict:
    return {"config": asdict(config), "seed": config.seed, "version": __version__}


def _table(rows, meta: dict) -> ResultTable:
    # JSON-normalize the metadata so a table written as JSON reads back equal
    return ResultTable(tuple(rows), json.loads(json.dumps(meta)))


def _fit_trials(config: ExperimentConfig):
    """The sample-and-fit loop shared by the recovery and gap harnesses.

    Builds the family, chooses the truth, and fits every trial's draw.
    Returns the family, the truth, one (m, fits) pair per sample size with
    the fits in trial-index order, and the metadata both harnesses write.
    """
    family = enumerate_psne_sets(config.n, config.k, config.sizes, config.grid)
    truth = _choose_truth(config, family)
    trials = []
    for mi, m in enumerate(config.m_schedule):
        fits = []
        for ti in range(config.trials):
            (data_seed,) = _trial_words(config.seed, mi, ti, 1)
            fits.append(fit_mle(family, truth.sample(m, data_seed)))
        trials.append((m, fits))
    meta = _base_meta(config)
    meta["derived"] = {
        "family_size": len(family),
        "truth_psne": list(truth.psne.indices),
        "q_star": truth.q,
    }
    return family, truth, trials, meta


def run_recovery(config: ExperimentConfig) -> ResultTable:
    """Frequency of superset / exact / subset PSNE recovery per sample size."""
    if config.kind != "recovery":
        raise ConfigError(f"run_recovery got a {config.kind!r} config")
    _, truth, trials, meta = _fit_trials(config)
    true = truth.psne.members
    rows = []
    for m, fits in trials:
        hats = [fit.psne.members for fit in fits]
        rows.append(_freq_row(m, "superset", [true <= h for h in hats]))
        rows.append(_freq_row(m, "exact", [h == true for h in hats]))
        rows.append(_freq_row(m, "subset", [h <= true for h in hats]))
    return _table(rows, meta)


def run_generalization_gap(config: ExperimentConfig) -> ResultTable:
    """Exact population excess risk of the fitted model, per sample size.

    The gap is computed in closed form against the generating model (no
    held-out set), so the only randomness is the training draw.
    """
    if config.kind != "gap":
        raise ConfigError(f"run_generalization_gap got a {config.kind!r} config")
    family, truth, trials, meta = _fit_trials(config)
    baseline = expected_nll(truth, truth)
    rows = []
    level = 1.0 - config.delta
    for m, fits in trials:
        gaps = np.asarray(
            [
                expected_nll(MixtureModel(family.space, fit.psne, fit.q_hat), truth)
                - baseline
                for fit in fits
            ]
        )
        mean = float(gaps.mean())
        spread = float(gaps.std(ddof=1)) if config.trials > 1 else 0.0
        rows.append(
            ResultRow(
                m, "gap_mean", mean, spread / math.sqrt(config.trials), config.trials
            )
        )
        quant = float(np.quantile(gaps, level, method="higher"))
        rows.append(ResultRow(m, "gap_quantile", quant, 0.0, config.trials))
        rows.append(ResultRow(m, "gap_min", float(gaps.min()), 0.0, config.trials))
    meta["derived"].update(quantile_level=level, baseline_nll=baseline)
    return _table(rows, meta)


def run_fano(config: ExperimentConfig) -> ResultTable:
    """MAP decoding error over the influential-players family vs the bound.

    The hidden player set is drawn uniformly per trial: from the full
    enumeration when it is small, otherwise by uniform sampling.
    """
    if config.kind != "fano":
        raise ConfigError(f"run_fano got a {config.kind!r} config")
    if config.k < 1:
        raise ConfigError("fano runs need k >= 1")
    sizes = config.sizes
    space = ActionSpace(sizes)
    size = space.joint_size
    q = config.fano_q if config.fano_q is not None else 2.0 / size
    if q not in mixture_interval(1, size):
        raise ConfigError(f"fano mixture weight q={q} inadmissible for |A|={size}")

    population = math.comb(config.n, config.k)
    enumerated = population <= ENUMERATE_PI_LIMIT
    if enumerated:
        pis = all_influence_sets(config.n, config.k)
        instances = {
            pi: influence_game(config.n, config.k, pi, sizes).psne_index
            for pi in pis
        }

    def misdecoded(mi, m, ti) -> bool:
        pi_seed, data_seed = _trial_words(config.seed, mi, ti, 2)
        rng = np.random.default_rng(pi_seed)
        if enumerated:
            pi = pis[int(rng.integers(len(pis)))]
            index = instances[pi]
        else:
            chosen = rng.choice(config.n, size=config.k, replace=False) + 1
            pi = tuple(sorted(int(i) for i in chosen))
            index = encode_joint_action(space, influence_psne(pi, config.n))
        model = MixtureModel(space, PsneSet([index]), q)
        decoded = map_decoder(model.sample(m, data_seed), config.k, q)
        return decoded != pi

    rows = []
    for mi, m in enumerate(config.m_schedule):
        errors = [misdecoded(mi, m, ti) for ti in range(config.trials)]
        rows.append(_freq_row(m, "map_error", errors))
        bound = fano_error_lower_bound(m, config.n, config.k, size, q)
        rows.append(ResultRow(m, "fano_bound", bound, 0.0, config.trials))
    meta = _base_meta(config)
    meta["derived"] = {
        "q": q,
        "hypothesis_count": population,
        "enumerated": enumerated,
    }
    return _table(rows, meta)


def run_experiment(config: ExperimentConfig) -> ResultTable:
    runner = {
        "recovery": run_recovery,
        "gap": run_generalization_gap,
        "fano": run_fano,
    }[config.kind]
    return runner(config)
