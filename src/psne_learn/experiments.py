"""Seeded Monte Carlo harnesses: recovery, generalization gap, minimax.

Every harness output is a pure function of (config, master seed).  Trial
randomness derives from the master seed through numpy SeedSequence with a
fixed spawn key: (0,) reserves a stream for drawing the truth instance,
and (1, m_index, trial_index) yields the per-trial stream.  Its uint32
words are read in pairs, high word first, as 64-bit integer sub-seeds
(one per trial for recovery and gap; the hidden set's, then the draw's,
for fano), and each sub-seed seeds one `default_rng`.  Trials run on the
calling thread in trial-index order.

Those output bytes are the contract, so the per-trial seeding is not
done by calling numpy per trial: `_seed_words` evaluates numpy's
published SeedSequence algorithm (pool of 4, hashmix, mix, and
generate_state) on uint32 columns, one entry per trial, for a chunk of
SEED_CHUNK trials at a time.  The same kernel then mixes each sub-seed's
two words into the four uint64 words PCG64 seeds from, and numpy's own
PCG64 takes them through an `ISeedSequence` that returns them, so every
trial's Generator is bit-identical to `default_rng(sub_seed)`.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from . import __version__
from .bounds import fano_error_lower_bound
from .errors import ConfigError, InputError
from .estimator import DEFAULT_GRID, CandidateFamily, enumerate_psne_sets
from .estimator import _class_param_problems, _fit_rows, _normalize_grid, _overlaps
from .games import ActionSpace, PsneSet, _integer, _real, bounded_joint_size, encode_joint_action
from .influence import _decode_rows, all_influence_sets, influence_game, influence_psne
from .mixture import SAMPLE_BLOCK, MixtureModel, _blocks, check_joint_size, expected_nll
from .mixture import MixtureInterval, mixture_interval

KINDS = ("recovery", "gap", "fano")
ENUMERATE_PI_LIMIT = 10_000


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs to one harness run.  Every bad field, a list field that is not a
    sequence included, is reported in one ConfigError (exit 3 in the CLI)."""

    kind: str
    n: int = 4
    k: int = 3
    action_sizes: tuple[int, ...] = ()
    grid: tuple[float, ...] = DEFAULT_GRID
    q_star: float = 0.7
    m_schedule: tuple[int, ...] = (1, 10, 100, 1000)
    trials: int = 20
    seed: int = 0
    delta: float = 0.1
    truth_psne: tuple[int, ...] | None = None
    fano_q: float | None = None

    def __post_init__(self) -> None:
        problems = []

        def check(rule, *args):
            """`rule(*args)`, or None with its message listed."""
            try:
                return rule(*args)
            except InputError as exc:
                problems.append(str(exc))

        def read(name, rule, what=None):
            """Field `name` stored as `rule` reads it (a list field: as a tuple,
            then item by item as `what`), or None so that the rules on it wait."""
            value = check(rule if what is None else _tuple, getattr(self, name), name)
            if what is not None and value is not None:
                object.__setattr__(self, name, value)
                value = tuple(check(rule, item, what) for item in value)
            if value is not None and (what is None or None not in value):
                object.__setattr__(self, name, value)
                return value

        if self.kind not in KINDS:
            problems.append(f"kind must be one of {'/'.join(KINDS)}, got {self.kind!r}")
        # numpy numbers are stored as the Python ints and floats they hold,
        # which the seeding and JSON take
        n, k, trials, seed = (read(name, _integer) for name in ("n", "k", "trials", "seed"))
        schedule = read("m_schedule", _integer, "sample size")
        grid = read("grid", _real, "grid value")
        delta, _ = (read(name, _real) for name in ("delta", "q_star"))
        fano_q_ok = self.fano_q is None or read("fano_q", _real) is not None
        # action counts and PSNE indices that are not integers wait for their own rules
        sizes = read("action_sizes", _integers)
        truth = () if self.truth_psne is None else read("truth_psne", _integers)
        class_problems = [] if None in (n, k) else _class_param_problems(n, k, sizes or None)
        problems += class_problems
        class_ok = None not in (n, k) and not class_problems
        if schedule == ():
            problems.append("m_schedule must be nonempty")
        if schedule:
            if any(b <= a for a, b in zip(schedule, schedule[1:])):
                problems.append(f"m_schedule must be strictly increasing: {schedule}")
            if any(m < 0 for m in schedule):
                problems.append("sample sizes cannot be negative")
            if self.kind in ("recovery", "gap") and any(m < 1 for m in schedule):
                problems.append(f"{self.kind} runs need at least one sample per trial")
        if trials is not None and trials < 1:
            problems.append(f"trials must be at least 1, got {trials}")
        if delta is not None and not 0.0 < delta < 1.0:
            problems.append(f"delta={delta} outside (0, 1)")
        if seed is not None and seed < 0:
            problems.append(f"seed must be nonnegative, got {seed}")
        if self.kind == "fano" and k is not None and k < 1:
            problems.append("fano runs need k >= 1")
        # the library's own action-count, grid and PSNE-index rules; a fano
        # run's q rule checks the action counts too, once the class is valid
        fano = self.kind == "fano" and class_ok and fano_q_ok and sizes is not None
        rules = [(_fano_q, self) if fano else (ActionSpace, sizes or (2,))]
        for rule, value in rules + [(_normalize_grid, grid), (PsneSet, truth)]:
            if value is not None:
                check(rule, value)
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


def _tuple(values, what: str) -> tuple:
    """`values` as a tuple; a value that is not a sequence is an InputError."""
    try:
        items = iter(values)
    except TypeError:
        raise InputError(f"{what} must be a sequence, got {values!r}") from None
    return tuple(items)


def _integers(values, what: str) -> tuple:
    """`values` as a tuple, of Python ints if every one is an integer."""
    values = _tuple(values, what)
    try:
        return tuple(_integer(v, what) for v in values)
    except InputError:
        return values


def _fano_q(config: ExperimentConfig) -> float:
    """A fano run's q, `fano_q` or else 2/|A|, admitted for one equilibrium
    among |A| joint actions; an InputError for bad action counts or for an
    |A| past float range (found from n alone, before (2,) * n is built)."""
    sizes = config.action_sizes
    size = ActionSpace(sizes).joint_size if sizes else bounded_joint_size(config.n, ())
    check_joint_size(size)
    q = 2.0 / size if config.fano_q is None else config.fano_q
    return mixture_interval(1, size).admit(q)


def thread_count() -> int:
    """Worker threads a harness uses: always 1, trials run on the caller."""
    return 1


SEED_CHUNK = 1 << 10  # trials per seeding pass; a power of two, so no pass straddles 2**32

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx), for a
# pool of 4 uint32 words
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # hashmix, while mixing entropy
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # generate_state
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _wrap(value):
    """`value` mod 2**32: a Python int is masked, uint32 arrays wrap as is."""
    return value & _MASK32 if isinstance(value, int) else value


def _hasher(const: int, mult: int):
    """numpy's hashmix over uint32 words, each a Python int or a uint32
    array: xor the running constant, step it, multiply by the new one,
    then xorshift by 16."""

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = _wrap(value * const)
        return value ^ value >> 16

    return hashmix


def _mix(x, y):
    result = _wrap(_wrap(_MIX_L * x) - _wrap(_MIX_R * y))
    return result ^ result >> 16


def _pool(entropy: list) -> list:
    """numpy's SeedSequence.mix_entropy: entropy words, first word first,
    into the 4-word pool.  A word shared by every trial is a Python int,
    mixed once; a uint32 column holds one word per trial."""
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    return pool


def _state(pool: list, n_words: int) -> list:
    """numpy's SeedSequence.generate_state(n_words), one column per word."""
    hashmix = _hasher(_INIT_B, _MULT_B)
    return [hashmix(pool[i % 4]) for i in range(n_words)]


def _words(value: int) -> list[int]:
    """The uint32 words numpy reads a nonnegative int as, low word first."""
    return [value >> s & _MASK32 for s in range(0, max(value.bit_length(), 1), 32)]


def _seed_words(master: int, m_index: int, lo: int, hi: int, streams: int) -> np.ndarray:
    """(hi - lo, streams, 4) uint64: for trials lo..hi-1 of m_index, the
    words PCG64 seeds each sub-seed's stream from; lo..hi-1 must lie on
    one side of 2**32, where trial indices take a second word."""
    master_words = _words(master)
    master_words += [0] * (4 - len(master_words))  # a spawned sequence pads to the pool
    index = np.arange(lo, hi, dtype=np.uint64)
    trial = [index.astype(np.uint32)]  # the low words
    if lo >> 32:
        trial.append((index >> 32).astype(np.uint32))
    state = _state(_pool(master_words + [1] + _words(m_index) + trial), 2 * streams)
    # sub-seed w is (state[2w] << 32) | state[2w + 1]
    low, high = (np.stack(state[i::2], axis=1).ravel() for i in (1, 0))
    return _pcg64_words(low, high).reshape(hi - lo, streams, 4)


def _pcg64_words(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """(len, 4) uint64: SeedSequence(sub-seed).generate_state(4, np.uint64),
    which PCG64 seeds from, for the sub-seeds low + (high << 32); a high
    word of 0 mixes as numpy's one-word entropy of a sub-seed below 2**32."""
    state = np.stack(_state(_pool([low, high]), 8), axis=1).astype(np.uint64)
    # the 8 words read as 4 little-endian uint64s
    return state[:, 0::2] | state[:, 1::2] << np.uint64(32)


def _generators(words: np.ndarray):
    """Per row of `_seed_words` output, a Generator per stream: numpy's
    PCG64 seeded from the stream's four words."""
    # numpy.random loads here, on first use, not when psne_learn is imported
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        """What PCG64 asks a seed sequence for: its four seeding words."""

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
            return self.words

    for row in words:
        yield [np.random.Generator(np.random.PCG64(SeedWords(w))) for w in row]


def _trial_rngs(master: int, m_index: int, trials: int, streams: int):
    """Per trial, in index order, its `streams` Generators: those of
    `default_rng` on each sub-seed (see the module docstring)."""
    for lo in range(0, trials, SEED_CHUNK):
        hi = min(lo + SEED_CHUNK, trials)
        yield from _generators(_seed_words(master, m_index, lo, hi, streams))


def _trial_blocks(rngs, width: int):
    """The per-trial items of `rngs`, in lists of SAMPLE_BLOCK // width
    trials (at least one), so that a block's arrays of `width` elements
    per trial stay within one budget whatever the trial count."""
    rows = max(1, SAMPLE_BLOCK // max(width, 1))
    while block := list(itertools.islice(rngs, rows)):
        yield block


def _freq_row(m: int, metric: str, hits: Sequence[bool]) -> ResultRow:
    trials = len(hits)
    f = int(np.count_nonzero(hits)) / trials
    return ResultRow(m, metric, f, math.sqrt(f * (1.0 - f) / trials), trials)


def _choose_truth(config: ExperimentConfig, family: CandidateFamily) -> MixtureModel:
    space = family.space
    if config.truth_psne is not None:
        truth = PsneSet(config.truth_psne)
        if truth not in family:
            raise ConfigError(
                "declared truth PSNE set is not in the candidate family; "
                "recovery against it is ill-posed"
            )
    else:
        interval = MixtureInterval.of(family.sizes, space.joint_size)
        q = config.q_star
        eligible = np.flatnonzero(
            (family.sizes >= 2) & (interval.lower < q) & (q <= interval.upper)
        )
        if not eligible.size:
            raise ConfigError(
                f"no candidate with >= 2 equilibria admits q_star={config.q_star}"
            )
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=config.seed, spawn_key=(0,))
        )
        truth = family[int(eligible[int(rng.integers(len(eligible)))])]
    interval = mixture_interval(len(truth), space.joint_size)
    return MixtureModel(space, truth, interval.admit(config.q_star, ConfigError))


def _base_meta(config: ExperimentConfig) -> dict:
    return {"config": asdict(config), "seed": config.seed, "version": __version__}


def _table(rows, meta: dict) -> ResultTable:
    # JSON-normalize the metadata so a table written as JSON reads back equal
    return ResultTable(tuple(rows), json.loads(json.dumps(meta)))


def _fit_trials(config: ExperimentConfig):
    """The sample-and-fit loop shared by the recovery and gap harnesses.

    Builds the family, chooses the truth, and fits the trials a block at a
    time from their tallies of joint indices, never materializing a draw:
    a block's counts (trials x |A|), their gather at the family's indices
    and its scan share SAMPLE_BLOCK with its draws.  Returns the family,
    the truth, one (m, fits) pair per sample size, fits being the
    `estimator._scan` arrays (best, q_hat, objective, clamped) over the
    trials in index order, and the metadata both harnesses write.
    """
    family = enumerate_psne_sets(config.n, config.k, config.action_sizes, config.grid)
    truth = _choose_truth(config, family)
    width = family.space.joint_size + family.indices.size
    trials = []
    for mi, m in enumerate(config.m_schedule):
        rngs = (rng for (rng,) in _trial_rngs(config.seed, mi, config.trials, 1))
        scans = [
            _fit_rows(family, truth._tallies(block, m))
            for block in _trial_blocks(rngs, m + width)
        ]
        trials.append((m, tuple(np.concatenate(part) for part in zip(*scans))))
    meta = _base_meta(config)
    meta["derived"] = {
        "family_size": len(family),
        "truth_psne": truth.psne.indices.tolist(),
        "q_star": truth.q,
    }
    return family, truth, trials, meta


def run_recovery(config: ExperimentConfig) -> ResultTable:
    """Frequency of superset / exact / subset PSNE recovery per sample size,
    read per trial from flags computed once per candidate."""
    if config.kind != "recovery":
        raise ConfigError(f"run_recovery got a {config.kind!r} config")
    family, truth, trials, meta = _fit_trials(config)
    r, sizes = len(truth.psne), family.sizes
    overlap = _overlaps(family, truth.psne)
    flags = {
        "superset": overlap == r,
        "exact": (overlap == r) & (sizes == r),
        "subset": overlap == sizes,
    }
    rows = [
        _freq_row(m, metric, hits[best])
        for m, (best, *_) in trials
        for metric, hits in flags.items()
    ]
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
    for m, (best, q_hat, *_) in trials:
        gaps = np.asarray(
            [
                expected_nll(MixtureModel(family.space, family[b], q), truth) - baseline
                for b, q in zip(best.tolist(), q_hat.tolist())
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
    enumeration when it is small, otherwise by uniform sampling.  An
    enumerated pi's game is built and verified by `influence_game` on its
    first draw, and a pi that no trial draws is never built.  Trials run in
    index order, in blocks of at most SAMPLE_BLOCK // m: one `_blocks` call
    draws a block's ranks, row t maps through trial t's one equilibrium x_t
    (an off-signal rank c to c + (c >= x_t), a signal draw to x_t), and one
    pass of the row decoder decodes the block.
    """
    if config.kind != "fano":
        raise ConfigError(f"run_fano got a {config.kind!r} config")
    space, q = ActionSpace(config.sizes), _fano_q(config)
    size = space.joint_size

    population = math.comb(config.n, config.k)
    enumerated = population <= ENUMERATE_PI_LIMIT
    if enumerated:
        pis, equilibria = all_influence_sets(config.n, config.k), {}

    rows = []
    for mi, m in enumerate(config.m_schedule):
        errors = []
        for block in _trial_blocks(_trial_rngs(config.seed, mi, config.trials, 2), m):
            drawn, hidden = [], []
            for pi_rng, _ in block:
                if enumerated:
                    j = int(pi_rng.integers(len(pis)))
                    if j not in equilibria:
                        game = influence_game(config.n, config.k, pis[j], space.counts)
                        equilibria[j] = game.psne_index
                    pi, index = pis[j], equilibria[j]
                else:
                    chosen = pi_rng.choice(config.n, size=config.k, replace=False) + 1
                    pi = tuple(sorted(int(i) for i in chosen))
                    index = encode_joint_action(space, influence_psne(pi, config.n))
                drawn.append(pi)
                hidden.append(index)
            x = np.array(hidden, dtype=np.int64)[:, None]
            draws = np.empty((len(block), m), dtype=np.int64)
            for lo, s, c in _blocks([data_rng for _, data_rng in block], m, q, 1, size):
                out = draws[:, lo : lo + c.shape[1]]
                np.add(c, c >= x, out=out)
                np.copyto(out, x, where=s)
            decoded = _decode_rows(space, draws, config.k)
            errors += [d != pi for d, pi in zip(decoded, drawn)]
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
