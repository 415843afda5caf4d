import dataclasses
import json
import math

import numpy as np
import pytest

from psne_learn import (
    ConfigError,
    ExperimentConfig,
    FitResult,
    InputError,
    MixtureModel,
    PsneSet,
    enumerate_psne_sets,
    fit_counts,
    fit_mle,
    run_experiment,
    run_fano,
    run_generalization_gap,
    run_recovery,
)
from psne_learn import experiments
from psne_learn.influence import all_influence_sets, influence_game
from psne_learn.experiments import (
    ENUMERATE_PI_LIMIT,
    SEED_CHUNK,
    _fit_trials,
    _generators,
    _pcg64_words,
    _seed_words,
)

from helpers import _trial_words, exact_recovery, per_trial_fano, per_trial_gap, per_trial_recovery
from helpers import trial_rngs
from psne_learn.mixture import SAMPLE_BLOCK


def metric_rows(table, metric):
    return [r for r in table.rows if r.metric == metric]


class TestConfigValidation:
    def test_reports_all_violations_at_once(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(
                kind="warmup", n=1, m_schedule=(5, 5), trials=0, delta=2.0
            )
        message = str(err.value)
        for fragment in ("kind", "n must be", "strictly increasing", "trials", "delta"):
            assert fragment in message

    def test_fano_rules_reported_with_the_rest(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(kind="fano", n=4, k=0, fano_q=2.0, trials=0)
        message = str(err.value)
        for fragment in ("trials", "k >= 1", "q=2.0 inadmissible"):
            assert fragment in message

    def test_recovery_needs_positive_samples(self):
        with pytest.raises(ConfigError, match="at least one sample"):
            ExperimentConfig(kind="recovery", m_schedule=(0, 5))

    def test_fano_allows_zero_samples(self):
        config = ExperimentConfig(kind="fano", n=4, k=1, m_schedule=(0, 5), trials=2)
        assert config.m_schedule == (0, 5)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"k": 0}, "fano runs need k >= 1"),
            ({"n": 1100}, "joint size reached 1025 bits, past float range"),
            ({"fano_q": 1 / 16}, "q=0.0625 inadmissible: outside (0.0625, 0.96875]"),
            ({"action_sizes": (2, 1, 2, 2)}, "every action count must be >= 2"),
        ],
        ids=["k0", "past-float-range", "q", "action-count"],
    )
    def test_fano_rules_checked_at_construction(self, fields, message):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(**{"kind": "fano", "n": 4, "k": 1, **fields})
        assert str(err.value).startswith(message) and ";" not in str(err.value)

    def test_fano_q_rule_waits_for_a_valid_class(self):
        # n=1 has no q interval to speak of: only the class rules report
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(kind="fano", n=1, k=0)
        assert str(err.value) == "n must be at least 2, got 1; fano runs need k >= 1"

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"seed": 2.5}, "seed must be an integer, got 2.5"),
            ({"trials": 2.5}, "trials must be an integer, got 2.5"),
            ({"m_schedule": (10.5,)}, "sample size must be an integer, got 10.5"),
            ({"n": 3.0}, "n must be an integer, got 3.0"),
            ({"k": 1.0}, "k must be an integer, got 1.0"),
            ({"q_star": "0.7"}, "q_star must be a real number, got '0.7'"),
            ({"seed": True}, "seed must be an integer, got True"),
            ({"trials": True}, "trials must be an integer, got True"),
            ({"delta": None}, "delta must be a real number, got None"),
            ({"kind": "fano", "fano_q": "0.1"}, "fano_q must be a real number, got '0.1'"),
            ({"grid": (0.0, "x")}, "grid value must be a real number, got 'x'"),
            ({"grid": (True,)}, "grid value must be a real number, got True"),
            ({"grid": (10**400,)}, "grid values must be finite"),
            ({"m_schedule": 1000}, "m_schedule must be a sequence, got 1000"),
            ({"grid": 1.0}, "grid must be a sequence, got 1.0"),
            ({"action_sizes": 3}, "action_sizes must be a sequence, got 3"),
            ({"truth_psne": 7}, "truth_psne must be a sequence, got 7"),
            ({"m_schedule": None}, "m_schedule must be a sequence, got None"),
            ({"grid": None}, "grid must be a sequence, got None"),
            ({"action_sizes": None}, "action_sizes must be a sequence, got None"),
        ],
        ids=[
            "float-seed", "float-trials", "float-m", "float-n", "float-k",
            "str-q-star", "bool-seed", "bool-trials", "none-delta", "str-fano-q",
            "str-grid", "bool-grid", "int-grid-past-float-range",
            "int-m-schedule", "float-grid", "int-action-sizes", "int-truth-psne",
            "none-m-schedule", "none-grid", "none-action-sizes",
        ],
    )
    def test_field_types_checked(self, fields, message):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(**{"kind": "recovery", "n": 3, "k": 1, **fields})
        assert str(err.value) == message

    # every rule but one broken at once: a bad kind cannot also be a fano run
    EVERY_RULE = dict(
        n=3, k=0, action_sizes=(2, 1), grid=(math.inf,), q_star="0.7",
        m_schedule=(5, 5, -1), trials=0, seed=-1, delta=2.0, truth_psne=(-1,),
    )
    EVERY_MESSAGE = (
        "q_star must be a real number, got '0.7'; 2 action sizes for 3 players; "
        "m_schedule must be strictly increasing: (5, 5, -1); "
        "sample sizes cannot be negative; trials must be at least 1, got 0; "
        "delta=2.0 outside (0, 1); seed must be nonnegative, got -1; "
        "{fano}every action count must be >= 2, got (2, 1); "
        "grid values must be finite; joint-action indices must be nonnegative"
    )

    @pytest.mark.parametrize(
        "kind, message",
        [
            ("warmup", "kind must be one of recovery/gap/fano, got 'warmup'; "
             + EVERY_MESSAGE.format(fano="")),
            ("fano", EVERY_MESSAGE.format(fano="fano runs need k >= 1; ")),
        ],
        ids=["bad-kind", "fano"],
    )
    def test_every_message_in_its_place(self, kind, message):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(kind=kind, **self.EVERY_RULE)
        assert str(err.value) == message

    def test_type_errors_reported_with_the_rest(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(kind="gap", n=3, k=1.0, seed=2.5, trials=0, m_schedule=(5, 5))
        assert str(err.value) == (
            "k must be an integer, got 1.0; seed must be an integer, got 2.5; "
            "m_schedule must be strictly increasing: (5, 5); "
            "trials must be at least 1, got 0"
        )

    def test_numpy_integers_read_as_ints(self):
        plain = ExperimentConfig(kind="fano", n=4, k=1, m_schedule=(0, 3), trials=3, seed=5)
        config = ExperimentConfig(
            kind="fano", n=np.int64(4), k=np.int32(1), m_schedule=np.array([0, 3]),
            trials=np.int64(3), seed=np.uint64(5),
        )
        assert config == plain and type(config.seed) is int
        assert run_fano(config) == run_fano(plain)

    @pytest.mark.parametrize(
        "fields, stored",
        [
            ({"action_sizes": np.array([2, 2, 2])}, (2, 2, 2)),
            ({"truth_psne": np.array([0, 7])}, (0, 7)),
            ({"grid": (np.int64(-1), np.int64(0), np.int64(1))}, (-1, 0, 1)),
            ({"grid": np.array([-1.0, 0.0, 1.0])}, (-1.0, 0.0, 1.0)),
            ({"delta": np.float32(0.1)}, 0.10000000149011612),
            ({"q_star": np.float32(0.7)}, 0.699999988079071),
        ],
        ids=["action-sizes", "truth-psne", "grid-int64", "grid-float64", "delta", "q-star"],
    )
    def test_numpy_values_stored_as_python_numbers(self, fields, stored):
        # each of these once ran every trial, then failed to write its meta
        config = ExperimentConfig(kind="recovery", n=3, k=2, m_schedule=(5,), trials=2, **fields)
        (name,) = fields
        # repr tells np.int64(2) from 2 and np.float32(0.1) from its float
        assert repr(getattr(config, name)) == repr(stored)
        assert run_recovery(config).meta["config"][name] == json.loads(json.dumps(stored))

    def test_numpy_fano_q_stored_as_float(self):
        config = ExperimentConfig(kind="fano", n=4, k=1, m_schedule=(0,), trials=1,
                                  fano_q=np.float32(0.25))
        assert type(config.fano_q) is float
        assert run_fano(config).meta["config"]["fano_q"] == 0.25

    def test_python_numbers_keep_their_form(self):
        # an integer grid writes [-1, 0, 1] in the meta, as it always did
        config = ExperimentConfig(kind="recovery", n=3, k=2, grid=(-1, 0, 1))
        assert config.grid == (-1, 0, 1) and all(type(v) is int for v in config.grid)
        assert dataclasses.asdict(ExperimentConfig(kind="gap")) == dataclasses.asdict(
            ExperimentConfig(kind="gap", grid=np.array([-1.0, 0.0, 1.0]))
        )

    def test_sizes_default_to_binary(self):
        config = ExperimentConfig(kind="fano", n=5, k=1, m_schedule=(0,), trials=1)
        assert config.sizes == (2, 2, 2, 2, 2)


RECOVERY = ExperimentConfig(
    kind="recovery",
    n=3,
    k=2,
    action_sizes=(2, 2, 2),
    q_star=0.7,
    m_schedule=(1, 400),
    trials=25,
    seed=11,
)


class TestRecovery:
    def test_deterministic(self):
        assert run_recovery(RECOVERY) == run_recovery(RECOVERY)

    def test_earlier_runs_never_change_output(self):
        base = run_recovery(RECOVERY)
        run_recovery(dataclasses.replace(RECOVERY, seed=12, m_schedule=(5,)))
        assert run_recovery(RECOVERY) == base

    def test_single_sample_recovers_less_than_many(self):
        table = run_recovery(RECOVERY)
        by_m = dict(table.values("superset"))
        assert by_m[1] < by_m[400]
        assert by_m[400] >= 0.9

    def test_frequencies_and_stderr_well_formed(self):
        table = run_recovery(RECOVERY)
        for row in table.rows:
            assert 0.0 <= row.value <= 1.0
            expected = math.sqrt(row.value * (1 - row.value) / row.trials)
            assert row.stderr == pytest.approx(expected, abs=1e-15)

    def test_explicit_truth_must_be_realizable(self):
        # {0, 1} is not a PSNE set of any single-parent game on the
        # nonnegative grid, so recovery against it is ill-posed
        config = ExperimentConfig(
            kind="recovery",
            n=3,
            k=1,
            action_sizes=(2, 2, 2),
            grid=(0.0, 1.0),
            m_schedule=(5,),
            trials=2,
            truth_psne=(0, 1),
        )
        with pytest.raises(ConfigError, match="ill-posed"):
            run_recovery(config)

    def test_inadmissible_q_star_rejected(self):
        config = ExperimentConfig(
            kind="recovery",
            n=2,
            k=1,
            action_sizes=(2, 2),
            q_star=0.45,  # at most 0.5 of mass fits a 2-set on 4 actions
            m_schedule=(5,),
            trials=2,
            truth_psne=(0, 3),
        )
        with pytest.raises(ConfigError, match="admissible"):
            run_recovery(config)

    def test_meta_echoes_inputs(self):
        table = run_recovery(RECOVERY)
        assert table.meta["seed"] == 11
        assert table.meta["config"]["kind"] == "recovery"
        assert table.meta["derived"]["family_size"] > 0


class TestExactLaw:
    """The recovery and gap harnesses against the exact law of the MLE on
    the n=2, k=1 binary class (|A| = 4, 14 candidate sets), one truth of
    each size.  The oracle sums over every histogram, so it shares neither
    the seeding nor the sampler nor the tally with the harnesses.  Cells,
    seeds, trial count and z bound were fixed before the first run; every
    cell is reported when one misses."""

    TRUTHS = (((0,), 0.5), ((0, 3), 0.7), ((1, 2, 3), 0.85))
    M_SCHEDULE, TRIALS, Z = (5, 20, 50), 2000, 4.0

    def test_frequencies_and_mean_gap_within_z_of_exact(self):
        cells, misses = [], []
        family = enumerate_psne_sets(2, 1, ())
        for truth_psne, q in self.TRUTHS:
            shared = dict(
                n=2, k=1, truth_psne=truth_psne, q_star=q,
                m_schedule=self.M_SCHEDULE, trials=self.TRIALS,
            )
            recovery = run_recovery(ExperimentConfig(kind="recovery", seed=0, **shared))
            gap = run_generalization_gap(ExperimentConfig(kind="gap", seed=1, **shared))
            truth = MixtureModel(family.space, PsneSet(truth_psne), q)
            tables = {name: recovery for name in ("superset", "exact", "subset")}
            tables["gap_mean"] = gap
            for m in self.M_SCHEDULE:
                law = exact_recovery(family, truth, m)
                for metric, table in tables.items():
                    (got,) = [value for mm, value in table.values(metric) if mm == m]
                    want = law[metric]
                    if metric == "gap_mean":
                        spread, slack = law["gap_sd"], 0.0
                    else:  # a binomial frequency, with half a trial of slack
                        spread, slack = math.sqrt(want * (1.0 - want)), 0.5 / self.TRIALS
                    bound = self.Z * spread / math.sqrt(self.TRIALS) + slack
                    cell = f"{truth_psne} q={q} m={m} {metric}: {got:.4f}, exact {want:.4f}"
                    cells.append(f"{cell}, z={(got - want) / (bound / self.Z):+.2f}")
                    if abs(got - want) > bound:
                        misses.append(cell)
        assert not misses, "\n".join(["outside the bound:"] + misses + ["every cell:"] + cells)


class TestGeneralizationGap:
    def test_gap_nonnegative_and_shrinking(self):
        config = ExperimentConfig(
            kind="gap",
            n=3,
            k=2,
            action_sizes=(2, 2, 2),
            q_star=0.7,
            m_schedule=(10, 500),
            trials=25,
            seed=7,
        )
        table = run_generalization_gap(config)
        mins = dict(table.values("gap_min"))
        assert all(v >= 0.0 for v in mins.values())
        means = {r.m: r for r in metric_rows(table, "gap_mean")}
        slack = 3 * (means[10].stderr + means[500].stderr)
        assert means[500].value <= means[10].value + slack
        quantiles = dict(table.values("gap_quantile"))
        assert quantiles[500] <= quantiles[10]

    def test_deterministic(self):
        config = ExperimentConfig(
            kind="gap", n=2, k=1, m_schedule=(5, 20), trials=5, seed=3
        )
        assert run_generalization_gap(config) == run_generalization_gap(config)


class TestFano:
    CONFIG = ExperimentConfig(
        kind="fano", n=5, k=1, m_schedule=(0, 10), trials=200, seed=19
    )

    def test_blind_decoder_error_matches_uniform_guess(self):
        table = run_fano(self.CONFIG)
        row = metric_rows(table, "map_error")[0]
        assert row.m == 0
        expected = 1.0 - 1.0 / 5.0
        assert abs(row.value - expected) <= 3 * row.stderr + 1e-12

    def test_error_dominates_bound(self):
        table = run_fano(self.CONFIG)
        errors = {r.m: r for r in metric_rows(table, "map_error")}
        bounds = dict(table.values("fano_bound"))
        for m, row in errors.items():
            assert row.value >= bounds[m] - 3 * row.stderr

    def test_deterministic(self):
        assert run_fano(self.CONFIG) == run_fano(self.CONFIG)

    def test_q_override_flows_through(self):
        config = ExperimentConfig(
            kind="fano", n=4, k=1, m_schedule=(0,), trials=3, seed=1, fano_q=0.3
        )
        table = run_fano(config)
        assert table.meta["derived"]["q"] == 0.3
        # |A| = 16: the interval (1/16, 1 - 1/32] is closed above, open below
        top = run_fano(dataclasses.replace(config, fano_q=1 - 1 / 32))
        assert top.meta["derived"]["q"] == 1 - 1 / 32
        with pytest.raises(ConfigError, match="inadmissible"):
            run_fano(dataclasses.replace(config, fano_q=1 / 16))

    def test_large_hypothesis_count_switches_to_sampling(self):
        # C(30, 4) = 27405 candidates: too many to enumerate, so the hidden
        # set is drawn uniformly instead; everything stays deterministic
        config = ExperimentConfig(
            kind="fano", n=30, k=4, m_schedule=(0, 2), trials=4, seed=2
        )
        table = run_fano(config)
        assert table.meta["derived"]["enumerated"] is False
        assert table.meta["derived"]["hypothesis_count"] == 27405
        assert run_fano(config) == table


class TestFanoPins:
    """`run_fano` tables recorded on the per-trial decoding loop that the
    blocked loop replaced; blocks must not move a single value."""

    def rows(self, config):
        return [(r.m, r.metric, r.value, r.stderr, r.trials) for r in run_fano(config).rows]

    def test_non_binary_enumerated(self):
        config = ExperimentConfig(
            kind="fano", n=5, k=2, action_sizes=(3, 2, 2, 3, 2),
            m_schedule=(0, 5, 40, 200), trials=30, seed=7,
        )
        assert self.rows(config) == [
            (0, "map_error", 0.9333333333333333, 0.045542003404264876, 30),
            (0, "fano_bound", 0.6989700043360189, 0.0, 30),
            (5, "map_error", 0.8666666666666667, 0.06206328908341751, 30),
            (5, "fano_bound", 0.6773368843100471, 0.0, 30),
            (40, "map_error", 0.5666666666666667, 0.09047201327032126, 30),
            (40, "fano_bound", 0.5259050441282443, 0.0, 30),
            (200, "map_error", 0.5333333333333333, 0.09108400680852977, 30),
            (200, "fano_bound", 0.0, 0.0, 30),
        ]

    def test_sampled_branch_past_one_block(self):
        # C(16, 8) = 12,870 sets: pi is sampled.  m = 3000 decodes blocks of
        # two trials, m = 9000 > SAMPLE_BLOCK blocks of one.
        assert SAMPLE_BLOCK // 3000 == 2 and 9000 > SAMPLE_BLOCK
        config = ExperimentConfig(
            kind="fano", n=16, k=8, m_schedule=(0, 10, 60, 3000, 9000),
            trials=8, seed=11, fano_q=0.02,
        )
        assert run_fano(config).meta["derived"]["enumerated"] is False
        assert self.rows(config) == [
            (0, "map_error", 1.0, 0.0, 8),
            (0, "fano_bound", 0.926749180669454, 0.0, 8),
            (10, "map_error", 0.875, 0.11692679333668567, 8),
            (10, "fano_bound", 0.7747170588650464, 0.0, 8),
            (60, "map_error", 0.75, 0.15309310892394862, 8),
            (60, "fano_bound", 0.014556449843008301, 0.0, 8),
            (3000, "map_error", 0.0, 0.0, 8),
            (3000, "fano_bound", 0.0, 0.0, 8),
            (9000, "map_error", 0.0, 0.0, 8),
            (9000, "fano_bound", 0.0, 0.0, 8),
        ]


class TestFanoBuildsDrawnGames:
    """An enumerated run builds and verifies the game of each pi its trials
    draw, once, and never the game of a pi no trial draws."""

    @staticmethod
    def drawn(config):
        """The pi indices the run's trials draw, each from the first of its
        trial's numpy-seeded streams."""
        count = math.comb(config.n, config.k)
        return {
            int(pi_rng.integers(count))
            for mi in range(len(config.m_schedule))
            for pi_rng, _ in trial_rngs(config.seed, mi, config.trials, 2)
        }

    @pytest.mark.parametrize(
        "config",
        [
            ExperimentConfig(kind="fano", n=16, k=2, m_schedule=(0, 50), trials=3, seed=4),
            ExperimentConfig(kind="fano", n=4, k=1, m_schedule=(0, 3), trials=6, seed=5),
            ExperimentConfig(
                kind="fano", n=5, k=2, action_sizes=(3, 2, 2, 3, 2),
                m_schedule=(0, 5, 40, 200), trials=30, seed=7,
            ),
        ],
        ids=["n16k2-few-trials", "n4k1", "non-binary"],
    )
    def test_builds_each_drawn_pi_once(self, monkeypatch, config):
        built = []

        def counted(n, k, pi, action_sizes=None):
            built.append(tuple(pi))
            return influence_game(n, k, pi, action_sizes)

        monkeypatch.setattr(experiments, "influence_game", counted)
        table = run_fano(config)
        assert table.meta["derived"]["enumerated"] is True
        pis = all_influence_sets(config.n, config.k)
        drawn = self.drawn(config)
        assert len(built) == len(drawn) == len(set(built))
        assert set(built) == {pis[j] for j in drawn}
        if config.n == 16:
            # at most 6 of C(16, 2) = 120 sets are drawn, and only they are built
            assert len(built) <= 6 < len(pis)


class TestTrialSeeding:
    """The vectorized seeding pass against numpy's own SeedSequence and
    `default_rng`, one trial at a time."""

    MASTERS = (0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**128 + 7, 2**200)
    M_INDICES = (0, 7, 2**32 + 1)
    # trial ranges on one side of 2**32, where an index takes a second word
    RANGES = ((0, 50), (2**32 - 1, 2**32), (2**32, 2**32 + 1), (2**40, 2**40 + 1))

    @staticmethod
    def assert_default_rngs(generators, seeds):
        for rng, seed in zip(generators, seeds, strict=True):
            assert rng.bit_generator.state == np.random.default_rng(seed).bit_generator.state

    @pytest.mark.parametrize("streams", [1, 2])
    def test_generators_equal_default_rng(self, streams):
        for master in self.MASTERS:
            for mi in self.M_INDICES:
                for lo, hi in self.RANGES:
                    words = _seed_words(master, mi, lo, hi, streams)
                    assert words.shape == (hi - lo, streams, 4)
                    for ti, rngs in zip(range(lo, hi), _generators(words), strict=True):
                        self.assert_default_rngs(rngs, _trial_words(master, mi, ti, streams))

    def test_sub_seed_words(self):
        seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
        low = np.array([s & 0xFFFFFFFF for s in seeds], dtype=np.uint32)
        high = np.array([s >> 32 for s in seeds], dtype=np.uint32)
        (rngs,) = _generators(_pcg64_words(low, high)[None])
        self.assert_default_rngs(rngs, seeds)

    @staticmethod
    def oracle_table(monkeypatch, runner, config):
        """The run with every trial seeded by numpy, one call per sub-seed."""
        with monkeypatch.context() as patch:
            patch.setattr(experiments, "_trial_rngs", trial_rngs)
            return runner(config)

    @pytest.mark.parametrize("trials", [SEED_CHUNK - 1, SEED_CHUNK, SEED_CHUNK + 1])
    def test_chunk_edges_match_oracle(self, monkeypatch, trials):
        fano = ExperimentConfig(kind="fano", n=4, k=1, m_schedule=(0, 3), trials=trials, seed=3)
        recovery = ExperimentConfig(
            kind="recovery", n=2, k=1, m_schedule=(2,), trials=trials, seed=4
        )
        for runner, config in ((run_fano, fano), (run_recovery, recovery)):
            assert runner(config) == self.oracle_table(monkeypatch, runner, config)

    @pytest.mark.parametrize("n, k", [(5, 2), (30, 5)], ids=["enumerated", "sampled"])
    def test_fano_branches_match_oracle(self, monkeypatch, n, k):
        assert (math.comb(n, k) > ENUMERATE_PI_LIMIT) == (n == 30)
        config = ExperimentConfig(kind="fano", n=n, k=k, m_schedule=(0, 4, 40), trials=25, seed=9)
        table = run_fano(config)
        assert table.meta["derived"]["enumerated"] == (n == 5)
        assert table == self.oracle_table(monkeypatch, run_fano, config)

    def test_gap_matches_oracle(self, monkeypatch):
        config = ExperimentConfig(kind="gap", n=3, k=1, m_schedule=(3, 30), trials=20, seed=2**40)
        table = run_generalization_gap(config)
        assert table == self.oracle_table(monkeypatch, run_generalization_gap, config)


class TestBlocksMatchPerTrialLoops:
    """Whole tables of the blocked harnesses against the per-trial loops in
    `helpers`, on schedules whose blocks leave a partial block, and that
    cross SAMPLE_BLOCK, past which one trial's draw streams in chunks."""

    EDGES = (SAMPLE_BLOCK - 1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1)

    @staticmethod
    def assert_partial_blocks(config, width):
        """Some m splits the trials into blocks of more than one trial with
        a partial last block: SAMPLE_BLOCK // (m + width) trials a block."""
        rows = [max(1, SAMPLE_BLOCK // max(m + width, 1)) for m in config.m_schedule]
        assert any(1 < b < config.trials and config.trials % b for b in rows)
        assert rows[-1] == 1

    @pytest.mark.parametrize(
        "n, k, sizes, trials",
        [(2, 1, (2, 3), 85), (3, 2, (2, 2, 2), 19)],
        ids=["2x3", "binary"],
    )
    def test_recovery_and_gap(self, n, k, sizes, trials):
        # |A| = 6 and 8: m = 1 and 5 lie below it, the rest at or above it
        config = ExperimentConfig(
            kind="recovery", n=n, k=k, action_sizes=sizes,
            m_schedule=(1, 5, 40, *self.EDGES), trials=trials, seed=13,
        )
        family = enumerate_psne_sets(n, k, sizes)
        self.assert_partial_blocks(config, family.space.joint_size + family.indices.size)
        assert run_recovery(config) == per_trial_recovery(config)
        gap = dataclasses.replace(config, kind="gap")
        assert run_generalization_gap(gap) == per_trial_gap(gap)

    @pytest.mark.parametrize(
        "n, k, sizes",
        [(5, 2, (3, 2, 2, 3, 2)), (16, 8, ())],
        ids=["enumerated-non-binary", "sampled"],
    )
    def test_fano(self, n, k, sizes):
        # |A| = 72: m = 1 and 50 lie below it, the rest at or above it;
        # |A| = 2**16 lies above every m
        config = ExperimentConfig(
            kind="fano", n=n, k=k, action_sizes=sizes,
            m_schedule=(0, 1, 50, 100, 3000, *self.EDGES), trials=83, seed=17,
        )
        self.assert_partial_blocks(config, 0)
        table = run_fano(config)
        assert table.meta["derived"]["enumerated"] == (n == 5)
        assert table == per_trial_fano(config)


class TestFitTrials:
    """The trial loop fits each draw from its tally; the old formula fits
    the materialized sample, and the two must agree trial by trial."""

    EDGES = (SAMPLE_BLOCK - 1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1, 3 * SAMPLE_BLOCK + 7)

    @pytest.mark.parametrize(
        "sizes, small",
        [((2, 2, 2), (1, 3, 7)), ((3, 2, 2), (1, 5, 11))],  # each m < |A|
        ids=["binary", "3-2-2"],
    )
    def test_matches_fit_of_materialized_sample(self, sizes, small):
        config = ExperimentConfig(
            kind="gap",
            n=3,
            k=2,
            action_sizes=sizes,
            m_schedule=small + self.EDGES,
            trials=3,
            seed=5,
        )
        family, truth, trials, _ = _fit_trials(config)
        assert [m for m, _ in trials] == list(config.m_schedule)
        for mi, (m, fits) in enumerate(trials):
            assert all(len(column) == config.trials for column in fits)
            for ti, (best, q_hat, objective, clamped) in enumerate(zip(*fits)):
                fit = FitResult(family[int(best)], float(q_hat), float(objective), bool(clamped))
                (data_seed,) = _trial_words(config.seed, mi, ti, 1)
                assert fit == fit_mle(family, truth.sample(m, data_seed))

    def test_fit_counts_input_errors(self):
        family = enumerate_psne_sets(2, 1, (2, 2))
        fit = fit_counts(family, [3, 0, 1, 0])
        assert fit == fit_counts(family, np.array([3, 0, 1, 0], dtype=np.int64))
        length = "expected 4 observation counts, one per joint action"
        cases = {
            "wrong length": (family, [3, 0, 1], length),
            "all zeros": (family, [0, 0, 0, 0], "cannot fit on an empty dataset"),
            "negative count": (family, [3, -1, 1, 0], "must be nonnegative"),
            "non-integer count": (family, [3.5, 0, 1, 0], "must be an integer"),
            # counts of a (2, 3) space against a (2, 2) family
            "mismatched family": (family, [1, 0, 0, 0, 0, 2], length),
            # int64 sums of these would wrap to 0 and to -2**63
            "total past int64": (family, [2**62] * 4, f"total {2**64}, past int64"),
            "total at 2**63": (family, [2**62, 2**62, 0, 0], "past int64"),
            "empty family": (
                enumerate_psne_sets(2, 1, (2, 2), grid=(0.0,)),
                [1, 0, 0, 0],
                "empty candidate family",
            ),
        }
        for fam, counts, message in cases.values():
            with pytest.raises(InputError, match=message):
                fit_counts(fam, counts)


class TestDispatcher:
    def test_routes_by_kind(self):
        config = ExperimentConfig(
            kind="fano", n=4, k=1, m_schedule=(0,), trials=2, seed=0
        )
        assert run_experiment(config) == run_fano(config)

    def test_kind_mismatch_rejected(self):
        config = ExperimentConfig(
            kind="fano", n=4, k=1, m_schedule=(0,), trials=2, seed=0
        )
        with pytest.raises(ConfigError):
            run_recovery(config)
