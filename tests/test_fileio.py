import json
import os

import numpy as np
import pytest

from psne_learn import (
    ActionSpace,
    CapacityError,
    ConfigError,
    Dataset,
    ExperimentConfig,
    InputError,
    MixtureModel,
    PolymatrixGame,
    PsneSet,
    enumerate_psne_sets,
    fit_mle,
    run_fano,
)
from psne_learn.fileio import (
    parse_config,
    read_dataset,
    read_family,
    read_fit,
    read_game,
    read_results_json,
    write_dataset,
    write_family,
    write_fit,
    write_game,
    write_results,
)

from helpers import per_row_dataset_text, per_row_read_dataset

SPACE4 = ActionSpace((2, 2))


class TestGameRoundTrip:
    def test_lossless(self, tmp_path):
        game = PolymatrixGame(
            (2, 3),
            neighbors={1: [2], 2: [1]},
            unary={1: [0.0, -1.25], 2: [0.5, 1.0 / 3.0, 0.0]},
            pairwise={(1, 2): [[0, 0.1, 0], [1, -2, 0.25]], (2, 1): np.ones((3, 2))},
        )
        path = tmp_path / "game.json"
        write_game(str(path), game)
        assert read_game(str(path)) == game

    def test_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "actions": [2]}))
        with pytest.raises(InputError):
            read_game(str(path))

    @pytest.mark.parametrize(
        "key, value", [("n", 2.5), ("neighbors", {"1": [2.7], "2": []})]
    )
    def test_non_integer_player_numbers_rejected(self, tmp_path, key, value):
        path = tmp_path / "game.json"
        write_game(str(path), PolymatrixGame((2, 2), neighbors={1: [2]}))
        payload = json.loads(path.read_text())
        path.write_text(json.dumps({**payload, key: value}))
        with pytest.raises(InputError, match=r"game\.json.*must be an integer"):
            read_game(str(path))


@pytest.mark.parametrize("content", ["{bad", "{}"])
@pytest.mark.parametrize(
    "reader", [read_game, read_family, read_fit, read_results_json],
    ids=lambda f: f.__name__,
)
def test_malformed_json_names_the_file(tmp_path, reader, content):
    path = tmp_path / "input.json"
    path.write_text(content)
    with pytest.raises(InputError, match="input.json"):
        reader(str(path))


class TestDatasetRoundTrip:
    def test_lossless(self, tmp_path):
        data = Dataset.from_actions(ActionSpace((2, 3)), [(1, 3), (2, 1), (2, 2)])
        path = tmp_path / "data.csv"
        write_dataset(str(path), data)
        assert path.read_text() == "player_1,player_2\n1,3\n2,1\n2,2\n"
        assert read_dataset(str(path), ActionSpace((2, 3))) == data

    def test_header_required(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("p1,p2\n1,1\n")
        with pytest.raises(InputError, match=":1"):
            read_dataset(str(path))

    def test_arity_mismatch_names_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("player_1,player_2\n1,1\n1,1,2\n")
        with pytest.raises(InputError, match=":3"):
            read_dataset(str(path))

    def test_non_integer_cell(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("player_1,player_2\n1,x\n")
        with pytest.raises(InputError, match=":2"):
            read_dataset(str(path))

    def test_zero_action_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("player_1,player_2\n0,1\n")
        with pytest.raises(InputError, match=":2"):
            read_dataset(str(path))

    def test_out_of_range_against_space(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("player_1,player_2\n1,3\n")
        with pytest.raises(InputError, match=":2"):
            read_dataset(str(path), SPACE4)

    def test_space_inferred_from_columns(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("player_1,player_2\n1,3\n2,1\n")
        data = read_dataset(str(path))
        assert data.space.counts == (2, 3)

    def test_inferred_space_past_int64(self, tmp_path):
        # a column maximum past int64 is a capacity error, not an OverflowError
        path = tmp_path / "data.csv"
        path.write_text("player_1,player_2\n1,99999999999999999999\n")
        with pytest.raises(CapacityError, match="int64 indexing reached"):
            read_dataset(str(path))

    def test_line_number_after_multiline_cell(self, tmp_path):
        # the quoted "1\n" spans lines 2-3, so the bad row is on line 4
        path = tmp_path / "data.csv"
        path.write_text('player_1,player_2,player_3\n"1\n",2,1\n1,2,9\n')
        message = f"{path}:4: action 9 for player 3 out of range"
        for reader in (read_dataset, per_row_read_dataset):
            with pytest.raises(InputError) as err:
                reader(str(path), ActionSpace((2, 2, 2)))
            assert str(err.value) == message


def _read_outcome(reader, path, space):
    """What a dataset reader makes of a file: its InputError text, or the
    dataset's space and indices."""
    try:
        data = reader(str(path), space)
    except InputError as exc:
        return ("error", str(exc))
    return ("data", data.space.counts, data.indices.tolist())


class TestDatasetOracles:
    """`write_dataset` and `read_dataset` work once per distinct joint
    action; the per-row oracles in helpers work once per row."""

    def spaces(self, rng):
        fixed = [(2,), (2, 2), (12, 3), (2, 10, 4)]
        drawn = [
            tuple(int(s) for s in rng.integers(2, 6, size=int(rng.integers(1, 6))))
            for _ in range(4)
        ]
        return [ActionSpace(sizes) for sizes in fixed + drawn]

    def test_matches_per_row_oracles(self, tmp_path):
        rng = np.random.default_rng(9)
        path = tmp_path / "data.csv"
        for space in self.spaces(rng):
            joint = space.joint_size
            for m in (0, 1, 1000):
                # indices over the whole space, or over a few distinct ones
                for width in (joint, min(3, joint)):
                    pool = rng.choice(joint, size=width, replace=False)
                    data = Dataset(space, rng.choice(pool, size=m))
                    write_dataset(str(path), data)
                    assert path.read_bytes() == per_row_dataset_text(data).encode()
                    assert read_dataset(str(path), space) == data
                    for given in (space, None):
                        assert read_dataset(str(path), given) == per_row_read_dataset(
                            str(path), given
                        )


# header player_1..player_3 against the space (3, 2, 12):
# id -> (rows after the header, error line with the space, error line without)
MALFORMED = {
    "arity": ("1,2,3\n1,2\n", 3, 3),
    "non-integer": ("1,2,3\n1,x,3\n", 3, 3),
    "underscore": ("1,2,3\n1,2,1_0\n", 3, 3),
    "arabic-indic-digit": ("1,2,3\n1,2,\u0661\n", 3, 3),
    "padded": ("1,2,3\n1, 2\t,3\n", None, None),
    "non-ascii-space": ("1,2,3\n1,\u00a02,3\n", 3, 3),
    "sign-only": ("1,2,3\n1,+,3\n", 3, 3),
    "plus-sign": ("1,2,3\n+1,2,3\n", None, None),
    "zero": ("1,2,3\n0,1,1\n", 3, 3),
    "negative": ("1,2,3\n1,1,-4\n", 3, 3),
    "above-space": ("1,2,3\n1,2,13\n", 3, None),
    "after-repeats": ("1,2,3\n" * 500 + "3,1,x\n", 502, 502),
    "repeated-bad": ("1,2,3\n0,1,1\n1,2,3\n1,2,3\n0,1,1\n", 3, 3),
    "repeated-above-space": ("1,2,3\n1,2,13\n1,2,3\n1,2,13\n", 3, None),
    "good-then-bad-after-blank": ("1,2,3\n\n1,2,3\n\n3,3,1\n", 6, None),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_rows_match_per_row_oracle(tmp_path, case):
    rows, line_with_space, line_without = MALFORMED[case]
    path = tmp_path / "data.csv"
    path.write_text("player_1,player_2,player_3\n" + rows)
    for space, line in ((ActionSpace((3, 2, 12)), line_with_space), (None, line_without)):
        outcome = _read_outcome(read_dataset, path, space)
        assert outcome == _read_outcome(per_row_read_dataset, path, space)
        if line is None:
            assert outcome[0] == "data"
        else:
            assert outcome[0] == "error"
            assert outcome[1].startswith(f"{path}:{line}: ")


@pytest.mark.parametrize(
    "content", ["", "p1,p2,p3\n1,1,1\n", "player_1,player_2\n1,1\n"],
    ids=["empty", "bad-header", "header-arity"],
)
def test_malformed_header_matches_per_row_oracle(tmp_path, content):
    path = tmp_path / "data.csv"
    path.write_text(content)
    for space in (ActionSpace((3, 2, 12)), None):
        outcome = _read_outcome(read_dataset, path, space)
        assert outcome == _read_outcome(per_row_read_dataset, path, space)
        if space is not None:
            assert outcome[0] == "error" and outcome[1].startswith(f"{path}:1: ")


class TestFamilyAndFit:
    def test_family_round_trip(self, tmp_path):
        family = enumerate_psne_sets(2, 1, (2, 2))
        path = tmp_path / "family.json"
        write_family(str(path), family)
        back = read_family(str(path))
        assert back.space == family.space
        assert [tuple(c) for c in back] == [tuple(c) for c in family]
        assert back.provenance == family.provenance

    def test_fit_round_trip(self, tmp_path):
        family = enumerate_psne_sets(2, 1, (2, 2))
        data = MixtureModel(SPACE4, PsneSet([0, 3]), 0.8).sample(100, 5)
        fit = fit_mle(family, data)
        path = tmp_path / "fit.json"
        write_fit(str(path), fit)
        assert read_fit(str(path)) == fit


class TestResults:
    def table(self):
        config = ExperimentConfig(
            kind="fano", n=4, k=1, m_schedule=(0, 3), trials=4, seed=2
        )
        return run_fano(config)

    def test_csv_layout_and_sidecar(self, tmp_path):
        table = self.table()
        path = tmp_path / "results.csv"
        write_results(str(path), table, "csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "m,metric,value,stderr,trials"
        assert len(lines) == 1 + len(table.rows)
        meta = json.loads((tmp_path / "results.csv.meta.json").read_text())
        assert meta == table.meta

    def test_rewrite_is_byte_identical(self, tmp_path):
        table = self.table()
        path = tmp_path / "results.csv"
        write_results(str(path), table, "csv")
        first = path.read_bytes()
        write_results(str(path), table, "csv")
        assert path.read_bytes() == first

    def test_json_round_trip(self, tmp_path):
        table = self.table()
        path = tmp_path / "results.json"
        write_results(str(path), table, "json")
        assert read_results_json(str(path)) == table

    def test_unknown_format(self, tmp_path):
        with pytest.raises(InputError):
            write_results(str(tmp_path / "x"), self.table(), "xml")

    def test_no_stray_temp_files(self, tmp_path):
        path = tmp_path / "results.csv"
        write_results(str(path), self.table(), "csv")
        leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]
        assert leftovers == []


class TestParseConfig:
    def test_file_plus_overrides(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# comment\n"
            "kind = recovery\n"
            "n = 3\n"
            "k = 1\n"
            "actions = 2,2,2\n"
            "grid = -1,0,1\n"
            "q = 0.8\n"
            "m_schedule = 1,10\n"
            "trials = 4\n"
        )
        config = parse_config(str(path), {"trials": 9, "seed": 5})
        assert config.kind == "recovery"
        assert config.action_sizes == (2, 2, 2)
        assert config.q_star == 0.8
        assert config.trials == 9
        assert config.seed == 5

    def test_flags_only_with_defaults(self):
        config = parse_config(None, {"kind": "recovery"})
        assert (config.n, config.k) == (4, 3)
        assert config.grid == (-1.0, 0.0, 1.0)
        assert config.q_star == 0.7

    def test_all_violations_reported(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("mood = blue\nn = maybe\nn = 4\n")
        with pytest.raises(ConfigError) as err:
            parse_config(str(path), {})
        message = str(err.value)
        assert "mood" in message and "duplicate" in message

    def test_missing_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            parse_config(None, {"n": 3})

    def test_unparseable_value(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("kind = fano\ntrials = soon\n")
        with pytest.raises(ConfigError, match="trials"):
            parse_config(str(path), {})

    def test_resolution_is_deterministic(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("kind = fano\nn = 5\nk = 1\nm_schedule = 0,2\ntrials = 2\n")
        assert parse_config(str(path), {}) == parse_config(str(path), {})
