import json
import math
import re
from pathlib import Path

import pytest

from psne_learn import cli, fano_pair_kl
from psne_learn.cli import main
from psne_learn.experiments import ExperimentConfig, ResultTable
from psne_learn.fileio import EXPERIMENT_KEYS, read_dataset, read_family, read_fit

# a joint-action count past float range
HUGE_JOINT = "1" + "0" * 400


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPipeline:
    def test_enumerate_sample_fit(self, tmp_path, capsys):
        family_path = str(tmp_path / "family.json")
        data_path = str(tmp_path / "data.csv")
        fit_path = str(tmp_path / "fit.json")

        code, _, err = run(
            capsys,
            "enumerate", "--n", "2", "--k", "1", "--actions", "2,2",
            "--grid", "-1,0,1", "--out", family_path,
        )
        assert code == 0
        assert err.startswith("config: ")
        family = read_family(family_path)
        assert len(family) == 14

        code, _, _ = run(
            capsys,
            "sample", "--family", family_path, "--psne", "0", "--q", "0.7",
            "--m", "500", "--seed", "7", "--out", data_path,
        )
        assert code == 0
        data = read_dataset(data_path, family.space)
        assert data.m == 500

        code, _, _ = run(
            capsys,
            "fit", "--family", family_path, "--data", data_path, "--out", fit_path,
        )
        assert code == 0
        fit = read_fit(fit_path)
        assert tuple(fit.psne) == (0,)

    def test_malformed_family_json_exit_code(self, tmp_path, capsys):
        family_path = tmp_path / "family.json"
        family_path.write_text("{bad")
        code, _, err = run(
            capsys,
            "fit", "--family", str(family_path), "--data", str(tmp_path / "d.csv"),
            "--out", str(tmp_path / "fit.json"),
        )
        assert code == 2
        assert "input error" in err and str(family_path) in err
        assert "Traceback" not in err

    def test_undecodable_data_exit_code(self, tmp_path, capsys):
        family_path = str(tmp_path / "family.json")
        run(capsys, "enumerate", "--n", "2", "--k", "1", "--out", family_path)
        data_path = tmp_path / "data.csv"
        data_path.write_bytes(b"\xff\xfe\x00bad")
        code, _, err = run(
            capsys,
            "fit", "--family", family_path, "--data", str(data_path),
            "--out", str(tmp_path / "fit.json"),
        )
        assert code == 2
        assert "input error" in err and str(data_path) in err
        assert "Traceback" not in err

    def test_sample_index_out_of_range(self, tmp_path, capsys):
        family_path = str(tmp_path / "family.json")
        run(capsys, "enumerate", "--n", "2", "--k", "0", "--out", family_path)
        code, _, err = run(
            capsys,
            "sample", "--family", family_path, "--psne", "99", "--q", "0.7",
            "--m", "10", "--out", str(tmp_path / "d.csv"),
        )
        assert code == 2
        assert "input error" in err

    def test_negative_seed_exit_code(self, tmp_path, capsys):
        family_path = str(tmp_path / "family.json")
        run(capsys, "enumerate", "--n", "2", "--k", "0", "--out", family_path)
        code, _, err = run(
            capsys,
            "sample", "--family", family_path, "--psne", "0", "--q", "0.7",
            "--m", "10", "--seed", "-1", "--out", str(tmp_path / "d.csv"),
        )
        assert code == 2
        assert "input error" in err and "Traceback" not in err


    def test_fit_names_the_line_after_a_multiline_cell(self, tmp_path, capsys):
        family_path = str(tmp_path / "family.json")
        run(capsys, "enumerate", "--n", "3", "--k", "0", "--out", family_path)
        data_path = tmp_path / "data.csv"
        data_path.write_text('player_1,player_2,player_3\n"1\n",2,1\n1,2,9\n')
        code, _, err = run(
            capsys,
            "fit", "--family", family_path, "--data", str(data_path),
            "--out", str(tmp_path / "fit.json"),
        )
        assert code == 2
        assert f"{data_path}:4: action 9 for player 3 out of range" in err


class TestTheory:
    def test_single_quantity(self, capsys):
        code, out, _ = run(
            capsys, "theory", "--beta", "--r", "2", "--q", "0.75", "--joint", "4"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload.keys() == {"beta"}
        assert abs(payload["beta"] - 0.1169925001442313) < 1e-12

    def test_combined_quantities(self, capsys):
        code, out, _ = run(
            capsys,
            "theory", "--fano-kl", "--q", "0.5", "--joint", "4",
            "--m-sufficient", "--eps", "0.1", "--delta", "0.05", "--d-h", "100",
            "--fano-bound", "--m", "0", "--n", "6", "--k", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["m_sufficient"] == 1798
        assert set(payload) == {"kl", "m_sufficient", "fano_bound"}

    def test_echo_lists_every_option(self, capsys):
        code, _, err = run(
            capsys, "theory", "--beta", "--r", "2", "--q", "0.75", "--joint", "4"
        )
        assert code == 0
        echo = json.loads(err.splitlines()[0].removeprefix("config: "))
        assert echo["subcommand"] == "theory"
        assert (echo["r"], echo["q"], echo["joint"]) == (2, 0.75, 4)
        assert echo["eps"] is None and echo["fano_kl"] is False
        assert "func" not in echo

    def test_missing_selector(self, capsys):
        code, _, err = run(capsys, "theory")
        assert code == 2 and "input error" in err

    def test_missing_arguments_listed(self, capsys):
        code, _, err = run(capsys, "theory", "--beta", "--r", "2")
        assert code == 2
        assert "--q" in err and "--joint" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--beta", "--r", "1", "--q", "0.5", "--joint", "4"),
            ("--fano-bound", "--m", "5", "--n", "3", "--k", "1", "--joint", "0"),
            ("--beta", "--r", "2", "--q", "0.75", "--joint", HUGE_JOINT),
            ("--fano-kl", "--q", "0.5", "--joint", HUGE_JOINT),
            ("--fano-bound", "--m", "5", "--n", "3", "--k", "1", "--joint", HUGE_JOINT),
        ],
        ids=["beta", "fano-bound", "beta-huge", "fano-kl-huge", "fano-bound-huge"],
    )
    def test_domain_error_maps_to_input_exit(self, capsys, argv):
        code, _, err = run(capsys, "theory", *argv)
        assert code == 2
        assert "input error" in err and "Traceback" not in err


class TestExperiment:
    def test_flags_only(self, tmp_path, capsys):
        out = str(tmp_path / "res.csv")
        code, _, err = run(
            capsys,
            "experiment", "--kind", "fano", "--n", "4", "--k", "1",
            "--m-schedule", "0,2", "--trials", "3", "--seed", "1", "--out", out,
        )
        assert code == 0
        lines = Path(out).read_text().splitlines()
        assert lines[0] == "m,metric,value,stderr,trials"
        assert json.loads(Path(out + ".meta.json").read_text())["seed"] == 1

    def test_config_error_exit_code(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "experiment", "--kind", "warmup", "--out", str(tmp_path / "r.csv"),
        )
        assert code == 3
        assert "configuration error" in err

    def test_undecodable_config_exit_code(self, tmp_path, capsys):
        config_path = tmp_path / "exp.cfg"
        config_path.write_bytes(b"\xff\xfe\x00bad")
        code, _, err = run(
            capsys,
            "experiment", "--config", str(config_path), "--out", str(tmp_path / "r.csv"),
        )
        assert code == 3
        assert "configuration error" in err and str(config_path) in err
        assert "Traceback" not in err

    def test_joint_space_past_float_range(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "experiment", "--kind", "fano", "--n", "1100", "--k", "1",
            "--m-schedule", "0", "--trials", "1", "--out", str(tmp_path / "r.csv"),
        )
        assert code == 3
        assert "configuration error" in err and "float range" in err
        assert "Traceback" not in err

    def test_capacity_error_exit_code(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "experiment", "--kind", "recovery", "--n", "6", "--k", "1",
            "--actions", "8,8,8,8,8,8",
            "--m-schedule", "5", "--trials", "1", "--out", str(tmp_path / "r.csv"),
        )
        assert code == 4
        assert "capacity error" in err

    def test_io_error_exit_code(self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "deep" / "r.csv")
        code, _, err = run(
            capsys,
            "experiment", "--kind", "fano", "--n", "4", "--k", "1",
            "--m-schedule", "0", "--trials", "1",
            "--out", out,
        )
        assert code == 5
        assert "i/o error" in err
        assert out in err
        assert ".tmp-" not in err


# a first list value that is negative in exponent or leading-dot form
NEGATIVE_GRIDS = {"-1e-3,0,1": [-0.001, 0.0, 1.0], "-.5,1": [-0.5, 1.0]}


class TestParsing:
    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["theory", "--beta", "--r", "2", "--q", "0.75", "--joint", "4", "--frobnicate"])
        assert err.value.code == 2

    def test_enumerate_capacity_exit(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "enumerate", "--n", "2", "--k", "1", "--actions", "5,5",
            "--out", str(tmp_path / "f.json"),
        )
        assert code == 4
        assert re.search(
            r"capacity error: region build reached \d+ grid assignments, "
            r"ceiling is 10000000$",
            err,
        )

    @pytest.mark.parametrize("grid", list(NEGATIVE_GRIDS))
    def test_enumerate_negative_grid(self, tmp_path, capsys, grid):
        code, _, err = run(
            capsys,
            "enumerate", "--n", "2", "--k", "1", "--grid", grid,
            "--out", str(tmp_path / "f.json"),
        )
        assert code == 0
        echo = json.loads(err.splitlines()[0].removeprefix("config: "))
        assert echo["grid"] == NEGATIVE_GRIDS[grid]

    @pytest.mark.parametrize("grid", list(NEGATIVE_GRIDS))
    def test_experiment_negative_grid(self, monkeypatch, tmp_path, capsys, grid):
        monkeypatch.setattr(cli, "run_experiment", lambda config: ResultTable((), {}))
        code, _, err = run(
            capsys,
            "experiment", "--kind", "recovery", "--grid", grid,
            "--out", str(tmp_path / "r.csv"),
        )
        assert code == 0
        echo = json.loads(err.splitlines()[0].removeprefix("config: "))
        assert echo["grid"] == NEGATIVE_GRIDS[grid]


# one value per experiment setting, each different from its default
SETTING_VALUES = {
    "kind": "gap",
    "n": "5",
    "k": "2",
    "actions": "2,3,2,2",
    "grid": "-1,0.5,1",
    "q": "0.8",
    "m_schedule": "2,20",
    "trials": "3",
    "seed": "7",
    "delta": "0.05",
    "truth_psne": "0,5",
    "fano_q": "0.25",
}


def resolve(monkeypatch, tmp_path, argv) -> ExperimentConfig:
    """The ExperimentConfig `experiment argv` resolves, without running it."""
    seen = []

    def capture(config):
        seen.append(config)
        return ResultTable((), {})

    monkeypatch.setattr(cli, "run_experiment", capture)
    assert main(["experiment", *argv, "--out", str(tmp_path / "r.csv")]) == 0
    return seen[0]


class TestOneTable:
    def test_values_cover_every_key(self):
        assert SETTING_VALUES.keys() == EXPERIMENT_KEYS.keys()

    @pytest.mark.parametrize("key", list(SETTING_VALUES))
    def test_file_key_equals_flag(self, monkeypatch, tmp_path, capsys, key):
        base = "" if key == "kind" else "kind = recovery\n"
        with_key = tmp_path / "with_key.cfg"
        with_key.write_text(f"{base}{key} = {SETTING_VALUES[key]}\n")
        without = tmp_path / "without.cfg"
        without.write_text(base)
        flag = f"--{key.replace('_', '-')}"
        from_file = resolve(monkeypatch, tmp_path, ["--config", str(with_key)])
        from_flag = resolve(
            monkeypatch, tmp_path, ["--config", str(without), flag, SETTING_VALUES[key]]
        )
        assert from_file == from_flag
        field = EXPERIMENT_KEYS[key][0]
        default = ExperimentConfig(kind="recovery")
        assert getattr(from_flag, field) != getattr(default, field)

    @pytest.mark.parametrize("key", ["actions", "grid", "m_schedule", "truth_psne"])
    def test_bad_list_value(self, tmp_path, capsys, key):
        config = tmp_path / "exp.cfg"
        config.write_text(f"kind = recovery\n{key} = 1,x\n")
        code, _, err = run(
            capsys, "experiment", "--config", str(config), "--out", str(tmp_path / "r.csv")
        )
        assert code == 3
        assert "configuration error" in err and key in err
        flag = f"--{key.replace('_', '-')}"
        with pytest.raises(SystemExit) as exit_info:
            main(["experiment", "--kind", "recovery", flag, "1,x", "--out", "r.csv"])
        assert exit_info.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [(), ("enumerate",), ("sample",), ("fit",), ("theory",), ("experiment",)],
        ids=["top", "enumerate", "sample", "fit", "theory", "experiment"],
    )
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--help"])
        assert exit_info.value.code == 0
        assert "usage: psne-learn" in capsys.readouterr().out


# n past the index range of a tuple, a joint space past int64, and one
# past float range over many players
BIG_N = "99999999999999999999999"
HUGE_FAMILY = {"actions": [2, 99999999999999999999], "candidates": [[0]]}
WIDE_FAMILY = {"actions": [2] * 2000, "candidates": [[0]]}
# a joint space within int64 but past the fit histogram's ceiling
FORTY_FAMILY = {"actions": [2] * 40, "candidates": [[0]]}
# family files whose values are not all integers, and one over (12, 2)
FAMILY_FILES = {
    "family": HUGE_FAMILY,
    "wide": WIDE_FAMILY,
    "forty": FORTY_FAMILY,
    "half": {"actions": [2, 2], "candidates": [[0.5]]},
    "true": {"actions": [2, 2], "candidates": [[True]]},
    "past_int64": {"actions": [2, 2], "candidates": [[99999999999999999999]]},
    "text": {"actions": "22", "candidates": [[0]]},
    "twelve": {"actions": [12, 2], "candidates": [[0]]},
}

# one-row datasets over 2 and over 40 players, and two whose first cell
# `int` would read as an action (10 and 1)
DATA_FILES = {
    "data": "player_1,player_2\n1,1\n",
    "data40": "\n".join(
        [",".join(f"player_{p}" for p in range(1, 41)), ",".join(["1"] * 40), ""]
    ),
    "underscore": "player_1,player_2\n1_0,1\n",
    "arabic": "player_1,player_2\n\u0661,1\n",
}

# malformed inputs, each cheap in time and memory: argv, exit code and a
# piece of the stderr message; {out}, each DATA_FILES and each
# FAMILY_FILES key name temp files, in argv and in the message
MALFORMED = {
    "enumerate-n20000": (
        ["enumerate", "--n", "20000", "--k", "1", "--out", "{out}"],
        4,
        "family joint space reached 131072 joint actions, ceiling is 65536",
    ),
    "recovery-n20000": (
        ["experiment", "--kind", "recovery", "--n", "20000", "--k", "1", "--out", "{out}"],
        4,
        "family joint space reached 131072 joint actions, ceiling is 65536",
    ),
    "enumerate-n-past-index-range": (
        ["enumerate", "--n", BIG_N, "--k", "1", "--out", "{out}"],
        4,
        "family joint space reached 131072 joint actions",
    ),
    "enumerate-actions-past-str-range": (
        ["enumerate", "--n", "2", "--k", "1", "--actions", f"2,{HUGE_JOINT}", "--out", "{out}"],
        4,
        "-bit count of joint actions",
    ),
    "enumerate-game-ceiling": (
        ["enumerate", "--n", "2", "--k", "1", "--actions", "5,5", "--out", "{out}"],
        4,
        "region build reached",
    ),
    "fano-n-past-index-range": (
        ["experiment", "--kind", "fano", "--n", BIG_N, "--k", "1", "--out", "{out}"],
        3,
        "past float range",
    ),
    "fano-n64": (
        ["experiment", "--kind", "fano", "--n", "64", "--k", "30",
         "--m-schedule", "1", "--trials", "1", "--out", "{out}"],
        4,
        "int64 indexing reached 18446744073709551616 joint actions",
    ),
    "fano-n70": (
        ["experiment", "--kind", "fano", "--n", "70", "--k", "35",
         "--m-schedule", "1", "--trials", "1", "--out", "{out}"],
        4,
        "int64 indexing reached",
    ),
    "fano-n25": (
        ["experiment", "--kind", "fano", "--n", "25", "--k", "1", "--out", "{out}"],
        4,
        "PSNE sweep reached 33554432 joint actions, ceiling is 16777216",
    ),
    "sample-past-int64": (
        ["sample", "--family", "{family}", "--psne", "0", "--q", "0.5", "--m", "1",
         "--out", "{out}"],
        4,
        "int64 indexing reached",
    ),
    "fit-past-int64": (
        ["fit", "--family", "{family}", "--data", "{data}", "--out", "{out}"],
        4,
        "int64 indexing reached",
    ),
    "fit-past-histogram-ceiling": (
        ["fit", "--family", "{forty}", "--data", "{data40}", "--out", "{out}"],
        4,
        "fit histogram reached 1099511627776 joint actions, ceiling is 16777216",
    ),
    "sample-family-past-float-range": (
        ["sample", "--family", "{wide}", "--psne", "0", "--q", "0.5", "--m", "1",
         "--out", "{out}"],
        2,
        "joint size reached 1025 bits, past float range",
    ),
    "fit-family-half-index": (
        ["fit", "--family", "{half}", "--data", "{data}", "--out", "{out}"],
        2,
        "malformed family file {half}: joint-action index must be an integer, got 0.5",
    ),
    "fit-family-bool-index": (
        ["fit", "--family", "{true}", "--data", "{data}", "--out", "{out}"],
        2,
        "malformed family file {true}: joint-action index must be an integer, got True",
    ),
    "fit-family-index-past-int64": (
        ["fit", "--family", "{past_int64}", "--data", "{data}", "--out", "{out}"],
        2,
        "99999999999999999999..99999999999999999999 reach past int64",
    ),
    "fit-family-actions-string": (
        ["fit", "--family", "{text}", "--data", "{data}", "--out", "{out}"],
        2,
        "malformed family file {text}: action count must be an integer, got '2'",
    ),
    "fit-data-underscore": (
        ["fit", "--family", "{twelve}", "--data", "{underscore}", "--out", "{out}"],
        2,
        "{underscore}:2: non-integer action in ['1_0', '1']",
    ),
    "fit-data-arabic-indic-digit": (
        ["fit", "--family", "{twelve}", "--data", "{arabic}", "--out", "{out}"],
        2,
        "{arabic}:2: non-integer action in ['\u0661', '1']",
    ),
    "experiment-grid-nan": (
        ["experiment", "--kind", "recovery", "--grid", "nan", "--out", "{out}"],
        3,
        "grid values must be finite",
    ),
    "experiment-truth-psne-negative": (
        ["experiment", "--kind", "recovery", "--truth-psne=-1,0", "--out", "{out}"],
        3,
        "joint-action indices must be nonnegative",
    ),
    "experiment-truth-psne-past-int64": (
        ["experiment", "--kind", "recovery", f"--truth-psne={BIG_N}", "--out", "{out}"],
        3,
        f"{BIG_N}..{BIG_N} reach past int64",
    ),
    "fano-bound-past-log-gamma-range": (
        ["theory", "--fano-bound", "--m", "5", "--n", "100000000000000000",
         "--k", "100", "--joint", "8"],
        2,
        "ln C(n, k) past log-gamma's accuracy needs min(k, n - k) <= 64",
    ),
    # one message per class rule, as an input error (2) from the family
    # build and as a configuration error (3) from the experiment config
    **{
        f"{sub}-{rule}": (
            [*argv, *flags, "--out", "{out}"],
            code,
            message,
        )
        for sub, argv, code in (
            ("enumerate", ["enumerate"], 2),
            ("recovery", ["experiment", "--kind", "recovery"], 3),
        )
        for rule, flags, message in (
            ("n1", ["--n", "1", "--k", "0"], "n must be at least 2, got 1"),
            ("k-past-n", ["--n", "3", "--k", "5"], "parent budget k=5 outside 0..2"),
            (
                "sizes-for-n",
                ["--n", "3", "--k", "1", "--actions", "2,2"],
                "2 action sizes for 3 players",
            ),
        )
    },
}


class TestMalformedInput:
    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_documented_exit_without_traceback(self, tmp_path, capsys, case):
        argv, expected, message = MALFORMED[case]
        paths = {"out": str(tmp_path / "out")}
        for name, payload in FAMILY_FILES.items():
            paths[name] = str(tmp_path / f"{name}.json")
            (tmp_path / f"{name}.json").write_text(json.dumps(payload))
        for name, text in DATA_FILES.items():
            paths[name] = str(tmp_path / f"{name}.csv")
            (tmp_path / f"{name}.csv").write_text(text)
        code, _, err = run(capsys, *(arg.format(**paths) for arg in argv))
        assert code in {2, 3, 4, 5}
        assert code == expected
        assert message.format(**paths) in err
        assert "Traceback" not in err

    def test_fano_bound_at_large_n(self, capsys):
        # ln C(1e17, 1) once cancelled to 0.0 and divided by zero
        code, out, _ = run(
            capsys,
            "theory", "--fano-bound", "--m", "5", "--n", "100000000000000000",
            "--k", "1", "--joint", "8",
        )
        assert code == 0
        kl = fano_pair_kl(2 / 8, 8)
        expected = 1 - (5 * kl + math.log(2)) / math.log(10**17)
        assert json.loads(out)["fano_bound"] == pytest.approx(expected, rel=1e-12)
