import json

import pytest

from psne_learn.cli import main
from psne_learn.fileio import read_dataset, read_family, read_fit


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
        assert fit.psne.indices == (0,)

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

    def test_missing_selector(self, capsys):
        code, _, err = run(capsys, "theory")
        assert code == 2 and "input error" in err

    def test_missing_arguments_listed(self, capsys):
        code, _, err = run(capsys, "theory", "--beta", "--r", "2")
        assert code == 2
        assert "--q" in err and "--joint" in err

    def test_domain_error_maps_to_input_exit(self, capsys):
        code, _, _ = run(
            capsys, "theory", "--beta", "--r", "1", "--q", "0.5", "--joint", "4"
        )
        assert code == 2


class TestExperiment:
    def test_flags_only(self, tmp_path, capsys):
        out = str(tmp_path / "res.csv")
        code, _, err = run(
            capsys,
            "experiment", "--kind", "fano", "--n", "4", "--k", "1",
            "--m-schedule", "0,2", "--trials", "3", "--seed", "1", "--out", out,
        )
        assert code == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "m,metric,value,stderr,trials"
        assert json.load(open(out + ".meta.json"))["seed"] == 1

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

    def test_capacity_error_exit_code(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "experiment", "--kind", "recovery", "--n", "6", "--k", "1",
            "--actions", "8,8,8,8,8,8",
            "--m-schedule", "5", "--trials", "1", "--out", str(tmp_path / "r.csv"),
        )
        assert code == 4
        assert "capacity error" in err

    def test_non_integer_thread_count_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PSNE_LEARN_THREADS", "abc")
        code, _, err = run(
            capsys,
            "experiment", "--kind", "fano", "--n", "4", "--k", "1",
            "--m-schedule", "0", "--trials", "2", "--out", str(tmp_path / "r.csv"),
        )
        assert code == 3
        assert "PSNE_LEARN_THREADS='abc'" in err and "Traceback" not in err

    def test_io_error_exit_code(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "experiment", "--kind", "fano", "--n", "4", "--k", "1",
            "--m-schedule", "0", "--trials", "1",
            "--out", str(tmp_path / "missing" / "deep" / "r.csv"),
        )
        assert code == 5
        assert "i/o error" in err


class TestParsing:
    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["theory", "--beta", "--r", "2", "--q", "0.75", "--joint", "4", "--frobnicate"])
        assert err.value.code == 2

    def test_enumerate_capacity_exit(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "enumerate", "--n", "2", "--k", "1", "--game-ceiling", "10",
            "--out", str(tmp_path / "f.json"),
        )
        assert code == 4
        assert "capacity error" in err
