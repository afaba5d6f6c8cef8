import json
import math
import subprocess
import sys
from importlib import resources

import jsonschema
import numpy as np
import pytest

from infoclone import StrategySpec, run_trials
from infoclone.cli import DEFAULT_SEED, _summary_row, main


def load_schema():
    text = resources.files("infoclone").joinpath("schemas/report.schema.json").read_text()
    return json.loads(text)


SCHEMA = load_schema()


def validate(report_bytes: bytes) -> dict:
    report = json.loads(report_bytes.decode("utf-8"))
    jsonschema.validate(report, SCHEMA)
    return report


class TestTransformCommand:
    def test_quarter_turn_report(self, run_cli):
        code, out = run_cli("transform", "--couplings", "1", "--time", repr(math.pi / 2))
        assert code == 0
        report = validate(out)
        matrix = report["matrix"]
        assert matrix[0][0] == pytest.approx(0.0, abs=1e-12)
        assert matrix[0][1] == pytest.approx(1.0, abs=1e-12)
        assert matrix[1][0] == pytest.approx(-1.0, abs=1e-12)
        assert matrix[1][1] == pytest.approx(0.0, abs=1e-12)
        assert report["orthogonality_residual"] <= 1e-12

    def test_zero_time_identity(self, run_cli):
        code, out = run_cli("transform", "--couplings", "1,2", "--time", "0")
        assert code == 0
        report = validate(out)
        assert report["matrix"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert report["orthogonality_residual"] == 0

    def test_empty_couplings(self, run_cli, capsys):
        code, _ = run_cli("transform", "--couplings", "", "--time", "1")
        assert code == 2
        assert "error: InfoCloneError: at least one coupling is required" in capsys.readouterr().err

    def test_missing_couplings(self, run_cli):
        code, _ = run_cli("transform", "--time", "1")
        assert code == 2

    def test_csv_key_value_form(self, run_cli):
        code, out = run_cli("transform", "--couplings", "1", "--time", "0", "--format", "csv")
        assert code == 0
        lines = out.decode("utf-8").split("\r\n")
        assert lines[0] == "field,value"
        assert any(line.startswith("command,transform") for line in lines)

    @pytest.mark.parametrize(
        "couplings, time",
        [("1,2", "0.4"), ("1,1", "2.5")],
        ids=["unequal-couplings", "negative-cosine"],
    )
    def test_output_amplitudes_are_matrix_action(self, run_cli, couplings, time):
        code, out = run_cli(
            "transform", "--couplings", couplings, "--time", time,
            "--alpha=0.3,-1.2", "--beta=0.5,0.25",
        )
        assert code == 0
        report = validate(out)
        v = np.array([0.3 - 1.2j, 0.5 + 0.25j, 0.5 + 0.25j])
        expected = np.array(report["matrix"]) @ v
        actual = np.array([complex(re, im) for re, im in report["output_amplitudes"]])
        np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-15)
        assert (report["alpha_re"], report["alpha_im"]) == (0.3, -1.2)
        assert (report["beta_re"], report["beta_im"]) == (0.5, 0.25)

    # sum(r^2) underflows to 0 or overflows to inf, though R*t = sqrt(2) is fine
    @pytest.mark.parametrize(
        "couplings, time",
        [("1e-200,1e-200", "1e200"), ("1e200,1e200", "1e-200")],
        ids=["tiny-couplings", "huge-couplings"],
    )
    def test_extreme_coupling_scales(self, run_cli, couplings, time):
        code, out = run_cli("transform", "--couplings", couplings, "--time", time)
        assert code == 0
        report = validate(out)
        assert report["angle"] == pytest.approx(math.sqrt(2), rel=1e-15)
        assert report["orthogonality_residual"] <= 1e-12


class TestOracleCommand:
    def test_quarter_turn_passes(self, run_cli):
        code, out = run_cli(
            "oracle", "--couplings", "1", "--time", repr(math.pi / 2),
            "--alpha", "0.6,0", "--cutoff", "25",
        )
        assert code == 0
        report = validate(out)
        assert report["fidelity"] >= 0.999
        assert report["passed"] is True

    def test_zero_time_full_fidelity(self, run_cli):
        code, out = run_cli("oracle", "--couplings", "1", "--time", "0", "--alpha", "0.5,0.2")
        assert code == 0
        report = validate(out)
        assert report["fidelity"] == pytest.approx(1.0, abs=1e-10)

    def test_size_guard(self, run_cli):
        code, _ = run_cli("oracle", "--couplings", "1", "--time", "1", "--cutoff", "1000")
        assert code == 2

    def test_too_many_ancillas(self, run_cli):
        code, _ = run_cli("oracle", "--couplings", "1,1,1", "--time", "1")
        assert code == 2

    def test_amplitude_guard(self, run_cli, capsys):
        code, _ = run_cli("oracle", "--couplings", "1", "--time", "1", "--alpha", "4,0")
        assert code == 2
        assert "error: InfoCloneError: |alpha|^2 = 16 exceeds cutoff/4 = 6.25" in capsys.readouterr().err

    def test_huge_time_costs_one_turn(self, run_cli):
        # the evolution repeats every 2*pi of R*t, so R*t = 1e6 costs no more
        # than its reduced angle and gives the same fidelity
        args = ("oracle", "--couplings", "1", "--cutoff", "3", "--alpha", "0.5,0")
        code, out = run_cli(*args, "--time", "1e6")
        assert code == 0
        reduced = math.atan2(math.sin(1e6), math.cos(1e6))
        code, out_reduced = run_cli(*args, f"--time={reduced!r}")
        assert code == 0
        fid, fid_reduced = validate(out)["fidelity"], validate(out_reduced)["fidelity"]
        assert fid == pytest.approx(fid_reduced, abs=1e-12)


class TestEstimateCommand:
    def test_report_shape_and_values(self, run_cli):
        code, out = run_cli(
            "estimate", "--strategy", "optimal", "--n-copies", "100",
            "--alpha", "1.5,-0.5", "--trials", "4000", "--seed", "42",
        )
        assert code == 0
        report = validate(out)
        (row,) = report["rows"]
        assert row["strategy"] == "optimal"
        assert row["n_copies"] == 100
        assert row["epsilon"] is None
        assert row["sin_rt"] == -1
        assert row["theory_std_re"] == row["theory_std_im"] == math.sqrt(0.5)
        assert row["seed"] == 42
        assert row["std_re"] == pytest.approx(math.sqrt(0.5), rel=0.05)

    def test_full_scale_variance(self, run_cli):
        code, out = run_cli(
            "estimate", "--strategy", "optimal", "--n-copies", "100",
            "--alpha", "1.5,-0.5", "--trials", "100000", "--seed", "271828",
        )
        assert code == 0
        row = validate(out)["rows"][0]
        assert row["std_re"] == pytest.approx(math.sqrt(0.5), rel=0.01)
        assert row["std_im"] == pytest.approx(math.sqrt(0.5), rel=0.01)

    def test_full_precision_floats(self, run_cli):
        _, out = run_cli("estimate", "--trials", "10", "--seed", "1")
        # signal scale 1/10 at N=100 must carry all 17 significant digits
        assert b'"signal_scale": 0.10000000000000001' in out

    def test_csv_header_and_row(self, run_cli):
        code, out = run_cli(
            "estimate", "--trials", "500", "--seed", "7", "--format", "csv",
        )
        assert code == 0
        lines = out.decode("utf-8").split("\r\n")
        assert lines[0] == (
            "strategy,n_copies,epsilon,beta_re,beta_im,sin_rt,signal_scale,offset_scale,"
            "alpha_re,alpha_im,trials,seed,mean_re,mean_im,std_re,std_im,theory_std_re,theory_std_im"
        )
        assert len([line for line in lines if line]) == 2

    def test_memory_error_exit_code(self, run_cli, capsys):
        # numpy refuses the 7.28 TiB sample request before allocating anything
        code, _ = run_cli("estimate", "--n-copies", "2000000000000", "--trials", "2")
        assert code == 2
        assert "MemoryError" in capsys.readouterr().err

    def test_overflow_error_exit_code(self, run_cli, capsys):
        # sqrt of a 401-digit clone count does not fit in a double
        code, _ = run_cli("estimate", "--n-copies", "1" + "0" * 400, "--trials", "2")
        assert code == 2
        assert "OverflowError" in capsys.readouterr().err

    def test_zero_trials(self, run_cli):
        code, _ = run_cli("estimate", "--trials", "0")
        assert code == 2

    def test_offset_without_beta(self, run_cli, capsys):
        code, _ = run_cli("estimate", "--strategy", "offset", "--trials", "100")
        assert code == 2
        assert "error: InfoCloneError: offset requires a reference amplitude beta" in capsys.readouterr().err

    def test_near_optimal_without_epsilon(self, run_cli, capsys):
        code, _ = run_cli(
            "estimate", "--strategy", "near-optimal", "--beta", "5,0", "--trials", "100"
        )
        assert code == 2
        assert "error: InfoCloneError: near-optimal requires epsilon in (0, 1)" in capsys.readouterr().err

    def test_default_seed_is_fixed(self, run_cli):
        _, out = run_cli("estimate", "--trials", "100")
        assert validate(out)["rows"][0]["seed"] == DEFAULT_SEED

    def test_randomize(self, run_cli):
        _, first = run_cli("estimate", "--trials", "100", "--randomize")
        _, second = run_cli("estimate", "--trials", "100", "--randomize")
        assert validate(first)["rows"][0]["seed"] != validate(second)["rows"][0]["seed"]

    def test_randomize_conflicts_with_seed(self, run_cli):
        code, _ = run_cli("estimate", "--trials", "100", "--randomize", "--seed", "5")
        assert code == 2


class TestConfigFile:
    def test_file_then_flag_precedence(self, run_cli, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "command": "estimate",
                    "strategy": "offset",
                    "n_copies": 16,
                    "beta": [50.0, 0.0],
                    "alpha": [0.5, 0.25],
                    "trials": 400,
                    "seed": 9,
                }
            )
        )
        code, out = run_cli("estimate", "--config", str(config), "--trials", "200")
        assert code == 0
        row = validate(out)["rows"][0]
        assert row["strategy"] == "offset"
        assert row["n_copies"] == 16
        assert row["beta_re"] == 50
        assert row["trials"] == 200  # flag wins over file
        assert row["seed"] == 9

    def test_unknown_key(self, run_cli, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"trials": 100, "bogus": 1}))
        code, _ = run_cli("estimate", "--config", str(config))
        assert code == 2

    def test_command_mismatch(self, run_cli, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"command": "sweep"}))
        code, _ = run_cli("estimate", "--config", str(config))
        assert code == 2

    def test_transform_config(self, run_cli, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"couplings": [1.0], "time": 0.0}))
        code, out = run_cli("transform", "--config", str(config))
        assert code == 0
        assert validate(out)["matrix"] == [[1, 0], [0, 1]]

    # The settings around each bad value are valid, so only that value can fail
    # the run; the flags after the file keep the campaigns small.
    @pytest.mark.parametrize(
        "command, settings",
        [
            ("estimate", {"trials": True}),
            ("estimate", {"trials": "100"}),
            ("estimate", {"n_copies": 3.5}),
            ("estimate", {"n_copies": 4.0}),
            ("estimate", {"format": "yaml"}),
            ("estimate", {"alpha": [1]}),
            ("estimate", {"strategy": "nope"}),
            ("estimate", {"seed": [1]}),
            ("estimate", {"seed": -1}),
            ("estimate", {"out": 5}),
            ("estimate", {"epsilon": None}),
            ("estimate", {"randomize": True}),
            ("estimate", {"config": "x.json"}),
            ("transform", {"couplings": [1.0], "time": "1"}),
            ("transform", {"couplings": 1, "time": 0.3}),
            ("sweep", {"grid": {"axis": "n-copies", "values": [4], "bogus": 1}}),
            ("sweep", {"grid": {"axis": "bogus", "values": [1]}}),
        ],
    )
    def test_rejected_values(self, run_cli, tmp_path, command, settings):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(settings))
        small = ("--trials", "50") if command in ("estimate", "sweep") else ()
        code, _ = run_cli(command, "--config", str(config), *small)
        assert code == 2

    def test_text_values(self, run_cli, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"alpha": "1.5,-0.5"}))
        code, out = run_cli("estimate", "--config", str(config), "--trials", "50")
        assert code == 0
        row = validate(out)["rows"][0]
        assert (row["alpha_re"], row["alpha_im"]) == (1.5, -0.5)
        config.write_text(json.dumps({"couplings": "1,2", "time": 0.3}))
        code, out = run_cli("transform", "--config", str(config))
        assert code == 0
        report = validate(out)
        assert (report["couplings"], report["time"]) == ([1, 2], 0.3)

    def test_grid_object_matches_flags(self, run_cli, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"grid": {"axis": "n-copies", "values": [10, 40]}}))
        args = ("--trials", "300", "--seed", "5")
        code, from_file = run_cli("sweep", "--config", str(config), *args)
        assert code == 0
        _, from_flags = run_cli("sweep", "--grid-axis", "n-copies", "--grid-values", "10,40", *args)
        assert from_file == from_flags

    def test_randomize_overrides_file_seed(self, run_cli, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 9, "trials": 50}))
        code, out = run_cli("estimate", "--config", str(config), "--randomize")
        assert code == 0
        assert validate(out)["rows"][0]["seed"] != 9


class TestSweepCommand:
    def test_copies_grid(self, run_cli):
        code, out = run_cli(
            "sweep", "--grid-axis", "n-copies", "--grid-values", "10,100",
            "--trials", "400", "--seed", "3",
        )
        assert code == 0
        report = validate(out)
        assert report["axis"] == "n_copies"
        assert [row["n_copies"] for row in report["rows"]] == [10, 100]

    def test_epsilon_grid_theory_column(self, run_cli):
        code, out = run_cli(
            "sweep", "--strategy", "near-optimal", "--beta", "50,0",
            "--grid-axis", "epsilon", "--grid-values", "0.05,0.2",
            "--trials", "400", "--seed", "3",
        )
        assert code == 0
        rows = validate(out)["rows"]
        for row, eps in zip(rows, (0.05, 0.2)):
            assert row["epsilon"] == pytest.approx(eps)
            assert row["theory_std_re"] == row["theory_std_im"] == math.sqrt(0.5) / (1 - eps)

    def test_epsilon_grid_needs_near_optimal(self, run_cli):
        code, _ = run_cli(
            "sweep", "--grid-axis", "epsilon", "--grid-values", "0.1", "--trials", "100"
        )
        assert code == 2

    def test_sine_grid_maps_onto_strategies(self, run_cli):
        sine = repr(math.sqrt(0.5))
        code, out = run_cli(
            "sweep", "--beta", "50,0", "--grid-axis", "sin-rt",
            f"--grid-values=-1,-0.9,{sine}", "--trials", "400",
        )
        assert code == 0
        rows = validate(out)["rows"]
        assert [row["strategy"] for row in rows] == ["optimal", "near-optimal", "offset"]
        assert rows[1]["epsilon"] == pytest.approx(0.1)

    def test_unrepresentable_sine(self, run_cli):
        code, _ = run_cli(
            "sweep", "--grid-axis", "sin-rt", "--grid-values", "0.3", "--trials", "100"
        )
        assert code == 2

    def test_infinite_copies_grid(self, run_cli):
        code, _ = run_cli("sweep", "--grid-axis", "n-copies", "--grid-values", "inf")
        assert code == 2

    def test_empty_grid(self, run_cli):
        code, _ = run_cli("sweep", "--grid-axis", "epsilon", "--grid-values", "")
        assert code == 2
        code, _ = run_cli("sweep", "--trials", "100")
        assert code == 2

    def test_single_point_matches_estimate(self, run_cli):
        args = ("--alpha", "1.5,-0.5", "--trials", "600", "--seed", "11")
        _, est_json = run_cli("estimate", "--n-copies", "40", *args)
        _, sweep_json = run_cli(
            "sweep", "--grid-axis", "n-copies", "--grid-values", "40", *args
        )
        assert validate(est_json)["rows"][0] == validate(sweep_json)["rows"][0]
        _, est_csv = run_cli("estimate", "--n-copies", "40", *args, "--format", "csv")
        _, sweep_csv = run_cli(
            "sweep", "--grid-axis", "n-copies", "--grid-values", "40", *args, "--format", "csv"
        )
        assert est_csv == sweep_csv


class TestReproducibility:
    def test_estimate_bytes_stable(self, run_cli):
        args = ("estimate", "--trials", "300", "--seed", "21")
        _, first = run_cli(*args)
        _, second = run_cli(*args)
        assert first == second

    def test_csv_bytes_stable(self, run_cli):
        args = ("estimate", "--trials", "300", "--seed", "21", "--format", "csv")
        _, first = run_cli(*args)
        _, second = run_cli(*args)
        assert first == second


def test_row_columns_agree():
    summary = run_trials(StrategySpec("optimal", 2), 0j, 2, seed=0)
    row_schema = SCHEMA["$defs"]["row"]
    columns = list(_summary_row(summary))
    assert list(row_schema["properties"]) == columns
    assert row_schema["required"] == columns


def test_module_entry_point(tmp_path):
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [
            sys.executable, "-m", "infoclone", "transform",
            "--couplings", "1", "--time", "0", "--out", str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(out.read_text())["command"] == "transform"


def test_usage_error_exit_code():
    assert main([]) == 2
    assert main(["estimate", "--format", "yaml"]) == 2
    # argparse would store --flag=-- as an empty list
    assert main(["estimate", "--format=--"]) == 2
    assert main(["transform", "--couplings", "1", "--time=--"]) == 2


@pytest.mark.parametrize(
    "argv, config, flag, form",
    [
        (["estimate", "--alpha", "1"], None, "--alpha", "RE,IM"),
        (["estimate", "--alpha=a,b"], None, "--alpha", "RE,IM"),
        (["transform", "--couplings", "x", "--time", "1"], None, "--couplings", "comma-separated numbers"),
        (["estimate"], {"alpha": "1"}, "--alpha", "RE,IM"),
    ],
    ids=["alpha-one-number", "alpha-not-numbers", "couplings-not-numbers", "config-alpha-one-number"],
)
def test_flag_value_messages(argv, config, flag, form, tmp_path, capsys):
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: expected " in err
    assert form in err
    assert "_parse_" not in err
