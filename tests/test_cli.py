import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import infoclone
from infoclone import StrategySpec, run_trials
from infoclone.cli import DEFAULT_SEED, main
from infoclone.estimation import MAX_TRIALS
from reference import assert_exact_oracle


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

    # R*t overflows to inf, or the norm overflows and inf * 0 is nan
    @pytest.mark.parametrize(
        "command, couplings, time",
        [
            ("transform", "1e200", "1e200"),
            ("oracle", "1e200", "1e200"),
            ("transform", "1e308,1e308,1e308,1e308", "0"),
        ],
        ids=["transform-huge-angle", "oracle-huge-angle", "overflowing-norm"],
    )
    def test_non_finite_angle(self, run_cli, capsys, command, couplings, time):
        code, _ = run_cli(command, "--couplings", couplings, "--time", time)
        assert code == 2
        err = capsys.readouterr().err
        assert "error: InfoCloneError:" in err
        assert "couplings" in err

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
        assert_exact_oracle(report["evolved_norm"], report["fidelity"], report["truncation_tail"])

    def test_size_guard(self, run_cli, capsys):
        # 3 ancillas at cutoff 70: C(74, 4) = 1150626 states, over the budget
        code, _ = run_cli("oracle", "--couplings", "1,1,1", "--time", "1", "--cutoff", "70")
        assert code == 2
        assert "C(cutoff+n_modes, n_modes) = 1150626 exceeds" in capsys.readouterr().err

    def test_too_many_ancillas(self, run_cli, capsys):
        # no ancilla cap: 60 ancillas at cutoff 5 are refused by the amplitude
        # budget alone, C(66, 5) = 8936928
        couplings = ",".join(["1"] * 60)
        code, _ = run_cli("oracle", "--couplings", couplings, "--time", "1", "--cutoff", "5", "--alpha=0.1,0")
        assert code == 2
        err = capsys.readouterr().err
        assert "C(cutoff+n_modes, n_modes) = 8936928 exceeds the 1000000 amplitude budget" in err

    def test_amplitude_guard(self, run_cli, capsys):
        code, _ = run_cli("oracle", "--couplings", "1", "--time", "1", "--alpha", "4,0")
        assert code == 2
        # P(Poisson(16) > 25) = 0.0131
        assert (
            "error: InfoCloneError: truncation tail P(Poisson(sum |a|^2) > 25) = 0.0131 exceeds 0.00025"
            in capsys.readouterr().err
        )

    # C(cutoff + n_modes, n_modes) states
    @pytest.mark.parametrize(
        "couplings, cutoff, size", [("1", "1", 3), ("1,2", "10", 286), ("1,1", "99", 171700)]
    )
    def test_state_size(self, run_cli, couplings, cutoff, size):
        code, out = run_cli(
            "oracle", "--couplings", couplings, "--time", "0.4", "--alpha=0.01,0", "--cutoff", cutoff
        )
        assert code == 0
        assert validate(out)["state_size"] == size

    @pytest.mark.parametrize(
        "couplings, cutoff", [("1,1,1", "25"), ("0.5,1,1.5,-0.7", "20")], ids=["3-ancillas", "4-ancillas"]
    )
    def test_more_ancillas_pass(self, run_cli, couplings, cutoff):
        code, out = run_cli(
            "oracle", "--couplings", couplings, "--time", "0.8", "--alpha=0.6,-0.3", "--beta=0.2,0.4",
            "--cutoff", cutoff,
        )
        assert code == 0
        report = validate(out)
        n_modes = len(couplings.split(",")) + 1
        assert report["n_modes"] == n_modes
        assert report["state_size"] == math.comb(int(cutoff) + n_modes, n_modes)
        assert report["passed"] is True
        assert_exact_oracle(report["evolved_norm"], report["fidelity"], report["truncation_tail"])

    def test_eighty_ancillas(self, run_cli):
        # C(83, 2) = 3403 states; a mixed-radix int64 index 3^81 would overflow
        couplings = ",".join(repr(0.5 + k / 80) for k in range(80))
        code, out = run_cli(
            "oracle", "--couplings", couplings, "--time", "0.3", "--alpha=0.05,0.02", "--beta=0,0",
            "--cutoff", "2",
        )
        assert code == 0
        report = validate(out)
        assert report["state_size"] == 3403
        assert_exact_oracle(report["evolved_norm"], report["fidelity"], report["truncation_tail"])

    def test_truncation_tail_reported(self, run_cli):
        code, out = run_cli("oracle", "--couplings", "1,2", "--time", "0.5", "--alpha=1,0", "--cutoff", "10")
        assert code == 0
        report = validate(out)
        # sum |a|^2 = 1: P(Poisson(1) > 10) = 1.0048e-08
        assert report["truncation_tail"] == pytest.approx(1.0047766375690929e-08, rel=1e-12)

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
        # a campaign runs in bounded memory, so 10^12 trials would run for
        # hours; the cap refuses it before drawing anything
        code, _ = run_cli("estimate", "--trials", "1000000000000")
        assert code == 2
        assert (
            f"error: InfoCloneError: n_trials must be <= {MAX_TRIALS}, got 1000000000000"
            in capsys.readouterr().err
        )

    def test_huge_clone_count_is_cheap(self, run_cli):
        # a campaign draws the group averages, not the clones, so N costs nothing
        code, out = run_cli("estimate", "--n-copies", "2000000000000", "--trials", "1000")
        assert code == 0
        (row,) = validate(out)["rows"]
        assert row["theory_std_re"] == row["theory_std_im"] == math.sqrt(0.5)
        bound = 5.0 * math.sqrt(0.5) / math.sqrt(1000)
        assert abs(row["mean_re"] - 1.0) <= bound
        assert abs(row["mean_im"]) <= bound

    def test_overflow_error_exit_code(self, run_cli, capsys):
        # sqrt of a 401-digit clone count does not fit in a double
        code, _ = run_cli("estimate", "--n-copies", "1" + "0" * 400, "--trials", "2")
        assert code == 2
        assert "OverflowError" in capsys.readouterr().err

    def test_overflowing_campaign_names_the_input(self, run_cli, capsys):
        for argv, names in (
            # the estimates are finite, but their sum overflows a double
            (["--n-copies", "2", "--trials", "3", "--alpha=1e308,0"], "alpha = (1e+308+0j) with beta = 0j"),
            # each input is finite, but the clone amplitude is not
            (
                ["--strategy", "offset", "--n-copies", "2", "--alpha=-1.7e308,0", "--beta=1.7e308,0"],
                "alpha = (-1.7e+308+0j) with beta = (1.7e+308+0j)",
            ),
            (
                ["--strategy", "offset", "--n-copies", "2", "--alpha=0,-1.7e308", "--beta=0,1.7e308"],
                "alpha = -1.7e+308j with beta = 1.7e+308j",
            ),
        ):
            code, _ = run_cli("estimate", *argv)
            assert code == 2
            (line,) = capsys.readouterr().err.splitlines()
            assert line.startswith(f"error: InfoCloneError: {names} overflows a double"), line

    def test_overflowing_transform_names_the_cause(self, run_cli, capsys):
        # each input is finite, but alpha + beta in the outputs is not
        code, _ = run_cli("transform", "--couplings", "1,1", "--time", "0.5", "--alpha=1.7e308,0", "--beta=1.7e308,0")
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: InfoCloneError: ")
        assert "overflows a double" in line
        assert "RuntimeWarning" not in line

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

    def test_unknown_key(self, run_cli, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"trials": 100, "bogus": 1}))
        code, _ = run_cli("estimate", "--config", str(config))
        assert code == 2
        # no key is read from a file that does not hold an object
        config.write_text(json.dumps([1, 2]))
        capsys.readouterr()
        code, _ = run_cli("estimate", "--config", str(config))
        assert code == 2
        assert capsys.readouterr().err == "error: InfoCloneError: config file must contain a JSON object\n"

    def test_command_mismatch(self, run_cli, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"command": "sweep"}))
        code, _ = run_cli("estimate", "--config", str(config))
        assert code == 2

    def test_deeply_nested_file(self, tmp_path, capsys):
        # json.load raises RecursionError, which exit code 1 would report as
        # a failed oracle
        config = tmp_path / "deep.json"
        config.write_text("[" * 200_000)
        assert main(["estimate", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: InfoCloneError: config file {str(config)!r} is nested too deeply to read\n"

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

    @pytest.mark.parametrize("value", ["-1e-300", "-5e-17"])
    def test_sine_that_rounds_epsilon_to_one(self, run_cli, capsys, value):
        # inside [-1, 0), but 1 + value rounds to 1: the message names the
        # grid value, not an epsilon the user never set
        code, _ = run_cli(
            "sweep", "--grid-axis", "sin-rt", f"--grid-values={value}", "--beta", "1,0", "--trials", "20"
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: InfoCloneError: sin_rt = {float(value)!r} is too close to 0" in err
        assert "epsilon must lie" not in err

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


def test_row_columns_agree():
    row = run_trials(StrategySpec("optimal", 2), 0j, 2, seed=0)
    row_schema = SCHEMA["$defs"]["row"]
    columns = list(row)
    assert list(row_schema["properties"]) == columns
    assert row_schema["required"] == columns


ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")


def _fresh_env() -> dict:
    """The environment of a new interpreter that imports infoclone from this tree's src."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def _buffered_env() -> dict:
    """_fresh_env() without PYTHONUNBUFFERED, so that stdout is buffered."""
    env = _fresh_env()
    env.pop("PYTHONUNBUFFERED", None)
    return env


# python's flags for a buffered stdout and for a raw one (python -u): under
# _buffered_env() each gives its own path, whatever the host's environment
STDOUT_FLAGS = ([], ["-u"])


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    """Run a new interpreter that imports infoclone from this tree's src."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=_fresh_env())


# Runs the command in its arguments and prints its exit code and peak RSS in
# kB, as os.wait4 reads them. A process takes, at exec, the peak RSS of the
# process it was started from as its own: started from this test process, a
# run would read the suite's peak. This interpreter is small, so the command
# it starts reads its own.
_REPORT_PEAK = (
    "import os, sys; _, status, usage = os.wait4(os.posix_spawnp(sys.argv[1], sys.argv[1:], os.environ), 0); "
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)"
)


def process_peak(argv: list[str], timeout: int) -> float:
    """The peak RSS, in MB, of `python -m infoclone` argv in a new process,
    which must exit 0 within timeout seconds."""
    command = ["timeout", str(timeout), sys.executable, "-m", "infoclone", *argv, "--out", os.devnull]
    proc = _fresh_python("-c", _REPORT_PEAK, *command)
    code, peak = map(int, proc.stdout.split())
    assert code == 0, (argv, proc.stderr)
    return peak / 1024


def test_module_entry_point(tmp_path):
    out = tmp_path / "report.json"
    proc = _fresh_python("-m", "infoclone", "transform", "--couplings", "1", "--time", "0", "--out", str(out))
    assert proc.returncode == 0
    assert json.loads(out.read_text())["command"] == "transform"


def test_public_names_resolve_after_a_bare_import():
    # a bare import loads no module of the package (import_boundary.py); each
    # name, and each submodule it used to bind, loads on first use, and dir
    # lists them before
    script = (
        "import json, infoclone\n"
        "submodules = {'errors', 'estimation', 'transform'}\n"
        "assert {*infoclone.__all__, *submodules} <= set(dir(infoclone)), dir(infoclone)\n"
        "assert infoclone.transform.CouplingConfig is infoclone.CouplingConfig\n"
        "assert infoclone.estimation.MAX_TRIALS > 0 and infoclone.errors.InfoCloneError\n"
        "print(json.dumps({name: getattr(infoclone, name).__module__ for name in infoclone.__all__}))\n"
    )
    proc = _fresh_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    homes = {"InfoCloneError": "errors", "run_trials": "estimation"}
    assert json.loads(proc.stdout) == {
        name: "infoclone." + homes.get(name, "transform") for name in infoclone.__all__
    }


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    proc = _fresh_python("-c", example)
    assert proc.returncode == 0, proc.stderr
    # mean_re, std_re and theory_std_re
    assert len([float(word) for word in proc.stdout.split()]) == 3


# Every value of this transform is exact (0, -0, 1, 1.5, 5, ...), so its
# report has the same bytes on every platform.
EXACT_TRANSFORM = ["transform", "--couplings", "3,4", "--time", "0", "--alpha=1.5,-0.5", "--beta", "2,1"]
EXACT_TRANSFORM_JSON = b"""{
  "command": "transform",
  "couplings": [3, 4],
  "time": 0,
  "norm": 5,
  "angle": 0,
  "sin_rt": 0,
  "cos_rt": 1,
  "matrix": [
    [1, 0, 0],
    [-0, 1, 0],
    [-0, 0, 1]
  ],
  "orthogonality_residual": 0,
  "alpha_re": 1.5,
  "alpha_im": -0.5,
  "beta_re": 2,
  "beta_im": 1,
  "output_amplitudes": [
    [1.5, -0.5],
    [2, 1],
    [2, 1]
  ]
}
"""
EXACT_TRANSFORM_CSV = (
    b'field,value\r\ncommand,transform\r\ncouplings,"[3, 4]"\r\ntime,0\r\nnorm,5\r\nangle,0\r\n'
    b'sin_rt,0\r\ncos_rt,1\r\nmatrix,"[[1, 0, 0], [-0, 1, 0], [-0, 0, 1]]"\r\n'
    b"orthogonality_residual,0\r\nalpha_re,1.5\r\nalpha_im,-0.5\r\nbeta_re,2\r\nbeta_im,1\r\n"
    b'output_amplitudes,"[[1.5, -0.5], [2, 1], [2, 1]]"\r\n'
)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (EXACT_TRANSFORM, EXACT_TRANSFORM_JSON),
        ([*EXACT_TRANSFORM, "--format", "csv"], EXACT_TRANSFORM_CSV),
        (["transform", "--config", "config.json"], EXACT_TRANSFORM_JSON),
    ],
    ids=["json", "csv", "config"],
)
def test_exact_report_bytes_on_stdout(argv, expected, tmp_path):
    settings = {"command": "transform", "couplings": [3, 4], "time": 0, "alpha": [1.5, -0.5], "beta": "2,1"}
    (tmp_path / "config.json").write_text(json.dumps(settings))
    for flags in STDOUT_FLAGS:
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "infoclone", *argv],
            capture_output=True,
            cwd=tmp_path,
            env=_buffered_env(),
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, b""), flags


# README's error examples. An InfoCloneError prints one line, pinned whole.
# argparse prints its usage lines first; they wrap with the terminal width
# and differ across Python versions, so only its last line is pinned.
@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["estimate", "--n-copies", "2", "--alpha=1e308,0"],
            b"error: InfoCloneError: alpha = (1e+308+0j) with beta = 0j overflows a double: "
            b"the campaign's mean or std is not finite\n",
        ),
        (
            ["estimate", "--strategy", "offset", "--alpha=-1.7e308,0", "--beta=1.7e308,0"],
            b"error: InfoCloneError: alpha = (-1.7e+308+0j) with beta = (1.7e+308+0j) overflows a double: "
            b"the campaign's mean or std is not finite\n",
        ),
        (
            ["transform", "--couplings", "1,1", "--time", "0.5", "--alpha=1.7e308,0", "--beta=1.7e308,0"],
            b"error: InfoCloneError: amplitude vector overflows a double under the transform: "
            b"an output is not finite\n",
        ),
        (
            ["transform", "--couplings", "1,,2", "--time", "1"],
            b"infoclone transform: error: argument --couplings: expected comma-separated numbers, got '1,,2'\n",
        ),
        (
            ["transform", "--couplings", "1", "--time", "1", "--alpha=nan,0"],
            b"infoclone transform: error: argument --alpha: "
            b"expected two comma-separated finite numbers RE,IM, got 'nan,0'\n",
        ),
    ],
    ids=["estimate-overflow", "offset-overflow", "transform-overflow", "couplings-empty-item", "alpha-nan"],
)
def test_exact_error_bytes_on_stderr(argv, expected):
    for flags in STDOUT_FLAGS:
        command = [sys.executable, *flags, "-m", "infoclone", *argv]
        proc = subprocess.run(command, capture_output=True, env=_buffered_env())
        *usage, last = proc.stderr.splitlines(keepends=True)
        assert (proc.returncode, proc.stdout, last) == (2, b"", expected), flags
        if expected.startswith(b"error: "):
            assert usage == []
        else:
            assert usage[0].startswith(b"usage: infoclone ")


def test_overflowing_campaign_is_refused_at_its_first_chunk():
    # MAX_TRIALS trials would take about 100 s; the first chunk's sum already
    # overflows, and no later chunk can make it finite
    argv = ["estimate", "--n-copies", "2", "--alpha=1e308,0", "--trials", str(MAX_TRIALS)]
    proc = subprocess.run([sys.executable, "-m", "infoclone", *argv], capture_output=True, env=_fresh_env(), timeout=10)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.startswith(b"error: InfoCloneError: alpha = (1e+308+0j) with beta = 0j overflows a double")


@pytest.mark.parametrize("flags", STDOUT_FLAGS, ids=["buffered", "unbuffered"])
def test_report_to_a_closed_pipe_fails(flags):
    # 300 ancillas: a 2,185,011-byte report, far more than a pipe holds. Under
    # python -u a write to the pipe may take only part of the report; the
    # command must then fail, not exit 0 with the report cut short.
    couplings = ",".join(["1"] * 300)
    command = [sys.executable, *flags, "-m", "infoclone", "transform", "--couplings", couplings, "--time", "1"]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_buffered_env())
    try:
        assert len(proc.stdout.read(20)) == 20
        proc.stdout.close()
        _, err = proc.communicate(timeout=30)
    finally:
        proc.kill()
    assert proc.returncode == 2
    assert err.decode() == "error: BrokenPipeError: [Errno 32] Broken pipe\n"


def test_buffered_report_to_a_pipe_closed_before_the_spawn_fails():
    # a report small enough to sit in stdout's buffer fails at main's own
    # flush, not at the interpreter's final one (which would print
    # "Exception ignored ..." and exit 120)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "infoclone", "transform", "--couplings", "1", "--time", "0"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=_buffered_env(),
            timeout=30,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (2, b"error: BrokenPipeError: [Errno 32] Broken pipe\n")


def test_oracle_process_peak_follows_the_occupied_sectors():
    # the deepest one-ancilla oracle the 10^6-amplitude budget admits:
    # K' = 13, 105 rows in one band
    one_ancilla = ["oracle", "--couplings", "1", "--time", "1", "--cutoff", "1412"]
    shallow = process_peak([*one_ancilla, "--alpha=0.6,0"], 10)
    assert shallow <= 60
    # K' = 581 (169,653 rows in 45 bands), and an input that fills its cutoff
    # (K' = K = 99, 171,700 rows in 50 bands): no array of either run is
    # sized by the rows of sectors 0..K'. Measured against the shallow run
    # of the same interpreter, the bounds hold whatever numpy's own
    # footprint is. On a 2-CPU Linux VM (Python 3.11, numpy 2.4) the deep run
    # peaked -0.1 to 0.4 MB and the filled one 0.4 to 1.0 MB above the
    # shallow run over 35 runs; with every row in one band, 20 and 25 MB.
    # The filled run's strict memory check is its traced peak, in test_fock.
    deep = process_peak([*one_ancilla, "--alpha=20,0"], 30)
    assert deep - shallow <= 1
    filled = process_peak(
        ["oracle", "--couplings", "1,1", "--time", "1", "--alpha", "4,2", "--beta", "3,2", "--cutoff", "99"], 10
    )
    assert filled - shallow <= 2


def test_campaign_process_peak_does_not_grow_with_its_trials():
    # one chunk of 2^16 trials against 46 chunks: a campaign's arrays are one
    # chunk's, so the long run peaks no higher (about 180 MB higher when
    # every trial was held at once)
    one_chunk = process_peak(["estimate", "--trials", "65536"], 10)
    assert process_peak(["estimate", "--trials", "3000000"], 10) - one_chunk <= 1


def test_campaign_process_peak_matches_transform():
    # a campaign's peak is numpy's import, the pipeline's modules and one
    # chunk's arrays, as a transform's is without the chunk: it imports no
    # numpy.random. On a 2-CPU Linux VM (Python 3.11, numpy 2.4) estimate
    # read -0.05 to +0.09 MB above transform over 3 runs; with numpy.random,
    # 5.0 to 5.1 MB above it.
    transform = process_peak(["transform", "--couplings", "1,1", "--time", "0.5"], 10)
    estimate = process_peak(
        ["estimate", "--strategy", "offset", "--n-copies", "10000", "--trials", "5000", "--beta", "1,1"], 10
    )
    assert estimate - transform <= 1


def test_no_command_imports_a_third_party_module_but_numpy():
    # importing the CLI and transform load the modules parsing needs; the
    # campaigns add infoclone.estimation and, outside the stdlib, numpy
    # alone, not numpy.random; oracle adds infoclone.fock and nothing else;
    # a bare import loads none
    proc = _fresh_python(str(Path(__file__).with_name("import_boundary.py")))
    assert proc.returncode == 0, proc.stderr
    parsing = ["infoclone", "infoclone.cli", "infoclone.errors", "infoclone.transform"]
    pipeline = sorted([*parsing, "infoclone.estimation"])
    oracle = sorted([*pipeline, "infoclone.fock"])
    assert json.loads(proc.stdout) == {
        "import infoclone": ["infoclone"],
        "import infoclone.cli": parsing,
        "transform": parsing,
        "estimate": pipeline,
        "sweep": pipeline,
        "infoclone.no_such_name": pipeline,
        "oracle": oracle,
        "--format csv": oracle,
        "--config": oracle,
    }


def test_oracle_never_loads_the_campaigns():
    script = (
        "import os, sys\n"
        "from infoclone.cli import main\n"
        "assert main(['oracle', '--couplings', '1,1', '--time', '1', '--cutoff', '10', '--out', os.devnull]) == 0\n"
        "print(' '.join(sorted(name for name in sys.modules if name.split('.')[0] == 'infoclone')))\n"
    )
    proc = _fresh_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "infoclone", "infoclone.cli", "infoclone.errors", "infoclone.fock", "infoclone.transform"
    ]


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
        (["transform", "--couplings", "1", "--time", "1", "--alpha=nan,0"], None, "--alpha", "finite numbers RE,IM"),
        (["oracle", "--couplings", "1", "--time", "1", "--beta=0,inf"], None, "--beta", "finite numbers RE,IM"),
        (["estimate", "--alpha=inf,0"], None, "--alpha", "finite numbers RE,IM, got 'inf,0'"),
        (["estimate"], {"alpha": [math.nan, 0]}, "--alpha", "finite numbers RE,IM, got 'nan,0'"),
        (["transform", "--couplings", "1,,2", "--time", "1"], None, "--couplings", "numbers, got '1,,2'"),
        (["sweep", "--grid-axis", "n-copies", "--grid-values", "2,4,"], None, "--grid-values", "numbers, got '2,4,'"),
        (["transform", "--time", "1"], {"couplings": "1,,2"}, "--couplings", "numbers, got '1,,2'"),
    ],
    ids=[
        "alpha-one-number", "alpha-not-numbers", "couplings-not-numbers", "config-alpha-one-number",
        "transform-alpha-nan", "oracle-beta-inf", "estimate-alpha-inf", "config-alpha-nan",
        "couplings-empty-item", "grid-values-trailing-comma", "config-couplings-empty-item",
    ],
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
