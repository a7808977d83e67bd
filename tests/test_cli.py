"""Tests of the command-line front end.

`test_transcript` compares the CLI's exit code, stdout and stderr on each
call of TRANSCRIPT_CALLS, in CSV and in JSON, byte for byte with
tests/data/cli_transcripts.json.  Regenerate that file, once a change of
output is meant, with

    PYTHONPATH=src python tests/test_cli.py
"""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import pytest

import coopmetro
from coopmetro.cli import (
    RunConfig,
    UsageError,
    figure_rows,
    main,
    parse_config,
    report_bound,
)

RUN_FLAGS = ["run", "--kind", "coop-spont", "--b_z", "0.1", "--b_x", "0.1", "--gamma", "0.5", "--t", "1"]
TWO_SPIN = ["--kind", "two-spin-coop", "--b_z", "1", "--b_x", "0.1", "--dipole", "10"]


# CLI calls whose answers are frozen in tests/data/cli_transcripts.json, each
# in CSV and in JSON: sweeps whose points fail alone (degenerate two-spin
# models, b_z = 0, negative times), a time grid whose one model fails, a
# time grid over both qubit routes, the fig. 5 region, the flat maximizer,
# runs and a trade-off.
TRANSCRIPT_CALLS = [
    "sweep --kind two-spin-coop --b_z 1 --b_x 1e-7 --dipole 1 --t 1 --axis b_z --from 1e-7 --to 1e-6 --points 21",
    "sweep --kind coop-thermal --b_z 1e103 --b_x 0.1 --dipole 1 --t_e 0 --axis t --from 0 --to 5 --points 50",
    "sweep --kind coop-spont --b_z 0.1 --b_x 0.1 --gamma 0.5 --t 1 --axis b_z --from -0.5 --to 0.5 --points 21",
    "sweep --kind coop-thermal --b_z 0.3 --b_x 0.1 --dipole 2 --t_e 0.1 --axis t --from -1 --to 2 --points 13",
    "sweep --kind coop-thermal --b_z 0.3 --b_x 0.1 --dipole 2 --t_e 0 --axis t --from 0 --to 30 --points 31",
    "region --kind two-spin-coop --b_z 1 --b_x 0.1 --dipole 10 --t 1 --from 0.5 --to 1.5",
    "maximize --kind unitary-baseline --b_z 0.1 --n_spins 1 --t 1 --axis b_z --from 0.1 --to 1",
    "run --kind coop-spont --b_z 0.1 --b_x 0.1 --gamma 0.5 --t 1 --m 4",
    "run --kind coop-thermal --b_z 1e103 --b_x 0.1 --dipole 1 --t_e 0 --t 1",
    "tradeoff --b_x 0.1 --t 1",
]
TRANSCRIPTS = Path(__file__).parent / "data" / "cli_transcripts.json"


def answer(argv: list[str]) -> dict:
    """The CLI's exit code, stdout and stderr on one call, in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def transcript_argvs() -> list[list[str]]:
    return [call.split() + ["--format", fmt] for call in TRANSCRIPT_CALLS for fmt in ("csv", "json")]


def test_transcripts_cover_the_calls():
    assert [t["argv"] for t in json.loads(TRANSCRIPTS.read_text())] == transcript_argvs()


@pytest.mark.parametrize("argv", transcript_argvs(), ids=" ".join)
def test_transcript(argv):
    frozen = {tuple(t["argv"]): t for t in json.loads(TRANSCRIPTS.read_text())}
    assert answer(argv) == frozen[tuple(argv)]


def config_keys(config: RunConfig) -> dict:
    """The config-file entries of a RunConfig: each set field by its key."""
    values = {("from" if f.name == "from_" else f.name): getattr(config, f.name) for f in fields(config)}
    return {key: value for key, value in values.items() if value is not None}


class TestParseConfig:
    def test_flags_only(self):
        config = parse_config(RUN_FLAGS)
        assert config.command == "run"
        assert config.kind == "coop-spont"
        assert config.b_z == 0.1
        assert config.m == 1 and config.format == "csv"

    def test_config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {"command": "run", "kind": "coop-spont", "b_z": 0.1, "b_x": 0.1, "gamma": 0.5, "t": 1.0}
            )
        )
        config = parse_config(["--config", str(path)])
        assert config.command == "run"
        assert config.gamma == 0.5

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"command": "run", "kind": "std-spont", "b_z": 0.1, "gamma": 0.5, "t": 1.0}))
        config = parse_config(["--config", str(path), "--b_z", "0.3"])
        assert config.b_z == 0.3

    def test_round_trip(self, tmp_path):
        original = parse_config(RUN_FLAGS + ["--m", "7", "--format", "json"])
        path = tmp_path / "emitted.json"
        path.write_text(json.dumps(config_keys(original)))
        assert parse_config(["--config", str(path)]) == original

    def test_missing_command(self):
        with pytest.raises(UsageError, match="command"):
            parse_config(["--kind", "std-spont"])

    def test_missing_bz_for_coop_kind(self):
        with pytest.raises(UsageError, match="b_z"):
            parse_config(["run", "--kind", "coop-spont", "--t", "1"])

    def test_missing_t_for_run(self):
        with pytest.raises(UsageError, match="'t'"):
            parse_config(["run", "--kind", "std-spont", "--b_z", "0.1"])

    def test_unknown_config_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"command": "run", "wavelength": 5}))
        with pytest.raises(UsageError, match="wavelength"):
            parse_config(["--config", str(path)])

    def test_wrong_type(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"command": "run", "b_z": "big"}))
        with pytest.raises(UsageError, match="b_z"):
            parse_config(["--config", str(path)])

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(UsageError, match="malformed"):
            parse_config(["--config", str(path)])

    def test_sweep_requires_grid(self):
        with pytest.raises(UsageError, match="points"):
            parse_config(["sweep", "--kind", "std-spont", "--b_z", "0.1", "--t", "1", "--axis", "b_z", "--from", "0", "--to", "1"])

    def test_figure_requires_out(self):
        with pytest.raises(UsageError, match="out"):
            parse_config(["figure", "--figure", "fig2"])


class TestReportBound:
    def test_values(self):
        assert report_bound(4.0, 1) == pytest.approx(0.5)
        assert report_bound(16.0, 1) == pytest.approx(0.25)
        assert report_bound(4.0, 100) == pytest.approx(0.05)

    def test_undefined(self):
        with pytest.raises(ValueError):
            report_bound(0.0, 1)
        with pytest.raises(ValueError):
            report_bound(-1.0, 1)
        with pytest.raises(ValueError):
            report_bound(4.0, 0)


class TestCommands:
    def test_run_csv(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        assert main(RUN_FLAGS + ["--m", "100", "--out", str(out)]) == 0
        header, row = out.read_text().strip().split("\n")
        assert header == "kind,b_z,t,qfi,method,fd_step,m,bound"
        cells = row.split(",")
        assert cells[5] == ""  # the derivative is exact: no FD step
        qfi = float(cells[3])
        bound = float(cells[7])
        assert bound == pytest.approx(1.0 / math.sqrt(100 * qfi), rel=1e-10)

    def test_run_json(self, tmp_path):
        out = tmp_path / "run.json"
        assert main(RUN_FLAGS + ["--format", "json", "--out", str(out)]) == 0
        (record,) = json.loads(out.read_text())
        assert record["method"] == "qubit-closed-form"
        assert record["qfi"] > 0
        assert record["fd_step"] is None

    def test_usage_error_exit_code(self, capsys):
        assert main(["run", "--kind", "coop-spont", "--t", "1"]) == 2
        assert "b_z" in capsys.readouterr().err

    def test_infinite_rate_is_usage_error(self, capsys):
        assert main(["run", "--kind", "std-spont", "--b_z", "0.1", "--gamma", "inf", "--t", "1"]) == 2
        assert "gamma must be finite" in capsys.readouterr().err

    def test_nan_field_is_usage_error(self, capsys):
        assert main(["run", "--kind", "two-spin-coop", "--b_z", "nan", "--b_x", "0.1", "--dipole", "10", "--t", "1"]) == 2
        err = capsys.readouterr().err
        assert "b_z must be finite" in err and "Hermitian" not in err

    def test_non_finite_time_is_usage_error(self, capsys):
        assert main(["run", "--kind", "std-spont", "--b_z", "0.1", "--gamma", "0.5", "--t", "nan"]) == 2
        assert "'t' must be finite" in capsys.readouterr().err

    def test_non_finite_bound_is_usage_error(self, capsys):
        assert main(["maximize", "--kind", "unitary-baseline", "--b_z", "0.1", "--axis", "t",
                     "--from", "0", "--to", "inf"]) == 2
        assert "'to' must be finite" in capsys.readouterr().err

    def test_too_few_points_is_usage_error(self, capsys):
        assert main(["sweep", "--kind", "unitary-baseline", "--b_z", "0.1", "--axis", "t",
                     "--from", "0", "--to", "2", "--points", "0"]) == 2
        assert "'points' must be >= 2" in capsys.readouterr().err

    def test_reversed_bounds_is_usage_error(self, capsys):
        assert main(["sweep", "--kind", "unitary-baseline", "--b_z", "0.1", "--axis", "t",
                     "--from", "1", "--to", "0.1", "--points", "5"]) == 2
        assert "'from' must be < 'to'" in capsys.readouterr().err

    @pytest.mark.parametrize(("argv", "t", "bound"), [
        pytest.param(["region", *TWO_SPIN, "--from", "0.5", "--to", "1.5"], "0", ">", id="0"),
        pytest.param(["region", *TWO_SPIN, "--from", "0.5", "--to", "1.5"], "-1", ">", id="-1"),
        pytest.param(["tradeoff", "--b_x", "0.1"], "0", ">", id="tradeoff-0"),
        pytest.param(["maximize", *TWO_SPIN, "--axis", "b_z", "--from", "0.5", "--to", "1.5"], "0", ">", id="maximize-0"),
        pytest.param(["maximize", *TWO_SPIN, "--axis", "b_z", "--from", "0.5", "--to", "1.5"], "-1", ">", id="maximize--1"),
        pytest.param(["run", "--kind", "std-spont", "--b_z", "0.1", "--gamma", "0.5"], "-1", ">=", id="run--1"),
        pytest.param(["sweep", *TWO_SPIN, "--axis", "b_z", "--from", "0.5", "--to", "1.5", "--points", "3"], "-1", ">=",
                     id="sweep--1"),
    ])
    def test_region_non_positive_time_is_usage_error(self, capsys, argv, t, bound):
        # No probe time is negative.  At t = 0 every QFI is 0, so a region's
        # threshold (the Heisenberg limit at t), a trade-off width and a
        # maximizer over a field are undefined: the error names t.
        assert main([*argv, "--t", t]) == 2
        assert capsys.readouterr().err == f"usage error: 't' must be {bound} 0 for command '{argv[0]}', got {float(t)}\n"

    def test_maximize_negative_time_range_is_usage_error(self, capsys):
        # A maximizer's t range is a range of probe times; a t sweep instead
        # records the error at each negative point.
        argv = ["--kind", "std-spont", "--b_z", "0.1", "--gamma", "0.5", "--axis", "t", "--from", "-1", "--to", "1"]
        assert main(["maximize", *argv]) == 2
        assert capsys.readouterr().err == "usage error: 'from' must be >= 0 for command 'maximize' over t, got -1.0\n"
        assert main(["sweep", *argv, "--points", "3"]) == 1
        assert "time must be >= 0, got -1.0" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["run", "--kind", "std-spont", "--b_z", "0.1", "--gamma", "0.5"],
        ["sweep", *TWO_SPIN, "--axis", "b_z", "--from", "0.5", "--to", "1.5", "--points", "3"],
    ])
    def test_zero_time_gives_zero_qfi(self, capsys, argv):
        assert main([*argv, "--t", "0", "--format", "json"]) == 0
        assert [row["qfi"] for row in json.loads(capsys.readouterr().out)] == [0.0] * (1 if argv[0] == "run" else 3)

    def test_thermal_tiny_temperature_runs(self, capsys):
        # fig. 4 parameters with omega / t_e ~ 6300, past the exp overflow
        assert main(["run", "--kind", "coop-thermal", "--b_z", "0.3", "--b_x", "0.1", "--dipole", "2",
                     "--t_e", "1e-4", "--t", "1"]) == 0

    def test_non_finite_qfi_is_computation_failure(self, capsys, nan_first_qfi):
        assert main(["run", "--kind", "coop-spont", "--b_z", "0.1", "--b_x", "0.1", "--gamma", "0.5",
                     "--t", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: QFI computed as nan, which is not finite" in err

    def test_non_finite_derivative_is_computation_failure(self, capsys, nan_first_derivative):
        assert main(["run", "--kind", "coop-spont", "--b_z", "0.1", "--b_x", "0.1", "--gamma", "0.5",
                     "--t", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: the b_z derivative of the state at t=1.0 has non-finite entries" in err

    @pytest.mark.parametrize("b, qfi", [("1e-100", "1.1771960029e+199"), ("1e-150", "1.1771960029e+299")])
    def test_tiny_cooperative_dephasing_field(self, capsys, b, qfi):
        assert main(["run", "--kind", "coop-deph", "--b_z", b, "--b_x", b, "--eta", "0.5", "--t", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[-1].split(",")[3] == qfi

    def test_subnormal_dephasing_field_names_the_derivative(self, capsys):
        assert main(["run", "--kind", "coop-deph", "--b_z", "1e-310", "--b_x", "1e-310", "--eta", "0.5",
                     "--t", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: the b_z derivative of the Liouvillian has non-finite entries\n"

    def test_qubit_overflow_is_named_without_warnings(self, capsys):
        # d rho ~ 1e200: the qubit closed form overflows, and says so with
        # its own message, not with numpy's RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", "--kind", "coop-deph", "--b_z", "1e-200", "--b_x", "1e-200", "--eta", "0.5",
                         "--t", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: QFI computed as inf, which is not finite\n"

    def test_sld_overflow_is_named_without_warnings(self, capsys):
        # d rho ~ t = 1e300: the spectral SLD sum of the two-spin state
        # overflows, and says so with its own message, not with numpy's
        # RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", "--kind", "unitary-baseline", "--b_z", "0.1", "--n_spins", "2", "--t", "1e300"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: QFI computed as inf, which is not finite\n"

    @pytest.mark.parametrize(
        "spec",
        [
            ["--kind", "unitary-baseline", "--b_z", "0.1", "--n_spins", "1"],
            ["--kind", "unitary-baseline", "--b_z", "0.1", "--n_spins", "2"],
            ["--kind", "std-spont", "--b_z", "0.1", "--gamma", "0"],
        ],
        ids=["one-spin", "two-spin", "std-spont"],
    )
    def test_unitary_derivative_overflow_is_named_without_warnings(self, capsys, spec):
        # At t = 1.7e308 the undamped coherence's derivative (e^{lam t} t)
        # d lam overflows, as the QFI 4 n^2 t^2 does: the run names the
        # derivative, with no NaN QFI and no numpy RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", *spec, "--t", "1.7e308"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: the b_z derivative of the state at t=1.7e+308 has non-finite entries\n"

    @pytest.mark.parametrize("t", ["1e30", "1e60", "1e300"])
    def test_two_spin_far_past_the_steady_state(self, capsys, t):
        # ||B t||_1 up to ~3e304: the exponential norms its powers after an
        # exact power-of-two scaling, so nothing overflows, and the QFI is
        # the steady state's, the 40-digit oracle's value at t = 1e3 and 1e4.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", "--kind", "two-spin-coop", "--b_z", "1", "--b_x", "0.1", "--dipole", "10",
                         "--t", t]) == 0
        assert capsys.readouterr().out.splitlines()[-1].split(",")[3] == "41.665554275"

    def test_sweep_with_failed_point(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(
            ["sweep", "--kind", "coop-spont", "--b_z", "0.1", "--b_x", "0.1", "--gamma", "0.5",
             "--t", "0.5", "--axis", "b_z", "--from", "-0.1", "--to", "0.1", "--points", "5",
             "--out", str(out)]
        )
        assert rc == 1
        assert "b_z=0.0" in capsys.readouterr().err
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "b_z,qfi,method,fd_step,error"
        assert len(lines) == 6
        failed = [line for line in lines[1:] if line.startswith("0,")]
        assert len(failed) == 1 and "InvalidScenarioError" in failed[0]

    def test_sweep_clean(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(
            ["sweep", "--kind", "unitary-baseline", "--b_z", "0.1", "--axis", "t",
             "--from", "0", "--to", "2", "--points", "5", "--out", str(out)]
        )
        assert rc == 0
        rows = out.read_text().strip().split("\n")[1:]
        assert float(rows[-1].split(",")[1]) == pytest.approx(16.0, rel=1e-8)

    def test_region_command(self, tmp_path):
        # at t = 0.25 the cooperative scheme beats 4t^2 across the whole
        # bracket, so both endpoints sit on the bracket edges
        out = tmp_path / "region.csv"
        rc = main(
            ["region", "--kind", "coop-spont", "--b_z", "0.1", "--b_x", "0.1", "--gamma", "0.5",
             "--t", "0.25", "--from", "0.05", "--to", "0.3", "--out", str(out)]
        )
        assert rc == 0
        header, row = out.read_text().strip().split("\n")
        assert header == "lower,upper,width,threshold,resolved"
        cells = row.split(",")
        assert float(cells[0]) == 0.05
        assert float(cells[1]) == 0.3
        assert cells[4] == "true"

    def test_region_unresolved(self, capsys):
        # at t = 5 the cooperative scheme stays below 4t^2 = 100 across the
        # whole bracket, so there is no region and its bounds are empty
        rc = main(
            ["region", "--kind", "coop-spont", "--b_z", "0.1", "--b_x", "0.1", "--gamma", "0.5",
             "--t", "5", "--from", "0.05", "--to", "0.3"]
        )
        assert rc == 0
        assert capsys.readouterr().out == "lower,upper,width,threshold,resolved\n,,,100,false\n"

    @pytest.mark.parametrize("argv, header", [
        (["maximize", "--kind", "unitary-baseline", "--b_z", "0.1", "--axis", "t", "--from", "0", "--to", "2"], "t,qfi"),
        (["tradeoff", "--b_x", "0.1", "--t", "1"], "b_x,t,f_max,width"),
    ], ids=["maximize", "tradeoff"])
    def test_csv_header(self, argv, header, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out.split("\n")[0] == header

    def test_maximize_command(self, tmp_path):
        out = tmp_path / "max.json"
        rc = main(
            ["maximize", "--kind", "unitary-baseline", "--b_z", "0.1", "--axis", "t",
             "--from", "0", "--to", "2", "--format", "json", "--out", str(out)]
        )
        assert rc == 0
        (record,) = json.loads(out.read_text())
        assert record["t"] == pytest.approx(2.0, abs=1e-6)
        assert record["qfi"] == pytest.approx(16.0, rel=1e-8)

    @pytest.mark.parametrize("n_spins, t", [("1", "1"), ("2", "0.5")])
    def test_flat_maximize_reports_no_argmax(self, capsys, n_spins, t):
        # The unitary QFI 4 n^2 t^2 = 4 is the same at every b_z: the
        # argmax cell is empty (JSON null), as an unresolved region's are.
        argv = ["maximize", "--kind", "unitary-baseline", "--b_z", "0.1", "--n_spins", n_spins, "--t", t,
                "--axis", "b_z", "--from", "0.1", "--to", "1"]
        assert main(argv) == 0
        assert capsys.readouterr().out == "b_z,qfi\n,4\n"
        assert main([*argv, "--format", "json"]) == 0
        (record,) = json.loads(capsys.readouterr().out)
        assert record["b_z"] is None and record["qfi"] == pytest.approx(4.0, rel=1e-14)

    def test_tradeoff_command(self, capsys):
        assert main(["tradeoff", "--b_x", "0.1", "--t", "1"]) == 0
        row = capsys.readouterr().out.strip().split("\n")[1]
        b_x, t, f_max, width = row.split(",")
        assert float(f_max) == 50.0
        assert float(width) == pytest.approx(0.247833, abs=1e-6)

    def test_tradeoff_out_of_regime(self, capsys):
        assert main(["tradeoff", "--b_x", "0.2", "--t", "1"]) == 1
        assert "16" in capsys.readouterr().err


class TestFigures:
    def test_fig2_heisenberg_column(self, fig2_rows):
        row = next(r for r in fig2_rows if abs(r["t"] - 1.0) < 1e-12)
        assert row["f_heisenberg"] == 4.0

    def test_fig2_grid(self, fig2_rows):
        assert len(fig2_rows) == 100
        assert fig2_rows[0]["t"] == pytest.approx(0.05)
        assert fig2_rows[-1]["t"] == pytest.approx(5.0)

    def test_fig5_peak_location(self, fig5_rows):
        peak = max(fig5_rows, key=lambda r: r["f_coop"])
        assert 0.95 <= peak["b_z"] <= 1.05

    def test_figa1_effective_peak(self, figa1_rows):
        row = next(r for r in figa1_rows if abs(r["b_z"] - 1.0) < 1e-12)
        assert row["f_ground_effective"] == pytest.approx(50.0, rel=1e-12)

    def test_figure_csv_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["figure", "--figure", "figA1", "--out", str(a)]) == 0
        assert main(["figure", "--figure", "figA1", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        first = a.read_text().split("\n")
        assert first[0] == "b_z,f_ground_exact,f_ground_effective"
        assert a.read_text().endswith("\n")

    def test_figure_json_matches_csv(self, tmp_path):
        csv_out, json_out = tmp_path / "figA1.csv", tmp_path / "figA1.json"
        assert main(["figure", "--figure", "figA1", "--out", str(csv_out)]) == 0
        assert main(["figure", "--figure", "figA1", "--format", "json", "--out", str(json_out)]) == 0
        with open(csv_out, newline="", encoding="utf-8") as fh:
            csv_rows = list(csv.DictReader(fh))
        json_rows = json.loads(json_out.read_text())
        assert [list(row) for row in json_rows] == [list(row) for row in csv_rows]
        for json_row, csv_row in zip(json_rows, csv_rows):
            # the CSV keeps 12 significant digits
            assert json_row == {key: pytest.approx(float(value), rel=1e-11) for key, value in csv_row.items()}

    def test_unknown_figure(self):
        with pytest.raises(ValueError):
            figure_rows("fig9")

    def test_figure_io_error_names_path(self, capsys):
        assert main(["figure", "--figure", "figA1", "--out", "/nonexistent-dir/x.csv"]) == 1
        assert "/nonexistent-dir/x.csv" in capsys.readouterr().err


def test_cli_answers_without_scipy(tmp_path):
    # Only the reference route `lindblad.propagate` imports scipy, inside its
    # body: a fresh interpreter that imports the package and its CLI and
    # answers one run per kind, a region, a maximize and the fig5 data set
    # has no scipy module.
    src = str(Path(coopmetro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    kinds = [
        "--kind std-spont --b_z 0.1 --gamma 0.5",
        "--kind coop-spont --b_z 0.1 --b_x 0.1 --gamma 0.5",
        "--kind std-deph --b_z 0.1 --eta 0.5",
        "--kind coop-deph --b_z 0.1 --b_x 0.1 --eta 0.5",
        "--kind coop-thermal --b_z 0.3 --b_x 0.1 --dipole 2 --t_e 0.1",
        "--kind two-spin-coop --b_z 1 --b_x 0.1 --dipole 10",
        "--kind unitary-baseline --b_z 0.1 --n_spins 2",
    ]
    argvs = [["run", *kind.split(), "--t", "1"] for kind in kinds] + [
        "region --kind two-spin-coop --b_z 1 --b_x 0.1 --dipole 10 --t 1 --from 0.5 --to 1.5".split(),
        "maximize --kind coop-spont --b_z 0.1 --b_x 0.1 --gamma 0.5 --axis t --from 0.05 --to 5".split(),
        ["figure", "--figure", "fig5", "--out", str(tmp_path / "fig5.csv")],
    ]
    code = (
        "import json, sys; import coopmetro, coopmetro.cli as cli; "
        "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]; "
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy')); sys.exit(max(codes))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argvs)], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("qfi,method") == len(kinds)
    assert "lower,upper,width,threshold,resolved" in done.stdout
    assert "t,qfi" in done.stdout
    assert (tmp_path / "fig5.csv").exists()
    assert done.stdout.splitlines()[-1] == "[]"


if __name__ == "__main__":
    TRANSCRIPTS.write_text(json.dumps([answer(argv) for argv in transcript_argvs()], indent=1) + "\n")
