import csv
import json
import math

import pytest

from coopmetro.cli import (
    RunConfig,
    UsageError,
    figure_rows,
    main,
    parse_config,
    report_bound,
)

RUN_FLAGS = ["run", "--kind", "coop-spont", "--b_z", "0.1", "--b_x", "0.1", "--gamma", "0.5", "--t", "1"]


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
        path.write_text(json.dumps(original.to_dict()))
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
        qfi = float(cells[3])
        bound = float(cells[7])
        assert bound == pytest.approx(1.0 / math.sqrt(100 * qfi), rel=1e-10)

    def test_run_json(self, tmp_path):
        out = tmp_path / "run.json"
        assert main(RUN_FLAGS + ["--format", "json", "--out", str(out)]) == 0
        (record,) = json.loads(out.read_text())
        assert record["method"] == "qubit-closed-form"
        assert record["qfi"] > 0

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

    def test_thermal_tiny_temperature_runs(self, capsys):
        # fig. 4 parameters with omega / t_e ~ 6300, past the exp overflow
        assert main(["run", "--kind", "coop-thermal", "--b_z", "0.3", "--b_x", "0.1", "--dipole", "2",
                     "--t_e", "1e-4", "--t", "1"]) == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_qfi_is_computation_failure(self, capsys):
        # The FD step, capped at |b_z|/2, is subnormal here and the difference quotient overflows.
        assert main(["run", "--kind", "coop-spont", "--b_z", "2.2e-311", "--b_x", "0", "--gamma", "0",
                     "--t", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: QFI computed as nan, which is not finite" in err

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
