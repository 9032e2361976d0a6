import json
import math

import pytest

from gdmrelay.cli import _parse_snr_grid, build_parser, main


class TestSnrGrid:
    def test_range_form(self):
        assert _parse_snr_grid("0:5:15") == (0.0, 5.0, 10.0, 15.0)

    def test_range_inclusive_endpoint(self):
        assert _parse_snr_grid("10:2.5:15")[-1] == 15.0

    def test_comma_list(self):
        assert _parse_snr_grid("3,7,11.5") == (3.0, 7.0, 11.5)

    def test_single_value(self):
        assert _parse_snr_grid("12") == (12.0,)

    def test_bad_step_rejected(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_snr_grid("0:-1:10")
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_snr_grid("ten")


class TestExitCodes:
    def test_missing_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_detector_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--detector", "viterbi"])
        assert exc.value.code == 2

    def test_runtime_error_returns_3(self, capsys):
        # frame length incompatible with block length fails inside the run
        rc = main(["simulate", "--K", "16", "--L", "8", "--snr", "10",
                   "--frames-max", "10"])
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    def test_genie_count_without_genie_mode_returns_3(self, capsys):
        rc = main(["simulate", "--relays", "2", "--genie-r", "2", "--snr", "10",
                   "--frames-max", "10"])
        assert rc == 3
        assert "genie_r" in capsys.readouterr().err

    def test_negative_seed_returns_3(self, capsys):
        rc = main(["simulate", "--seed", "-1", "--snr", "10", "--frames-max", "10"])
        assert rc == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and "master_seed" in err

    def test_no_workers_returns_3(self, capsys):
        rc = main(["simulate", "--threads", "0", "--snr", "10", "--frames-max", "10",
                   "--K", "15"])
        assert rc == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and "workers" in err
        assert err.count("error:") == 1

    @pytest.mark.parametrize("split", [["--L", "4", "--K", "15"], ["--L", "8", "--K", "16"]])
    def test_coherent_block_length_returns_3(self, split, capsys):
        rc = main(["simulate", "--detector", "coherent", *split, "--snr", "10",
                   "--frames-max", "10"])
        assert rc == 3
        out, err = capsys.readouterr()
        assert out == "" and "coherent reference has no block structure" in err

    @pytest.mark.parametrize("rho_n", ["5", "0.5", "nan"])
    def test_normal_power_at_block_length_one_returns_3(self, rho_n, capsys):
        # L=1 has no normal symbols, so there is no normal-symbol power to set
        rc = main(["simulate", "--L", "1", "--rho-n", rho_n, "--K", "15", "--snr", "10",
                   "--frames-max", "10"])
        assert rc == 3
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and err.startswith("error:")
        assert "L=1" in err

    @pytest.mark.parametrize("argv", [
        ["analyze", "--relays", "0", "--snr", "10"],
        ["analyze", "--mod", "1", "--snr", "10"],
        ["analyze", "--snr", "30,-20"],  # the 30 dB row is fine, -20 dB has eps >= 1/2
        ["complexity", "--relays", "0"],
    ])
    def test_bad_input_prints_nothing(self, argv, capsys):
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:")


class TestOptimize:
    def test_prints_known_split(self, capsys):
        assert main(["optimize", "--L", "8"]) == 0
        out = capsys.readouterr().out
        assert "rho_n* = 0.829" in out
        assert "ratio" in out

    def test_degenerate_note(self, capsys):
        main(["optimize", "--L", "1"])
        assert "degenerate" in capsys.readouterr().out

    def test_feasibility_diagnostic_line(self, capsys):
        main(["optimize", "--L", "8", "--gamma-sr", "1e6", "--gamma-sd", "1"])
        assert "feasibility ratio" in capsys.readouterr().out

    def test_strong_relay_link_gives_finite_ratio(self, capsys):
        # the relay error rate is below EPSILON_FLOOR here; it is floored before the log
        assert main(["optimize", "--L", "4", "--gamma-sr", "1e17", "--gamma-sd", "1"]) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        assert line.startswith("feasibility ratio = ")
        assert math.isfinite(float(line.split()[3]))

    def test_huge_ratio_prints_in_bounded_width(self, capsys):
        assert main(["optimize", "--L", "4", "--gamma-sr", "1e300", "--gamma-sd", "1e-300"]) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        assert line.startswith("feasibility ratio = ") and len(line) < 80
        assert float(line.split()[3]) > 1e290

    @pytest.mark.parametrize("flag", ["--gamma-sr", "--gamma-sd"])
    def test_one_snr_alone_exits_2(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--L", "8", flag, "10"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--gamma-sr" in err and "--gamma-sd" in err


class TestComplexity:
    def test_table_row_and_saving(self, capsys):
        assert main(["complexity", "--mod", "8", "--relays", "12"]) == 0
        out = capsys.readouterr().out
        assert "amld 6872 8728 7 96 15703" in out
        assert "nmld 1120 1144 187 0 2451" in out
        assert "84.39%" in out

    def test_single_detector_no_saving_line(self, capsys):
        main(["complexity", "--detector", "pld", "--mod", "8", "--relays", "12"])
        out = capsys.readouterr().out
        assert "pld 1631 2093 175 0 3899" in out
        assert "saving" not in out

    def test_detectors_follow_op_count_table(self, tmp_path, capsys):
        from gdmrelay import harness
        from gdmrelay.detectors import OP_COUNTS, count_ops

        kinds = list(OP_COUNTS)
        with pytest.raises(SystemExit):
            main(["complexity", "--help"])
        assert "{all," + ",".join(kinds) + "}" in capsys.readouterr().out
        assert main(["complexity"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:1 + len(kinds)]
        assert [row.split()[0] for row in rows] == kinds
        assert main(["reproduce", "--figure", "fig4a", "--out-dir", str(tmp_path)]) == 0
        header, first = (tmp_path / "fig4a_opcounts.dat").read_text().splitlines()[:2]
        assert header == f"# x {' '.join(kinds)} (total ops per symbol)"
        assert first.split()[1:] == [str(count_ops(kind, 2, 1).total) for kind in kinds]
        assert harness.DETECTOR_KINDS == (*kinds, "coherent", "relay-only")


class TestDiversity:
    def test_overall(self, capsys):
        assert main(["diversity", "--relays", "4"]) == 0
        assert "diversity=3" in capsys.readouterr().out

    def test_conditional_on_errors(self, capsys):
        main(["diversity", "--relays", "3", "--errors", "2"])
        assert "diversity=3" in capsys.readouterr().out

    def test_genie_mode(self, capsys):
        main(["diversity", "--relays", "3", "--genie-r", "3"])
        assert "diversity=4" in capsys.readouterr().out

    def test_errors_and_genie_r_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["diversity", "--relays", "2", "--errors", "1", "--genie-r", "1"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "not allowed with" in err


class TestAnalyze:
    @pytest.mark.parametrize("argv, snr", [
        (["--mod", "8"], "0"),  # the default grid 0:5:30; eps >= 1/2 below about 6.3 dB
        (["--mod", "8", "--snr", "30,6,0"], "6"),
        (["--mod", "16", "--snr", "10:1:14"], "10"),  # below about 12.4 dB at M=16
    ], ids=["m8-default-grid", "m8-list", "m16-range"])
    def test_refusal_names_the_first_refused_snr(self, argv, snr, capsys):
        assert main(["analyze", *argv]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"error: at {snr} dB: epsilon must lie in (0, 1/2), got 0.")

    def test_block_length_other_than_one_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--L", "16", "--snr", "10"])
        assert exc.value.code == 2
        assert "L=1 only" in capsys.readouterr().err

    def test_block_length_one_accepted(self, capsys):
        assert main(["analyze", "--L", "1", "--snr", "10"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2

    @pytest.mark.parametrize("offset", ["3", "-0.5", "nan"])
    def test_sr_offset_other_than_zero_exits_2(self, offset, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", f"--sr-offset-db={offset}", "--snr", "10"])
        assert exc.value.code == 2
        assert "symmetric links" in capsys.readouterr().err

    def test_sr_offset_zero_accepted(self, capsys):
        assert main(["analyze", "--snr", "10,20"]) == 0
        plain = capsys.readouterr().out
        assert main(["analyze", "--sr-offset-db", "0", "--snr", "10,20"]) == 0
        assert capsys.readouterr().out == plain

    def test_power_scales_the_receive_snr(self, capsys):
        # power p_s at grid SNR g is unit power at p_s * g, in every column
        grid = [0.0, 5.0, 15.0, 30.0]
        assert main(["analyze", "--relays", "2", "--power", "2",
                     "--snr", ",".join(map(str, grid))]) == 0
        doubled = capsys.readouterr().out.splitlines()[1:]
        shifted = ",".join(repr(v + 10 * math.log10(2)) for v in grid)
        assert main(["analyze", "--relays", "2", "--snr", shifted]) == 0
        unit = capsys.readouterr().out.splitlines()[1:]
        assert len(doubled) == len(unit) == len(grid)
        for a, b in zip(doubled, unit):
            assert [float(v) for v in a.split()[1:]] == pytest.approx(
                [float(v) for v in b.split()[1:]], rel=1e-12)

    def test_emits_grid_rows(self, capsys):
        assert main(["analyze", "--relays", "2", "--snr", "10,20"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("snr_db")
        assert len(lines) == 3
        ser10 = float(lines[1].split()[-1])
        ser20 = float(lines[2].split()[-1])
        assert ser20 < ser10


class TestSimulate:
    ARGS = ["simulate", "--relays", "1", "--mod", "4", "--K", "15",
            "--snr", "10", "--seed", "3", "--errors-min", "1000000000",
            "--frames-max", "40"]

    def test_prints_table(self, capsys):
        assert main(self.ARGS) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1].split() == ["snr_db", "symbols", "errors", "ser",
                                    "ci_lo", "ci_hi"]
        row = lines[2].split()
        assert row[0] == "10" and row[1] == str(40 * 15)

    def test_writes_output_files(self, tmp_path, capsys):
        rc = main(self.ARGS + ["--out-dir", str(tmp_path), "--json"])
        assert rc == 0
        stem = "ser_nmld_n1_m4_l1"
        assert (tmp_path / f"{stem}.json").exists()
        assert (tmp_path / f"{stem}.dat").exists()
        data = json.loads((tmp_path / f"{stem}.json").read_text())
        assert data["config"]["master_seed"] == 3

    @pytest.mark.parametrize("flags, exts", [
        ([], (".csv", ".dat")),
        (["--json"], (".json", ".dat")),
        (["--csv", "--json"], (".csv", ".json", ".dat")),
    ], ids=["default", "json", "csv-json"])
    def test_out_dir_files(self, flags, exts, tmp_path, capsys):
        assert main(self.ARGS + ["--out-dir", str(tmp_path), *flags]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            f"ser_nmld_n1_m4_l1{ext}" for ext in exts)

    def test_default_csv_matches_stdout(self, tmp_path, capsys):
        assert main(self.ARGS + ["--out-dir", str(tmp_path)]) == 0
        row = capsys.readouterr().out.strip().splitlines()[2].split()
        lines = (tmp_path / "ser_nmld_n1_m4_l1.csv").read_text().splitlines()
        echo = [line for line in lines if line.startswith("# ")]
        assert lines[:len(echo)] == echo and "# master_seed=3" in echo
        assert lines[len(echo)] == "snr_db,symbols,errors,ser,ci_lo,ci_hi"
        assert len(lines) == len(echo) + 2
        got = lines[-1].split(",")
        assert float(got[0]) == float(row[0]) and got[1:3] == row[1:3]
        assert int(got[1]) == 40 * 15

    def test_config_file_overrides_flags(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"K": 31, "snr": "12"}))
        assert main(self.ARGS + ["--config", str(cfg)]) == 0
        row = capsys.readouterr().out.strip().splitlines()[2].split()
        assert row[0] == "12" and row[1] == str(40 * 31)

    def test_config_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"bandwidth": 20}))
        with pytest.raises(SystemExit) as exc:
            main(self.ARGS + ["--config", str(cfg)])
        assert exc.value.code == 2
        assert "bandwidth" in capsys.readouterr().err

    @pytest.mark.parametrize("data", [{"relays": "2"}, {"relays": 2.5},
                                      {"relays": True}, {"power": "1"},
                                      {"detector": "viterbi"}, {"csv": 1},
                                      {"snr": [10, "x"]}, {"out_dir": 3},
                                      {"snr": ["5", "10"]}])
    def test_config_wrong_type_exits_2(self, tmp_path, capsys, data):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(data))
        with pytest.raises(SystemExit) as exc:
            main(self.ARGS + ["--config", str(cfg)])
        assert exc.value.code == 2
        assert repr(next(iter(data))) in capsys.readouterr().err

    def test_config_typed_values_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"relays": 2, "power": 1, "snr": [8, 12.5],
                                   "rho_n": None, "detector": "pld", "json": False}))
        assert main(self.ARGS + ["--config", str(cfg)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert "detector=pld relays=2" in out[0]
        assert [row.split()[0] for row in out[2:]] == ["8", "12.5"]

    def test_config_array_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps([{"K": 31}]))
        with pytest.raises(SystemExit) as exc:
            main(self.ARGS + ["--config", str(cfg)])
        assert exc.value.code == 2
        assert "must hold a JSON object" in capsys.readouterr().err

    def test_config_bad_json_exits_2(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text("{not json")
        with pytest.raises(SystemExit) as exc:
            main(self.ARGS + ["--config", str(cfg)])
        assert exc.value.code == 2


class TestReproduce:
    def test_opcount_figure(self, tmp_path, capsys):
        rc = main(["reproduce", "--figure", "fig4a", "--out-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "fig4a_opcounts.dat").exists()
        assert "analytic data written" in capsys.readouterr().out

    @pytest.mark.parametrize("figure", ["fig4a", "fig5b"])
    def test_opcount_figure_without_out_dir_says_nothing_written(self, figure, capsys):
        assert main(["reproduce", "--figure", figure]) == 0
        assert capsys.readouterr().out == (
            f"{figure}: analytic data not written: no --out-dir given\n")

    def test_simulated_figure_prints_each_curve(self, tmp_path, capsys, monkeypatch):
        from gdmrelay import harness

        monkeypatch.setitem(harness.FIGURE_PRESETS, "fig3", lambda scale, seed: {
            "tiny": harness.ExperimentConfig(n_relays=1, m=4, k_frame=15, l_block=1,
                                             detector="nmld", snr_grid_db=(10.0,),
                                             max_frames=20, master_seed=seed)})
        assert main(["reproduce", "--figure", "fig3", "--out-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out.startswith("fig3/tiny: ")
        assert (tmp_path / "fig3_tiny.csv").exists()

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "--figure", "fig99"])
        assert exc.value.code == 2

    def test_parser_lists_all_subcommands(self):
        help_text = build_parser().format_help()
        for cmd in ("simulate", "analyze", "optimize", "complexity",
                    "diversity", "reproduce"):
            assert cmd in help_text


class TestNonFiniteSnr:
    """inf, nan and dB values whose linear SNR overflows are bad input, not a run."""

    @pytest.mark.parametrize("command", ["simulate", "analyze"])
    @pytest.mark.parametrize("snr", ["inf", "10,nan", "1e400", "3100", "-inf,10", "-4000",
                                     "0:5:inf", "nan:5:10", "0:inf:10"])
    def test_bad_grid_exits_2(self, command, snr, capsys):
        budget = ["--frames-max", "300"] if command == "simulate" else []
        with pytest.raises(SystemExit) as exc:
            main([command, f"--snr={snr}", *budget])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "bad SNR grid" in err and "Traceback" not in err

    def test_config_file_infinity_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"snr": [10, Infinity]}')
        with pytest.raises(SystemExit) as exc:
            main(TestSimulate.ARGS + ["--config", str(cfg)])
        assert exc.value.code == 2
        assert "bad SNR grid" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--sr-offset-db", "--rd-offset-db"])
    def test_overflowing_offset_exits_3(self, flag, capsys):
        assert main(TestSimulate.ARGS + [flag, "3100"]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:") and "finite" in err

    def test_largest_finite_grid_value_accepted(self):
        assert _parse_snr_grid("3000") == (3000.0,)


class TestNonFinitePower:
    """An infinite power or S-R/S-D SNR is bad input: one error line and exit 3."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--snr", "10", "--frames-max", "10", "--power", "inf"],
        ["simulate", "--snr", "10", "--frames-max", "10", "--power", "-1"],
        ["simulate", "--snr", "10", "--frames-max", "10", "--K", "15", "--L", "4",
         "--rho-n", "0.5", "--power", "inf"],
        ["analyze", "--snr", "10", "--power", "inf"],
        ["optimize", "--L", "4", "--power", "inf"],
        ["optimize", "--L", "4", "--gamma-sr", "inf", "--gamma-sd", "10"],
        ["optimize", "--L", "4", "--gamma-sr", "10", "--gamma-sd", "inf"],
    ])
    def test_exits_3(self, argv, capsys):
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert err.count("\n") == 1 and err.startswith("error:") and "finite" in err
        if argv[0] == "optimize":
            assert out == ""  # nothing of the solution is printed before the check

    def test_config_file_infinity_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"power": Infinity}')
        assert main(TestSimulate.ARGS + ["--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:") and "finite" in err


class TestGridBound:
    """A range-form grid is counted before it is built and capped in length."""

    @pytest.mark.parametrize("command", ["simulate", "analyze"])
    @pytest.mark.parametrize("snr", ["0:1e-6:30", "0:1:10000", "-1e308:1e-300:1e308",
                                     "3000:1e-13:3000"])
    def test_oversized_grid_exits_2_at_once(self, command, snr, capsys):
        import time

        t0 = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main([command, f"--snr={snr}", "--relays", "1"])
        assert time.perf_counter() - t0 < 1.0
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "bad SNR grid" in err and "10000 points" in err and "Traceback" not in err

    def test_largest_grid_keeps_its_values(self):
        from gdmrelay.cli import SNR_GRID_MAX_POINTS

        grid = _parse_snr_grid("0:0.001:9.999")
        assert len(grid) == SNR_GRID_MAX_POINTS
        assert grid[:3] == (0.0, 0.001, 0.002) and grid[-1] == 9.999
        assert all(b > a for a, b in zip(grid, grid[1:]))


def test_out_dir_is_made_before_the_run(tmp_path, capsys, monkeypatch):
    from gdmrelay import harness

    def no_batch(*args):
        raise AssertionError("a batch ran")

    monkeypatch.setattr(harness, "_run_batch", no_batch)
    (tmp_path / "file").write_text("")
    rc = main(TestSimulate.ARGS + ["--out-dir", str(tmp_path / "file" / "out")])
    assert rc == 3
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and err.startswith("error:")
