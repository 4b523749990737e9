import argparse
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tunneltimes import __version__, cli, sweep
from tunneltimes.cli import main
from tunneltimes.errors import ValidationError

PINS = json.loads(
    Path(__file__).with_name("point_pins.json").read_text(encoding="utf-8")
)
SMALL_CONFIG = b"E_over_V0_grid=0.5\nd_nm_grid=0.5\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPointCommands:
    def test_coeffs_reports_unitarity(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--E-eV", "5", "--d-nm", "0.5")
        assert code == 0
        lines = [line for line in out.splitlines() if not line.startswith("#")]
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        assert float(row["S_abs2"]) + float(row["R_abs2"]) == pytest.approx(1.0, abs=1e-5)
        assert float(row["k_per_m"]) == pytest.approx(1.1451e10, rel=1e-4)

    def test_momentum_reports_kinematics(self, capsys):
        code, out, _ = run(capsys, "momentum", "--E-eV", "0.1", "--d-nm", "1")
        assert code == 0
        lines = [line for line in out.splitlines() if not line.startswith("#")]
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["eps_eff_eV"]) + 10.0 == pytest.approx(34.102, rel=0.02)

    def test_times_reports_all_clocks(self, capsys):
        code, out, _ = run(capsys, "times", "--E-eV", "5", "--d-nm", "1")
        assert code == 0
        lines = [line for line in out.splitlines() if not line.startswith("#")]
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["t_bl_s"]) == pytest.approx(7.540e-16, rel=1e-3, abs=0)
        assert float(row["t_ph_numeric_s"]) == pytest.approx(
            float(row["t_ph_analytic_s"]), rel=1e-5, abs=0
        )

    def test_depth_handles_no_crossing(self, capsys):
        code, out, _ = run(capsys, "depth", "--E-eV", "1", "--d-nm", "0.1")
        assert code == 0
        lines = [line for line in out.splitlines() if not line.startswith("#")]
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert row["s_nm"] == "" and row["xi"] == ""
        assert float(row["eps_eff_eV"]) > 0.0

    @pytest.mark.parametrize("command", ["coeffs", "momentum", "times", "depth"])
    def test_config_echo_reruns_the_command(self, capsys, command):
        # six digits would echo E_eV=5.98349, and the run from that echo
        # prints other data rows
        argv = [command, "--E-eV", "5.983490325247025", "--V0-eV", "6.72482328895847",
                "--d-nm", "2.941034802111792"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        flags = {"E_eV": "--E-eV", "V0_eV": "--V0-eV", "d_nm": "--d-nm", "Kprime": "--Kprime"}
        echoed = [
            line.removeprefix("# config: ").split("=")
            for line in out.splitlines() if line.startswith("# config: ")
        ]
        assert echoed[:3] == [["E_eV", argv[2]], ["V0_eV", argv[4]], ["d_nm", argv[6]]]
        rerun = [command, *(arg for key, value in echoed for arg in (flags[key], value))]
        assert run(capsys, *rerun) == (0, out, "")

    def test_out_file_is_written(self, capsys, tmp_path):
        target = tmp_path / "point.csv"
        code, out, _ = run(capsys, "coeffs", "--E-eV", "5", "--d-nm", "0.5",
                           "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text(encoding="utf-8").startswith("# tool: tunneltimes")


class TestGridCommands:
    def test_table1_has_45_rows(self, capsys, tmp_path):
        target = tmp_path / "table1.csv"
        code, _, _ = run(capsys, "table1", "--out", str(target))
        assert code == 0
        rows = [
            line
            for line in target.read_text(encoding="utf-8").splitlines()
            if line and not line.startswith("#")
        ]
        assert len(rows) == 1 + 45

    def test_sweep_stdout_and_repeat_determinism(self, capsys):
        code1, out1, _ = run(capsys, "sweep")
        code2, out2, _ = run(capsys, "sweep")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_config_file_drives_the_grid(self, capsys, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text("E_over_V0_grid=0.5\nd_nm_grid=0.4,0.8\n", encoding="utf-8")
        code, out, _ = run(capsys, "sweep", "--config", str(config))
        assert code == 0
        rows = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert len(rows) == 1 + 2

    def test_a_config_that_starts_with_a_bom_reads_as_without_it(self, capsys, tmp_path):
        plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_bytes(b"V0_eV=8\n" + SMALL_CONFIG)
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        code, out, err = run(capsys, "sweep", "--config", str(plain))
        assert code == 0 and err == "" and "V0_eV=8\n" in out
        assert run(capsys, "sweep", "--config", str(bom)) == (0, out, "")

    def test_figures_all_writes_six_files(self, capsys, tmp_path):
        config = tmp_path / "small.cfg"
        config.write_text("E_over_V0_grid=0.5\nd_nm_grid=0.5\n", encoding="utf-8")
        out_dir = tmp_path / "figs"
        code, _, _ = run(capsys, "figures", "--config", str(config),
                         "--out-dir", str(out_dir))
        assert code == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["fig1.csv", "fig2.csv", "fig3.csv", "fig4.csv",
                         "fig5.csv", "fig6a.csv"]

    def test_single_figure_to_stdout(self, capsys, tmp_path):
        config = tmp_path / "small.cfg"
        config.write_text("E_over_V0_grid=0.5\nd_nm_grid=0.5\n", encoding="utf-8")
        code, out, _ = run(capsys, "figures", "--config", str(config),
                           "--which", "fig3")
        assert code == 0
        assert "t_ph_s,t_dw_s,t_bl_s" in out

    def test_thick_barriers_sweep_and_draw(self, capsys, tmp_path):
        # kappa*d from about 70 to 2300, past where sinh(kappa d) overflows
        config = tmp_path / "thick.cfg"
        config.write_text(
            "E_over_V0_grid=0.1,0.5,0.9\nd_nm_grid=20,60,200\n", encoding="utf-8"
        )
        code, out, err = run(capsys, "sweep", "--config", str(config))
        assert code == 0 and err == ""
        rows = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert len(rows) == 1 + 9 and all(row.endswith(",") for row in rows[1:])
        out_dir = tmp_path / "figs"
        code, _, err = run(capsys, "figures", "--config", str(config),
                           "--out-dir", str(out_dir))
        assert code == 0 and err == ""
        assert len(list(out_dir.iterdir())) == 6

    def test_outputs_key_is_refused(self, capsys, tmp_path):
        # --which picks one figure; the config has no figure list
        config = tmp_path / "narrow.cfg"
        config.write_text(
            "E_over_V0_grid=0.5\nd_nm_grid=0.5\noutputs=fig2,fig3\n",
            encoding="utf-8",
        )
        out_dir = tmp_path / "figs"
        code, _, err = run(capsys, "figures", "--config", str(config),
                           "--out-dir", str(out_dir))
        assert code == 1 and "line 3: unknown key 'outputs'" in err
        assert not out_dir.exists()

    def test_phase_step_key_is_refused(self, capsys, tmp_path):
        # the sweep takes the point commands' phase step
        config = tmp_path / "step.cfg"
        config.write_text("phase_step_eV=1e-4\n", encoding="utf-8")
        out = tmp_path / "sweep.csv"
        code, stdout, err = run(capsys, "sweep", "--config", str(config), "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err.splitlines() == ["tunneltimes: error: line 1: unknown key 'phase_step_eV'"]
        assert not out.exists()


class TestExitCodes:
    def test_domain_error_is_one(self, capsys):
        code, _, err = run(capsys, "coeffs", "--E-eV", "15", "--d-nm", "1")
        assert code == 1 and "error" in err

    def test_thickness_with_a_non_finite_phase_is_one(self, capsys):
        code, out, err = run(capsys, "coeffs", "--E-eV", "5", "--d-nm", "1e308")
        assert code == 1 and out == ""
        assert err == "tunneltimes: error: barrier phase k d must be finite\n"

    @pytest.mark.parametrize("command", ["coeffs", "momentum", "times", "depth"])
    def test_energy_whose_wavenumber_underflows_is_one(self, capsys, command):
        # k = 0 at 1e-290 eV; the closed forms would divide by it
        code, out, err = run(capsys, command, "--E-eV", "1e-290", "--d-nm", "1")
        assert code == 1 and out == ""
        assert err == (
            "tunneltimes: error: incident energy is so small that its wavenumber k"
            " underflows to 0\n"
        )

    @pytest.mark.parametrize("argv", [["--version"], ["--help"], ["sweep", "--help"]])
    def test_version_and_help_return_zero(self, capsys, argv):
        assert main(argv) == 0
        assert capsys.readouterr().out

    def test_bad_flag_is_one(self, capsys):
        code, _, err = run(capsys, "coeffs", "--E-eV", "5", "--nonsense")
        assert code == 1

    def test_config_parse_error_is_one(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("V0_eV=abc\n", encoding="utf-8")
        code, _, err = run(capsys, "sweep", "--config", str(config))
        assert code == 1 and "line 1" in err

    @pytest.mark.parametrize(
        "config, argv, named",
        [
            (None, ("table1", "--config", "{cfg}"), "{cfg}"),
            (b"E_over_V0_grid=0.5\xff\n", ("sweep", "--config", "{cfg}"), "{cfg}"),
            (SMALL_CONFIG, ("sweep", "--config", "{cfg}", "--out", "{dir}/none/o.csv"),
             "{dir}/none/o.csv"),
            (SMALL_CONFIG, ("figures", "--config", "{cfg}", "--out-dir", "{cfg}/figs"),
             "{cfg}/figs"),
        ],
        ids=["missing config", "config not UTF-8", "out into a missing directory",
             "out-dir under a file"],
    )
    def test_file_errors_are_one(self, capsys, tmp_path, config, argv, named):
        # one error line that names the file it could not read or write
        path = tmp_path / "small.cfg"
        if config is not None:
            path.write_bytes(config)
        code, out, err = run(capsys, *(a.format(cfg=path, dir=tmp_path) for a in argv))
        assert code == 1 and out == ""
        assert err.startswith("tunneltimes: error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert repr(named.format(cfg=path, dir=tmp_path)) in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("figures", "--out", "x.csv"), "--out"),
            (("figures", "--which", "all", "--out", "-"), "--out"),
            (("figures", "--which", "fig3", "--out-dir", "/nonexistent/x"), "--out-dir"),
            (("figures", "--which", "fig1", "--out-dir", "."), "--out-dir"),
        ],
        ids=["out with all", "stdout with all", "missing out-dir with one figure",
             "default out-dir given with one figure"],
    )
    def test_a_figures_flag_that_would_go_unused_is_one(
        self, capsys, tmp_path, monkeypatch, argv, flag
    ):
        # --out names the one file of a single figure, --out-dir the directory
        # of all six; a flag the chosen --which would not use is refused
        # before the sweep runs, and nothing is written
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"tunneltimes: error: {flag} ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_missing_config_prints_no_traceback(self, tmp_path):
        # as a process, so that an uncaught exception would print one
        proc = subprocess.run(
            [sys.executable, "-m", "tunneltimes.cli", "sweep", "--config", "missing.cfg"],
            cwd=tmp_path, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("tunneltimes: error: ")
        assert "Traceback" not in proc.stderr

    def test_missing_grid_point_is_two(self, capsys, tmp_path):
        config = tmp_path / "partial.cfg"
        config.write_text("d_nm_grid=0.2,0.3\n", encoding="utf-8")
        code, _, err = run(capsys, "table1", "--config", str(config))
        assert code == 2 and "missing grid point" in err

    def test_a_figure_set_that_cannot_be_emitted_writes_nothing(self, capsys, tmp_path):
        # under Kprime = 1e15 every v_rms is superluminal: fig1 draws, but
        # fig2 has no v_rms, so no figure file is made or overwritten
        config, out_dir = tmp_path / "sl.cfg", tmp_path / "figs"
        config.write_text("Kprime=1e15\n", encoding="utf-8")
        argv = ("figures", "--config", str(config), "--out-dir", str(out_dir))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and "is missing v_rms_m_per_s" in err
        assert not out_dir.exists()
        out_dir.mkdir()
        (out_dir / "fig1.csv").write_bytes(b"an earlier fig1\n")
        assert run(capsys, *argv) == (code, out, err)
        assert [path.name for path in out_dir.iterdir()] == ["fig1.csv"]
        assert (out_dir / "fig1.csv").read_bytes() == b"an earlier fig1\n"

    def test_cross_check_failure_is_three(self, capsys):
        code, out, err = run(capsys, "times", "--E-eV", "0.02", "--V0-eV", "1",
                             "--d-nm", "3")
        assert code == 3 and out == ""
        assert "numeric failure: phase cross-check: numeric " in err

    @pytest.mark.parametrize(
        "argv, name",
        [
            (("coeffs", "--E-eV", "5", "--V0-eV", "inf", "--d-nm", "1"), "height"),
            (("coeffs", "--E-eV", "5", "--d-nm", "inf"), "thickness"),
            (("momentum", "--E-eV", "5", "--d-nm", "1", "--Kprime", "inf"), "cutoff"),
        ],
    )
    def test_non_finite_input_is_one(self, capsys, argv, name):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert f"{name} must be finite" in err

    def test_non_finite_output_is_three(self, capsys, monkeypatch):
        # a NaN closed-form time fails the cross-check before it could reach
        # a cell
        closed = sweep._closed_times
        monkeypatch.setattr(
            sweep, "_closed_times", lambda *args: (math.nan, *closed(*args)[1:])
        )
        code, out, err = run(capsys, "times", "--E-eV", "5", "--d-nm", "0.5")
        assert code == 3 and out == ""
        assert "numeric failure: phase cross-check: numeric " in err
        assert err.rstrip().endswith("vs analytic nan")

    def test_non_finite_uncross_checked_output_is_three(self, capsys, monkeypatch):
        # the value is left out of the record, and the command reports it
        # as it always did
        monkeypatch.setattr(sweep, "_bl_time", lambda kappa, d: math.nan)
        code, out, err = run(capsys, "times", "--E-eV", "5", "--d-nm", "0.5")
        assert code == 3 and out == ""
        assert err == "tunneltimes: numeric failure: refusing to serialize a non-finite value\n"

    def test_non_finite_value_in_a_sweep_is_zero(self, capsys, tmp_path):
        # the phase closed form is NaN at E/V0 0.99, V0 4e134 eV: an empty
        # cell and an error entry, not an aborted sweep
        cfg = tmp_path / "extreme.cfg"
        cfg.write_text("V0_eV=4e134\nE_over_V0_grid=0.5,0.99\nd_nm_grid=1\nKprime=1e40\n")
        code, out, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == 0 and err == ""
        assert len([line for line in out.splitlines() if not line.startswith("#")]) == 3

    @pytest.mark.parametrize("line", ["V0_eV=1e135", "Kprime=1e160"])
    def test_a_sweep_that_refuses_every_point_is_zero(self, capsys, tmp_path, line):
        # every row is a problem cell; table1 then has no depth to print
        cfg = tmp_path / "refused.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run(capsys, "sweep", "--config", str(cfg))
        rows = [row for row in out.splitlines() if not row.startswith("#")][1:]
        assert code == 0 and err == "" and len(rows) == 50
        assert all(row.split(",")[-1].startswith("problem: ") for row in rows)
        code, out, err = run(capsys, "table1", "--config", str(cfg))
        assert code == 2 and out == "" and "missing grid point" in err

    def test_numeric_failure_is_three(self, capsys):
        # kappa*d is about 458: the printed D = D~ e^{2 kappa d} is not a double
        code, _, err = run(capsys, "times", "--E-eV", "5", "--d-nm", "40")
        assert code == 3 and "numeric failure" in err

    def test_preposterous_window_is_one(self, capsys):
        # the moments of a 1e15 per metre window are exact; its v_rms is not
        # physical
        code, out, err = run(capsys, "momentum", "--E-eV", "5", "--d-nm", "1",
                             "--Kprime", "1e15")
        assert code == 1 and out == "" and "superluminal" in err

    def test_non_finite_curve_is_three(self, capsys, tmp_path, monkeypatch):
        # the curve figures refuse a non-finite cell with the message every
        # other emitter uses, and write nothing; the NaN enters through the
        # amplitude kernel that fig1 and the point path share
        kernel = sweep._amplitude

        def amplitude_with_a_hole(wavenumber, *args):
            out = kernel(wavenumber, *args)
            out[..., out.shape[-1] // 2] = np.nan
            return out

        monkeypatch.setattr(sweep, "_amplitude", amplitude_with_a_hole)
        config = tmp_path / "small.cfg"
        config.write_text("E_over_V0_grid=0.5\nd_nm_grid=0.5\n", encoding="utf-8")
        code, out, err = run(capsys, "figures", "--config", str(config),
                             "--which", "fig1")
        assert code == 3 and out == ""
        assert err == (
            "tunneltimes: numeric failure: refusing to serialize a non-finite value\n"
        )


class TestParserReuse:
    @staticmethod
    def spy(monkeypatch):
        """Count build_parser() calls and the top-level parse_args calls."""
        built, top_level = [], []
        original = cli.build_parser

        def spying_build_parser():
            built.append(1)
            parser = original()
            parse_args = parser.parse_args

            def spy(*args, **kwargs):
                top_level.append(args)
                return parse_args(*args, **kwargs)

            parser.parse_args = spy
            return parser

        monkeypatch.setattr(cli, "build_parser", spying_build_parser)
        monkeypatch.setattr(cli, "_parser", None)
        return built, top_level

    def test_parser_is_built_once_per_process(self, capsys, monkeypatch):
        # built by the first call; a subcommand's flags are parsed once, by
        # its own parser, so the top-level parser sees only an argv that
        # names no subcommand
        built, top_level = self.spy(monkeypatch)
        for e_ev in ("1", "2", "5"):
            for command in ("coeffs", "momentum", "times", "depth"):
                assert run(capsys, command, "--E-eV", e_ev, "--d-nm", "0.5")[0] == 0
        assert run(capsys, "coeffs", "--E-eV", "5", "--nonsense")[0] == 1
        assert run(capsys, "sweep", "--help")[0] == 0
        assert top_level == []
        assert run(capsys, "--version") == (0, f"tunneltimes {__version__}\n", "")
        assert top_level == [(["--version"],)]
        assert len(built) == 1

    def test_main_without_argv_reads_sys_argv(self, capsys, monkeypatch):
        argv = ["coeffs", "--E-eV", "5", "--d-nm", "1"]
        given = run(capsys, *argv)
        assert given[0] == 0
        _, top_level = self.spy(monkeypatch)
        monkeypatch.setattr(sys, "argv", ["tunneltimes", *argv])
        assert main() == 0
        assert (0, *capsys.readouterr()) == given
        assert top_level == []
        monkeypatch.setattr(sys, "argv", ["tunneltimes", "--version"])
        assert main() == 0
        assert tuple(capsys.readouterr()) == (f"tunneltimes {__version__}\n", "")
        assert top_level == [(["--version"],)]

    def test_no_parse_state_leaks_between_calls(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_parser", None)
        small = tmp_path / "small.cfg"
        small.write_text("E_over_V0_grid=0.5\nd_nm_grid=0.5\n", encoding="utf-8")
        bad = tmp_path / "bad.cfg"
        bad.write_text("V0_eV=abc\n", encoding="utf-8")

        def pinned(*argv):
            code, out, _ = run(capsys, *argv)
            return [code, hashlib.sha256(out.encode()).hexdigest()]

        # non-default height and window, then a grid command, errors and --version
        assert run(capsys, "times", "--E-eV", "0.02", "--d-nm", "3",
                   "--V0-eV", "1")[0] == 3
        assert run(capsys, "momentum", "--E-eV", "5", "--d-nm", "1",
                   "--Kprime", "1e15")[0] == 1
        assert run(capsys, "figures", "--config", str(small), "--which", "fig3")[0] == 0
        assert run(capsys, "sweep", "--config", str(small), "--out", "-")[0] == 0
        assert run(capsys, "coeffs", "--E-eV", "5", "--nonsense")[0] == 1
        assert run(capsys, "sweep", "--config", str(bad))[0] == 1
        assert main(["--version"]) == 0
        assert capsys.readouterr().out == f"tunneltimes {__version__}\n"
        # the defaults, not the flags of earlier calls, drive these
        for command in ("coeffs", "momentum", "times", "depth"):
            argv = (command, "--E-eV", "1", "--d-nm", "0.1")
            assert pinned(*argv) == PINS[" ".join(argv)]


POINT_ROUTES = [
    (("--E-eV", "5", "--d-nm", "1"), "parsed"),
    (("--d-nm", "1", "--E-eV", "5", "--V0-eV", "8", "--Kprime", "1e10", "--out", "-"),
     "parsed"),
    (("--E-eV", "5", "--d-nm", "1", "--out", "-"), "parsed"),
    (("--E-eV", "5", "--d-nm", "1", "--out", ""), "parsed"),
    (("--E-eV", " 5 ", "--d-nm", "1"), "parsed"),
    (("--E-eV", "1_0", "--d-nm", "1"), "parsed"),
    (("--E-eV", "nan", "--d-nm", "1"), "parsed"),
    (("--E-eV", "1e400", "--d-nm", "1"), "parsed"),
    (("--E-eV", "1", "--d-nm", "1", "--E-eV", "5"), "parsed"),
    (("--E-eV=5", "--d-nm", "1"), "parsed"),
    (("--E-eV", "5", "--d-nm", "1", "--out"), "refused"),
    (("--E-eV", "5", "--d-nm", "1", "--bogus"), "refused"),
    (("--E-eV", "5"), "refused"),
    (("--E-eV", "x", "--d-nm", "1"), "refused"),
    (("--E", "5", "--d-nm", "1"), "parsed"),
    (("--E-eV", "-5", "--d-nm", "1"), "parsed"),
    (("--", "--E-eV", "5", "--d-nm", "1"), "refused"),
    (("-h",), "exited"),
    (("--version",), "refused"),
]
GRID_ROUTES = [
    (("--config", "grid.cfg", "--out", "grid.csv"), "parsed"),
    ((), "parsed"),
    (("--bogus",), "refused"),
    (("--config",), "refused"),
    (("--V0-eV", "5"), "refused"),
    (("--conf", "grid.cfg"), "parsed"),
    (("--out", "-5"), "parsed"),
    (("--", "--config", "grid.cfg"), "refused"),
    (("-h",), "exited"),
    (("--version",), "refused"),
]
FIGURES_ROUTES = [
    (("--which", "fig3", "--out", "fig3.csv"), "parsed"),
    (("--which", "fig9"), "refused"),
    (("--wh", "fig2", "--out-d", "figs"), "parsed"),
    (("--which", "all", "--out-dir", "figs"), "parsed"),
    (("--which", "fig9", "--out-dir", "figs"), "refused"),
]
ROUTES = [
    *(([command, *flags], kind) for command in ("coeffs", "momentum", "times", "depth")
      for flags, kind in POINT_ROUTES),
    *(([command, *flags], kind) for command in ("sweep", "table1", "figures")
      for flags, kind in GRID_ROUTES),
    *((["figures", *flags], kind) for flags, kind in FIGURES_ROUTES),
    # no subcommand: the top-level parser on both routes
    ([], "refused"),
    (["--version"], "exited"),
    (["-h"], "exited"),
    (["tim", "--E-eV", "5"], "refused"),
    (["--", "times"], "refused"),
]


@st.composite
def point_argvs(draw):
    """A point command's flags, shuffled, some left out and some given twice,
    each with the repr of any float (negative, subnormal, infinite or NaN),
    and sometimes an --out."""
    flags = draw(st.permutations(("--E-eV", "--V0-eV", "--d-nm", "--Kprime", "--out")))
    flags = flags[:draw(st.integers(2, len(flags)))]
    flags += draw(st.lists(st.sampled_from(flags), max_size=1))
    argv = [draw(st.sampled_from(("coeffs", "momentum", "times", "depth")))]
    for flag in flags:
        if flag == "--out":
            value = draw(st.sampled_from(("o.csv", "-", "", "-o")))
        else:
            value = repr(draw(st.floats(min_value=0.0) | st.floats(min_value=0.0) | st.floats()))
        argv += [flag, value]
    return argv


class TestParseRoutes:
    """main() parses a plain subcommand argv from that subcommand's own
    actions, and any other with that subcommand's own parser; the outcome is
    the top-level parser's, flag for flag."""

    @staticmethod
    def outcome(parse, argv):
        # the namespace as the repr of its sorted items, so that a NaN value
        # equals itself and -0.0 differs from 0.0
        try:
            return "parsed", repr(sorted(vars(parse(argv)).items()))
        except ValidationError as exc:
            return "refused", str(exc)
        except SystemExit as exc:
            return "exited", exc.code

    @staticmethod
    def top_level(argv):
        return cli.build_parser().parse_args(argv)

    @pytest.mark.parametrize("argv, kind", ROUTES, ids=[" ".join(a) or "empty" for a, _ in ROUTES])
    def test_main_parses_as_the_top_level_parser(self, capsys, monkeypatch, argv, kind):
        monkeypatch.setattr(cli, "_parser", None)
        routed = (*self.outcome(cli._parse, argv), *capsys.readouterr())
        assert routed == (*self.outcome(self.top_level, argv), *capsys.readouterr())
        assert routed[0] == kind
        if kind == "exited":  # -h or --version printed
            assert routed[1] == 0 and routed[2]

    def test_plain_argvs_never_reach_argparse(self, capsys, tmp_path, monkeypatch):
        # the benchmark's argv shapes: full flags, each given once with a value
        class ReachedArgparse(Exception):
            pass

        def refuse(*args, **kwargs):
            raise ReachedArgparse

        config = tmp_path / "small.cfg"
        config.write_bytes(SMALL_CONFIG)
        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
        monkeypatch.chdir(tmp_path)
        pairs = (("--E-eV", "5.0"), ("--V0-eV", "10.0"), ("--d-nm", "0.5"))
        for command in ("coeffs", "momentum", "times", "depth"):
            for order in itertools.permutations(pairs):
                assert run(capsys, command, *itertools.chain(*order))[0] == 0
        assert run(capsys, "sweep", "--config", str(config))[0] == 0
        assert run(capsys, "table1")[0] == 0
        assert run(capsys, "figures", "--which", "all", "--out-dir", "figs")[0] == 0
        assert len(list((tmp_path / "figs").iterdir())) == 6
        # an abbreviation or a help flag still goes to argparse
        for argv in (("coeffs", "--E", "5", "--d-nm", "0.5"), ("coeffs", "-h")):
            with pytest.raises(ReachedArgparse):
                main(list(argv))

    @settings(max_examples=500, deadline=None)
    @given(argv=point_argvs())
    def test_point_argvs_parse_as_the_top_level_parser(self, argv):
        assert self.outcome(cli._parse, argv) == self.outcome(self.top_level, argv)
