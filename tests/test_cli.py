import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from tunneltimes import __version__, cli, sweep
from tunneltimes.cli import main
from tunneltimes.momentum import MomentumSpectrum

PINS = json.loads(
    Path(__file__).with_name("point_pins.json").read_text(encoding="utf-8")
)


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
        assert float(row["t_bl_s"]) == pytest.approx(7.540e-16, rel=1e-3)
        assert float(row["t_ph_numeric_s"]) == pytest.approx(
            float(row["t_ph_analytic_s"]), rel=1e-5
        )

    def test_depth_handles_no_crossing(self, capsys):
        code, out, _ = run(capsys, "depth", "--E-eV", "1", "--d-nm", "0.1")
        assert code == 0
        lines = [line for line in out.splitlines() if not line.startswith("#")]
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert row["s_nm"] == "" and row["xi"] == ""
        assert float(row["eps_eff_eV"]) > 0.0

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


class TestExitCodes:
    def test_domain_error_is_one(self, capsys):
        code, _, err = run(capsys, "coeffs", "--E-eV", "15", "--d-nm", "1")
        assert code == 1 and "error" in err

    def test_thickness_with_a_non_finite_phase_is_one(self, capsys):
        code, out, err = run(capsys, "coeffs", "--E-eV", "5", "--d-nm", "1e308")
        assert code == 1 and out == ""
        assert err == "tunneltimes: error: barrier phase k d must be finite\n"

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

    def test_missing_grid_point_is_two(self, capsys, tmp_path):
        config = tmp_path / "partial.cfg"
        config.write_text("d_nm_grid=0.2,0.3\n", encoding="utf-8")
        code, _, err = run(capsys, "table1", "--config", str(config))
        assert code == 2 and "missing grid point" in err

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
        monkeypatch.setattr(sweep, "phase_time_analytic", lambda problem: math.nan)
        code, out, err = run(capsys, "times", "--E-eV", "5", "--d-nm", "0.5")
        assert code == 3 and out == ""
        assert "numeric failure: phase cross-check: numeric " in err
        assert err.rstrip().endswith("vs analytic nan")

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
        # other emitter uses, and write nothing
        def pdf_with_a_hole(self, wavenumber):
            out = np.ones(len(wavenumber))
            out[len(out) // 2] = np.nan
            return out

        monkeypatch.setattr(MomentumSpectrum, "pdf", pdf_with_a_hole)
        config = tmp_path / "small.cfg"
        config.write_text("E_over_V0_grid=0.5\nd_nm_grid=0.5\n", encoding="utf-8")
        code, out, err = run(capsys, "figures", "--config", str(config),
                             "--which", "fig1")
        assert code == 3 and out == ""
        assert err == (
            "tunneltimes: numeric failure: refusing to serialize a non-finite value\n"
        )


class TestParserReuse:
    def test_parser_is_built_once_per_process(self, capsys, monkeypatch):
        built = []
        original = cli.build_parser

        def counting_build_parser():
            built.append(1)
            return original()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        monkeypatch.setattr(cli, "_parser", None)
        for e_ev in ("1", "2", "5"):
            for command in ("coeffs", "momentum", "times", "depth"):
                assert run(capsys, command, "--E-eV", e_ev, "--d-nm", "0.5")[0] == 0
        assert run(capsys, "coeffs", "--E-eV", "5", "--nonsense")[0] == 1
        assert len(built) == 1

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
