"""The package and its command line as a user starts them: each command runs
in a fresh process, in an empty directory.

By default the command is ``python -m tunneltimes.cli`` with this checkout's
``src/`` first on PYTHONPATH. Set TUNNELTIMES_ENTRY_POINT to an installed
``tunneltimes`` executable (a name on PATH or a path) to check that
installation instead; the package is then imported from wherever the
interpreter finds it, and must not come from ``src/``.

Importing the package or its CLI, --version, and each point command at a point
whose momentum moments take the exponential sum load no numpy; a grid command
and a point on the moments' series route do. Each process runs with
PYTHONPROFILEIMPORTTIME, whose report on stderr names every module the process
imports, so numpy is in its sys.modules at exit exactly when the report names
it. Each command's stdout must be byte for byte that of cli.main() in this
process on the same argv.

TestCommands holds what a user sees of the grid commands and of the failures:
the files they write, exit codes, errors of exactly one line with no
traceback, and a sweep and a point re-run from their own ``# config:`` lines
to the same bytes. TestPackageSurface pins the exported names in-process.
"""

import importlib
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import tunneltimes
from tunneltimes import cli

SRC = Path(__file__).resolve().parents[1] / "src"
INSTALLED = os.environ.get("TUNNELTIMES_ENTRY_POINT")
COMMAND = [INSTALLED] if INSTALLED else [sys.executable, "-m", "tunneltimes.cli"]

#: A point whose moments take the exponential sum (kappa d about 11), and one
#: on their series route (kappa d about 0.16).
SUM_POINT = ("--E-eV", "5", "--d-nm", "1")
SERIES_POINT = ("--E-eV", "9.9", "--d-nm", "0.1")

#: The report line of a first import of numpy itself.
_NUMPY_IMPORT = re.compile(r"^import time:.*\|\s*numpy$", re.MULTILINE)


def start(args, cwd):
    """Run ``args``; return its exit code, stdout bytes, stderr without the
    import report, and whether it imported numpy."""
    env = dict(os.environ, PYTHONPROFILEIMPORTTIME="1")
    if not INSTALLED:
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(args, cwd=cwd, env=env, capture_output=True, timeout=120)
    report = proc.stderr.decode("utf-8")
    err = "".join(line for line in report.splitlines(True) if not line.startswith("import time:"))
    return proc.returncode, proc.stdout, err, bool(_NUMPY_IMPORT.search(report))


@pytest.mark.parametrize("module", ["tunneltimes", "tunneltimes.cli"])
def test_import_loads_no_numpy(tmp_path, module):
    script = f"import {module}, tunneltimes; print(tunneltimes.__file__)"
    code, out, err, numpy = start([sys.executable, "-c", script], tmp_path)
    assert (code, err, numpy) == (0, "", False)
    # the package under test: src/ by default, the installed one otherwise
    assert Path(out.decode().strip()).resolve().is_relative_to(SRC) == (not INSTALLED)


@pytest.mark.parametrize(
    "argv, loads_numpy",
    [
        (["--version"], False),
        *(([command, *SUM_POINT], False) for command in ("coeffs", "momentum", "times", "depth")),
        (["momentum", *SERIES_POINT], True),
        (["sweep"], True),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else None,
)
def test_command_loads_numpy_only_where_it_computes_with_it(capsys, tmp_path, argv, loads_numpy):
    code, out, err, numpy = start([*COMMAND, *argv], tmp_path)
    assert (code, err, numpy) == (0, "", loads_numpy)
    assert cli.main(argv) == 0
    assert out == capsys.readouterr().out.encode("utf-8")


#: The 38 names the package exports.
EXPORTS = (
    "BarrierProblem", "CONSTANTS", "DEFAULT_CUTOFF", "DEPTH_LEVEL", "DomainError",
    "EffectiveKinematics", "MissingGridPoint", "MomentumSpectrum", "NoConvergence",
    "ParseError", "PhysicalConstants", "SPEED_OF_LIGHT", "StationarySolution", "SweepConfig",
    "SweepRecord", "SweepTable", "ValidationError", "Wavenumbers", "dwell_time_numeric",
    "emit_figure_data", "emit_table1", "energy_ev_to_si", "energy_si_to_ev", "evaluate",
    "incident_flux", "length_nm_to_si", "length_si_to_nm", "momentum_amplitude",
    "momentum_spectrum", "parse_config", "parse_records", "penetration_depth",
    "phase_time_numeric", "records_to_csv", "run_sweep", "shared_denominator",
    "stationary_solution", "wavenumbers",
)
#: Per-quantity functions that are gone, by the module that defined them: each
#: closed form, the traversal time and the relative density are record columns
#: (or the fig4 curve) built by their kernels, and the boundary-matching check
#: is a test oracle (oracles.continuity_residual).
REMOVED = {
    "barrier": ("continuity_residual",),
    "depth": ("relative_density",),
    "times": ("bl_time", "dwell_time_analytic", "phase_time_analytic", "scaled_denominator"),
}
#: The submodules that import made attributes of the package.
SUBMODULES = (
    "barrier", "constants", "depth", "errors", "momentum", "numerics", "records", "sweep",
    "times",
)


class TestPackageSurface:
    def test_every_export_imports_by_name(self):
        assert len(EXPORTS) == 38 and sorted(tunneltimes.__all__) == sorted(EXPORTS)
        assert set(EXPORTS) | set(SUBMODULES) <= set(dir(tunneltimes))
        modules = [importlib.import_module(f"tunneltimes.{name}") for name in SUBMODULES]
        for name in EXPORTS:
            namespace = {}
            exec(f"from tunneltimes import {name}", namespace)
            value = namespace[name]
            assert value is getattr(tunneltimes, name)
            # the very object its module defines
            assert any(vars(module).get(name) is value for module in modules), name

    def test_submodules_are_attributes(self):
        for name in SUBMODULES:
            assert getattr(tunneltimes, name) is importlib.import_module(f"tunneltimes.{name}")

    @pytest.mark.parametrize(
        "module, name", [(m, n) for m, names in REMOVED.items() for n in names]
    )
    def test_a_removed_name_is_refused(self, module, name):
        assert name not in tunneltimes.__all__
        with pytest.raises(AttributeError, match=f"has no attribute '{name}'$"):
            getattr(tunneltimes, name)
        with pytest.raises(ImportError, match=f"cannot import name '{name}'"):
            exec(f"from tunneltimes.{module} import {name}", {})

    def test_an_unknown_name_is_refused(self):
        with pytest.raises(AttributeError, match=r"^module 'tunneltimes' has no attribute 'nope'$"):
            tunneltimes.nope
        with pytest.raises(ImportError, match="cannot import name 'nope'"):
            exec("from tunneltimes import nope", {})

    def test_grid_functions_are_numpy_once_built(self):
        from tunneltimes import numerics

        assert numerics.GRID.exp is np.exp and numerics.GRID.where is np.where
        assert "GRID" in vars(numerics)
        with pytest.raises(AttributeError, match=r"has no attribute 'NOPE'$"):
            numerics.NOPE


def one_line(err):
    """Whether ``err`` is exactly one line, as ``wc -l`` counts it."""
    return err.count("\n") == 1 and err.endswith("\n") and "Traceback" not in err


def data_rows(text):
    return [line for line in text.decode("utf-8").splitlines() if not line.startswith("#")]


class TestCommands:
    """The commands a user runs, each a fresh process in an empty directory."""

    def run(self, tmp_path, *argv):
        code, out, err, _ = start([*COMMAND, *argv], tmp_path)
        return code, out, err

    def test_table1_prints_its_table(self, tmp_path):
        code, out, err = self.run(tmp_path, "table1")
        assert (code, err) == (0, "") and len(data_rows(out)) == 1 + 45

    def test_figures_writes_every_figure(self, tmp_path):
        assert self.run(tmp_path, "figures", "--which", "all", "--out-dir", "figs") == (0, b"", "")
        for fig in ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6a"):
            assert (tmp_path / "figs" / f"{fig}.csv").stat().st_size > 0

    def test_a_sweep_reruns_from_its_config_echo(self, tmp_path):
        (tmp_path / "thin.cfg").write_text(
            "E_over_V0_grid=0.9,0.93,0.96,0.99\nd_nm_grid=0.05,0.1,0.2,0.3\n", encoding="utf-8"
        )
        assert self.run(tmp_path, "sweep", "--config", "thin.cfg", "--out", "thin.csv") == (
            0, b"", "")
        first = (tmp_path / "thin.csv").read_bytes()
        echo = [line[len("# config: "):] for line in first.decode().splitlines()
                if line.startswith("# config: ")]
        assert len(echo) == 4
        (tmp_path / "again.cfg").write_text("\n".join(echo) + "\n", encoding="utf-8")
        assert self.run(tmp_path, "sweep", "--config", "again.cfg", "--out", "again.csv") == (
            0, b"", "")
        assert (tmp_path / "again.csv").read_bytes() == first

    def test_a_point_reruns_from_its_config_echo(self, tmp_path):
        argv = ("times", "--E-eV", "5.983490325247025", "--V0-eV", "6.72482328895847",
                "--d-nm", "2.941034802111792")
        code, first, err = self.run(tmp_path, *argv)
        assert (code, err) == (0, "")
        flag = {"E_eV": "--E-eV", "V0_eV": "--V0-eV", "d_nm": "--d-nm", "Kprime": "--Kprime"}
        flags = []
        for line in first.decode().splitlines():
            key, _, value = line.removeprefix("# config: ").partition("=")
            if line.startswith("# config: ") and key in flag:
                flags += [flag[key], value]
        assert len(flags) == 8
        assert self.run(tmp_path, "times", *flags) == (0, first, "")

    def test_a_missing_config_is_one_error_line(self, tmp_path):
        code, out, err = self.run(tmp_path, "sweep", "--config", "missing.cfg")
        assert (code, out) == (1, b"") and one_line(err)
        assert err.startswith("tunneltimes: error:")

    def test_times_prints_its_row(self, tmp_path):
        code, out, err = self.run(tmp_path, "times", "--E-eV", "5", "--d-nm", "1")
        assert (code, err) == (0, "") and data_rows(out)[1]

    def test_a_thick_barrier_is_one_numeric_failure(self, tmp_path):
        # the printed D is not a double
        code, out, err = self.run(tmp_path, "times", "--E-eV", "5", "--d-nm", "40")
        assert (code, out) == (3, b"") and one_line(err) and "numeric failure" in err

    def test_an_energy_whose_k_underflows(self, tmp_path):
        # the sweep writes an error cell (the last column), times refuses it
        (tmp_path / "tiny.cfg").write_text("E_over_V0_grid=1e-300,0.5\nd_nm_grid=1\n",
                                           encoding="utf-8")
        assert self.run(tmp_path, "sweep", "--config", "tiny.cfg", "--out", "tiny.csv") == (
            0, b"", "")
        assert data_rows((tmp_path / "tiny.csv").read_bytes())[1].split(",")[-1]
        code, out, err = self.run(tmp_path, "times", "--E-eV", "1e-290", "--d-nm", "1")
        assert (code, out) == (1, b"") and one_line(err)
        assert err.startswith("tunneltimes: error:")

    def test_a_subcommand_parses_its_own_flags(self, tmp_path):
        code, out, err = self.run(tmp_path, "times", "--help")
        assert (code, err) == (0, "") and out.startswith(b"usage: tunneltimes times")
        code, out, err = self.run(tmp_path, "coeffs", "--E-eV", "5", "--d-nm", "1", "--bogus")
        assert (code, out) == (1, b"") and one_line(err)
        assert err.count("unrecognized arguments: --bogus") == 1

    def test_figures_refuses_out_with_every_figure(self, tmp_path):
        code, out, err = self.run(tmp_path, "figures", "--out", "x.csv")
        assert (code, out) == (1, b"") and one_line(err)
        assert err.startswith("tunneltimes: error: --out ")
        assert list(tmp_path.iterdir()) == []


class TestNoNumpyWarnings:
    """A point whose moments' series overflows (d far below an atom) fails its
    checks quietly, as the sweep's array pass does: one error line, no
    RuntimeWarning from numpy."""

    ARGV = ["times", "--E-eV", "5", "--d-nm", "1e-300"]

    def test_the_point_command_prints_one_error_line(self, tmp_path):
        code, out, err, _ = start([*COMMAND, *self.ARGV], tmp_path)
        assert (code, out) == (1, b"") and one_line(err)
        assert err == "tunneltimes: error: momentum-density normalization must be positive\n"

    def test_no_warning_in_process(self, capsys):
        from tunneltimes.sweep import SweepConfig, run_sweep

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(self.ARGV) == 1
            table = run_sweep(SweepConfig(d_nm_grid=(1e-300, 1.0)))
        assert capsys.readouterr().err.count("\n") == 1
        assert table[0].error.startswith("momentum: ")
