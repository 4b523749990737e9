"""The package and its command line as a user starts them: each command runs
in a fresh process, in an empty directory.

By default the command is ``python -m tunneltimes.cli`` with this checkout's
``src/`` first on PYTHONPATH. Set TUNNELTIMES_ENTRY_POINT to an installed
``tunneltimes`` executable (a name on PATH or a path) to check that
installation instead; the package is then imported from wherever the
interpreter finds it, and must not come from ``src/``.

Importing the package or its CLI, --version, and each point command at a point
whose momentum moments take the exponential sum load no numpy; a grid command
and a point on the moments' series route do. Importing the CLI and each plain
argv load no argparse and no dataclasses; an argv that is not plain loads
argparse. Started without ``site`` (``python -S``; a ``site`` that imports
certifi, say, loads both itself), importing the CLI and each point command
load neither pathlib nor re. None of them, nor --version, loads the sweep
module: the grid engine and the emitters load for a grid command only. Each
process runs with PYTHONPROFILEIMPORTTIME, whose report on stderr names every module the process imports, so a module is in its
sys.modules at exit exactly when the report names it. Each command's stdout
must be byte for byte that of cli.main() in this process on the same argv.

TestCommands holds what a user sees of the grid commands and of the failures:
the files they write, exit codes, errors of exactly one line with no
traceback, and a sweep and a point re-run from their own ``# config:`` lines
to the same bytes. TestPackageSurface pins the exported names in-process.
"""

import importlib
import inspect
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

#: The module each line of the import report names.
_IMPORTED = re.compile(r"^import time:.*\|\s*(\S+)$", re.MULTILINE)


def start(args, cwd):
    """Run ``args``; return its exit code, stdout bytes, stderr without the
    import report, and the set of modules it imported."""
    env = dict(os.environ, PYTHONPROFILEIMPORTTIME="1")
    if not INSTALLED:
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(args, cwd=cwd, env=env, capture_output=True, timeout=120)
    report = proc.stderr.decode("utf-8")
    err = "".join(line for line in report.splitlines(True) if not line.startswith("import time:"))
    return proc.returncode, proc.stdout, err, set(_IMPORTED.findall(report))


@pytest.mark.parametrize("module", ["tunneltimes", "tunneltimes.cli"])
def test_import_loads_no_numpy(tmp_path, module):
    script = f"import {module}, tunneltimes; print(tunneltimes.__file__)"
    code, out, err, modules = start([sys.executable, "-c", script], tmp_path)
    assert (code, err, "numpy" in modules) == (0, "", False)
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
    code, out, err, modules = start([*COMMAND, *argv], tmp_path)
    assert (code, err, "numpy" in modules) == (0, "", loads_numpy)
    assert cli.main(argv) == 0
    assert out == capsys.readouterr().out.encode("utf-8")


#: What argparse loads, and modules the package does not use.
ARGPARSE = {"argparse", "gettext"}
UNUSED = {"dataclasses", "inspect"}


@pytest.mark.parametrize(
    "args, absent, present",
    [
        ([sys.executable, "-c", "import tunneltimes.cli"], ARGPARSE | UNUSED, set()),
        *(([*COMMAND, command, *SUM_POINT], ARGPARSE | UNUSED, set())
          for command in ("coeffs", "momentum", "times", "depth")),
        ([*COMMAND, "sweep"], {"argparse", "dataclasses"}, set()),  # numpy imports inspect
        ([*COMMAND, "--version"], {"tunneltimes.sweep"}, {"argparse"}),
        ([*COMMAND, "times", "-h"], set(), {"argparse"}),
        ([*COMMAND, "times", "--E", "5", "--d-nm", "1"], set(), {"argparse"}),
    ],
    ids=["import", "coeffs", "momentum", "times", "depth", "sweep", "--version", "-h",
         "abbreviated"],
)
def test_argparse_loads_only_for_an_argv_that_is_not_plain(tmp_path, args, absent, present):
    code, _, err, modules = start(args, tmp_path)
    assert (code, err) == (0, "")
    assert modules & (absent | present) == present


@pytest.mark.skipif(bool(INSTALLED), reason="python -S finds only the package in src/")
@pytest.mark.parametrize(
    "args",
    [["-c", "import tunneltimes.cli"],
     *(["-m", "tunneltimes.cli", command, *SUM_POINT]
       for command in ("coeffs", "momentum", "times", "depth"))],
    ids=["import", "coeffs", "momentum", "times", "depth"],
)
def test_a_point_command_loads_neither_pathlib_nor_re(tmp_path, args):
    code, _, err, modules = start([sys.executable, "-S", *args], tmp_path)
    assert (code, err) == (0, "")
    assert modules & {"pathlib", "re", "tunneltimes.sweep"} == set()


#: The 34 names the package exports.
EXPORTS = (
    "BarrierProblem", "DEFAULT_CUTOFF", "DEPTH_LEVEL", "DomainError", "ELECTRON_MASS",
    "EV_TO_JOULE", "EffectiveKinematics", "HBAR", "MissingGridPoint", "MomentumSpectrum",
    "NoConvergence", "ParseError", "SPEED_OF_LIGHT", "StationarySolution", "SweepConfig",
    "SweepRecord", "SweepTable", "ValidationError", "dwell_time_numeric",
    "emit_figure_data", "emit_table1", "energy_ev_to_si", "energy_si_to_ev", "evaluate",
    "length_nm_to_si", "length_si_to_nm", "momentum_spectrum", "parse_config",
    "parse_records", "penetration_depth", "phase_time_numeric", "records_to_csv",
    "run_sweep", "stationary_solution",
)
#: Per-quantity functions that are gone, by the module that defined them: each
#: closed form, the traversal time, the relative density and the incident
#: flux are record columns (or the fig4 curve) built by their kernels, the
#: momentum amplitude is the fig1 curve's kernel, and the boundary-matching
#: check is a test oracle (oracles.continuity_residual). A solution holds its
#: own k and kappa, and the record at one grid point is a test oracle too
#: (oracles.evaluate_point). The physical constants are plain module constants.
#: The closed forms' shared denominator D is 4 k^2 kappa^2 / |S|^2, from
#: coeffs' own columns.
REMOVED = {
    "barrier": ("Wavenumbers", "continuity_residual", "incident_flux", "wavenumbers"),
    "constants": ("CONSTANTS", "PhysicalConstants"),
    "depth": ("relative_density",),
    "momentum": ("momentum_amplitude",),
    "sweep": ("evaluate_point",),
    "times": ("bl_time", "dwell_time_analytic", "phase_time_analytic", "scaled_denominator",
              "shared_denominator"),
}
#: Methods that are gone, by class: the curves fig1 and fig4 draw are the
#: kernels' (oracles.momentum_density and oracles.psi_barrier at one problem).
REMOVED_METHODS = (("StationarySolution", "psi_barrier"), ("MomentumSpectrum", "pdf"))
#: Parameters that are gone, by function, as a positional and a keyword
#: argument: the phase step is the module's DEFAULT_PHASE_STEP_EV, the dwell
#: time and the spectrum solve their own problem, and evaluate() files its
#: record under its problem's own grid point.
REMOVED_PARAMETERS = {
    "phase_time_numeric": "step_ev", "dwell_time_numeric": "solution",
    "momentum_spectrum": "solution", "evaluate": "grid_point",
}
#: The submodules that import made attributes of the package.
SUBMODULES = (
    "barrier", "constants", "depth", "errors", "momentum", "numerics", "records", "sweep",
    "times",
)


class TestPackageSurface:
    def test_every_export_imports_by_name(self):
        assert len(EXPORTS) == 34 and sorted(tunneltimes.__all__) == sorted(EXPORTS)
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

    @pytest.mark.parametrize("cls, name", REMOVED_METHODS)
    def test_a_removed_method_is_refused(self, cls, name):
        assert not hasattr(getattr(tunneltimes, cls), name)

    @pytest.mark.parametrize("function, parameter", REMOVED_PARAMETERS.items())
    def test_a_removed_parameter_is_refused(self, function, parameter):
        # refused before the value is looked at
        args = [tunneltimes.BarrierProblem.from_ev_nm(5.0, 10.0, 0.5)]
        if function == "evaluate":
            args.append(tunneltimes.SweepConfig())
        call = getattr(tunneltimes, function)
        taken = "1 positional argument" if len(args) == 1 else f"{len(args)} positional arguments"
        with pytest.raises(TypeError, match=f"takes {taken} but {len(args) + 1} were given"):
            call(*args, None)
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{parameter}'"):
            call(*args, **{parameter: None})

    def test_a_record_has_no_spectrum(self):
        # a record is its cells; fig1 and fig4 draw from the table's columns
        assert not hasattr(tunneltimes.SweepRecord, "spectrum")
        fields = inspect.signature(tunneltimes.SweepRecord).parameters
        assert "spectrum" not in fields

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

    def test_a_numeric_failure_is_one_error_line(self, tmp_path):
        # the phase cross-check fails
        code, out, err = self.run(tmp_path, "times", "--E-eV", "0.02", "--V0-eV", "1",
                                  "--d-nm", "3")
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
