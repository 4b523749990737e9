"""The package and its command line as a user starts them: each check runs a
fresh process.

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
"""

import importlib
import os
import re
import subprocess
import sys
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


#: The names the package exported when its __init__ imported every submodule.
EXPORTS = (
    "BarrierProblem", "CONSTANTS", "DEFAULT_CUTOFF", "DEPTH_LEVEL", "DomainError",
    "EffectiveKinematics", "MissingGridPoint", "MomentumSpectrum", "NoConvergence",
    "ParseError", "PhysicalConstants", "SPEED_OF_LIGHT", "StationarySolution", "SweepConfig",
    "SweepRecord", "SweepTable", "ValidationError", "Wavenumbers", "bl_time",
    "continuity_residual", "dwell_time_analytic", "dwell_time_numeric", "emit_figure_data",
    "emit_table1", "energy_ev_to_si", "energy_si_to_ev", "evaluate", "incident_flux",
    "length_nm_to_si", "length_si_to_nm", "momentum_amplitude", "momentum_spectrum",
    "parse_config", "parse_records", "penetration_depth", "phase_time_analytic",
    "phase_time_numeric", "records_to_csv", "relative_density", "run_sweep",
    "shared_denominator", "stationary_solution", "wavenumbers",
)
#: The submodules that import made attributes of the package.
SUBMODULES = (
    "barrier", "constants", "depth", "errors", "momentum", "numerics", "records", "sweep",
    "times",
)


class TestPackageSurface:
    def test_every_export_imports_by_name(self):
        assert sorted(tunneltimes.__all__) == sorted(EXPORTS)
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
