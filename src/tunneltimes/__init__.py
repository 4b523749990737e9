"""Rectangular-barrier tunneling numerics.

Closed-form stationary scattering, in-barrier momentum spectra and the
effective tunneling time they define, the classic phase/dwell/traversal
times with analytic cross-checks, penetration depths with the energy-time
uncertainty coefficient, and a deterministic CSV sweep engine plus CLI.
Every per-point quantity is a column of the sweep's record, built by one
kernel (the evaluation module): evaluate() gives the record at one problem,
run_sweep() over a grid.

The package exports lazily (PEP 562): ``import tunneltimes`` loads no
submodule, and each name below imports its module on first access. No
submodule imports numpy at load either: the code that computes on arrays (the
sweep's array pass and emitters, the momentum spectrum's series route) imports
it when it first runs, so a point command never loads it outside the series
route.
"""

__version__ = "0.1.0"

#: Each submodule -> the names the package exports from it.
_MODULE_EXPORTS = {
    "barrier": (
        "DEFAULT_CUTOFF",
        "BarrierProblem",
        "StationarySolution",
        "stationary_solution",
    ),
    "constants": (
        "ELECTRON_MASS",
        "EV_TO_JOULE",
        "HBAR",
        "SPEED_OF_LIGHT",
        "energy_ev_to_si",
        "energy_si_to_ev",
        "length_nm_to_si",
        "length_si_to_nm",
    ),
    "depth": ("DEPTH_LEVEL", "penetration_depth"),
    "errors": (
        "DomainError",
        "MissingGridPoint",
        "NoConvergence",
        "ParseError",
        "ValidationError",
    ),
    "momentum": (
        "EffectiveKinematics",
        "MomentumSpectrum",
        "momentum_spectrum",
    ),
    "records": ("SweepRecord", "SweepTable"),
    "sweep": (
        "SweepConfig",
        "emit_figure_data",
        "emit_table1",
        "evaluate",
        "parse_config",
        "parse_records",
        "records_to_csv",
        "run_sweep",
    ),
    "times": ("dwell_time_numeric", "phase_time_numeric"),
}
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}

#: The submodules an attribute access imports: those that export, and numerics.
_SUBMODULES = frozenset((*_MODULE_EXPORTS, "numerics"))

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Import the submodule that defines ``name``, or is ``name``, on first
    access; an export is then kept as a package global."""
    import importlib

    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
