"""Parameter sweeps over barrier problems and deterministic CSV emission.

Each quantity of a record has one evaluation: the kernel _columns() builds
every numeric column from the solution's coefficients, the two window moments
and the phase stencil's time, and returns the checks on them (the moments and
the kinematics positive, v_rms subluminal, each numeric/analytic cross-check,
each column finite). Each closed form in it is a kernel that takes the
elementwise functions it calls: evaluate() runs it with numerics.POINT (math,
cmath) at one problem, and the sweep's array pass with numerics.GRID (numpy).
At a point, _failures() turns the checks and the exceptions the point caught
into the note and error cells; the momentum, times and depth commands print
their columns of that record and raise the first failure that concerns one.

run_sweep() evaluates a grid as arrays over (E/V0, d), flattened thickness
outer and energy inner, and returns a SweepTable (records module): a sequence
of records that keeps its columns as arrays and builds a record when one is
asked for. The exponential integral runs as one continued fraction over the
array. One pass of the kernels writes every column of the usual points, those
that pass every check, straight into the table; evaluate_point() evaluates
every other point, so each note and error cell is written by the point path,
and its record is written into the same columns by its flat index. Where a
rule belongs to another module, the grid asks that module's predicate or
kernel. The moments' series route (kappa d < 1/2 or c d <= 2) and the dwell
time's edge form (kappa d < 1/2) are array kernels too, each lane taking the
route its own point would (momentum._moments, times._stored_probability). A
point is unusual when:

  * BarrierProblem refuses it (barrier);
  * on the moments' exponential sum, e^{-z} E1(-z) lies in the exponential
    integral's series domain, or its continued fraction does not settle
    (numerics._series_domain, which scaled_e1_grid() applies), or kappa > 4 c,
    where the sum cancels enough for its digits to depend on rounding
    (momentum._moments);
  * the phase stencil clips, or any check of _columns() fails.

The phase stencil is the point code, run once per energy over all the
accepted thicknesses (times._phase_stencil): its difference of two phases a
few 1e-5 rad apart would turn a last-bit change in t into about 1e-11 of the
time, so it stays in math and cmath, and each thickness takes a point's
operations in their order. So the grid's phase times equal evaluate_point()'s
bit for bit, its other records match to about 1e-14, and their CSV cells
match byte for byte. Records are pure data; the emitters below turn them into
CSV with '#'-prefixed metadata lines (tool version, config echo, stencil
clipping notes) ahead of the header. Identical configs produce byte-identical
output: evaluation order is fixed, no timestamps are embedded, and floats are
serialized at six significant digits (the depth table uses the conventional
four decimals of nm instead). Every config echo (_echo, the point commands'
too) and the clipping note keep six digits only where they read back to the
same float.

Every CSV, the point commands' one-row files included, is written by one
writer from its metadata lines, header and rows. Every emitter converts its
input into a SweepTable once (records._as_table: a table as it is, any other
sequence of records written row by row) and reads its columns; none builds a
record, not even to name a grid point in the clipping note or a
MissingGridPoint message. The per-record CSVs (the sweep, table1 and fig2,
fig3, fig5, fig6a) format each numeric column in one pass with one finiteness
check, and a grid-key column once per distinct value; a required column is
checked for gaps first, so the first incomplete record in row order is the
one named.

The curve figures fig1 and fig4 read the table's columns too: the wave's
coefficients, the normalization, the thickness and fig1's cutoff. Each is one
array of curves, a row per record, from the kernels behind momentum_amplitude()
and psi_barrier(), so a curve has the point path's bits. Each distinct K or x
grid (of the cutoff or the thickness) is built and formatted once, and a
record's rows are one %-format of its curve. A record without a spectrum
(its solve or spectrum failed, or it was re-read from CSV) cannot be drawn.

Per-point failures land in the record's ``error`` column; a missing depth on a
thin barrier is a ``no_crossing`` note, not an error. The barrier solution and
the closed forms are held in bounded form (see the barrier module), so no
thickness aborts the sweep. NaN is never serialized: absent values are empty
cells, and so is a value that evaluate() finds not finite. A failed
cross-check already quotes such a time in the error column; any other
non-finite value gets an error entry of its own, and a FloatingPointError
among the caught exceptions, so a point command still exits as a numeric
failure. An emitter refuses with FloatingPointError a non-finite value that
still reaches it: in any numeric value of a record it writes into a table,
where NaN can only mean an empty cell, and in any cell it prints.

The point path imports no numpy of its own: SweepConfig, parse_config(),
evaluate() and evaluate_point(), _evaluate(), _columns() and _failures() at a
point, and the writer the point commands share (_csv, _fmt, _echo) run on
math and cmath alone, so a point loads numpy only where its moments take the
series route (momentum). The functions that work on arrays import numpy when
they run: run_sweep() and its array pass, and the emitters.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Collection, Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import compress
from typing import TYPE_CHECKING

from . import __version__
from .barrier import (
    DEFAULT_CUTOFF,
    BarrierProblem,
    _check_barrier,
    _check_tunneling,
    _coefficients,
    _flux,
    _wave,
    _wavenumber_pair,
    stationary_solution,
)
from .constants import (
    CONSTANTS,
    SPEED_OF_LIGHT,
    energy_ev_to_si,
    energy_si_to_ev,
    length_nm_to_si,
    length_si_to_nm,
)
from .depth import _depth, _relative_density
from .errors import (
    DomainError,
    MissingGridPoint,
    NoConvergence,
    ParseError,
    ValidationError,
)
from .momentum import _amplitude, _kinematics, _kinematics_error, _moments, momentum_spectrum
from .numerics import POINT
from .records import (
    NON_FINITE,
    RECORD_COLUMNS,
    TEXT_FIELDS,
    SweepRecord,
    SweepTable,
    _as_table,
    _blank_columns,
    _write_record,
)
from .times import (
    CROSS_CHECK_TOL,
    DEFAULT_PHASE_STEP_EV,
    _bl_time,
    _closed_times,
    _g,
    _phase_stencil,
    _stored_probability,
    phase_time_numeric,
)

if TYPE_CHECKING:
    import numpy as np

    _Source = str | Callable[[Callable[[str], np.ndarray]], np.ndarray]

TOOL_NAME = "tunneltimes"

FIGURE_IDS = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6a")

#: The depth-table grid: five energy ratios by nine thicknesses (nm).
TABLE1_E_RATIOS = (0.01, 0.1, 0.5, 0.9, 0.99)
TABLE1_D_NM = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

DEFAULT_E_RATIOS = TABLE1_E_RATIOS
DEFAULT_D_NM = (0.1,) + TABLE1_D_NM

#: K-grid resolution for the momentum-density curves (fig1).
FIG1_K_POINTS = 201
#: x-grid resolution for the relative-density curves (fig4).
FIG4_X_POINTS = 128


@dataclass(frozen=True)
class SweepConfig:
    """Validated sweep parameters; every field has a documented default."""

    v0_ev: float = 10.0
    e_over_v0_grid: tuple[float, ...] = DEFAULT_E_RATIOS
    d_nm_grid: tuple[float, ...] = DEFAULT_D_NM
    cutoff: float = DEFAULT_CUTOFF

    def __post_init__(self):
        # held as Python floats: a numpy scalar would echo as np.float64(...),
        # which parse_config() refuses, and be quoted so in error cells; the
        # grids are converted first, so an array is checked as its values
        for name in ("e_over_v0_grid", "d_nm_grid"):
            object.__setattr__(self, name, tuple(map(float, getattr(self, name))))
        if not self.v0_ev > 0:
            raise ValidationError("V0_eV must be positive")
        _check_grid("E_over_V0_grid", self.e_over_v0_grid)
        _check_grid("d_nm_grid", self.d_nm_grid)
        if any(not 0.0 < r < 1.0 for r in self.e_over_v0_grid):
            raise ValidationError(
                "E_over_V0_grid must stay inside the tunneling regime (0, 1)"
            )
        if not self.cutoff > 0:
            raise ValidationError("Kprime must be positive")
        for key, name in (("V0_eV", "v0_ev"), ("Kprime", "cutoff")):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValidationError(f"{key} must be finite")
            object.__setattr__(self, name, value)


def _check_grid(name: str, grid: tuple[float, ...]) -> None:
    if not grid:
        raise ValidationError(f"{name} must not be empty")
    if any(v <= 0 for v in grid):
        raise ValidationError(f"{name} values must be positive")
    if not all(math.isfinite(v) for v in grid):
        raise ValidationError(f"{name} values must be finite")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValidationError(f"{name} must be strictly increasing")


NOTE_NO_CROSSING = "no_crossing"
NOTE_PHASE_CLIPPED = "phase_stencil_clipped"

#: Record attributes the kinematics fill, and tau_eff and xi built on them:
#: the cells a momentum failure leaves empty.
_MOMENTUM = ("k_rms", "v_rms", "t_eff_s", "eps_eff_ev", "tau_eff_s", "xi")
#: The depth's attributes, absent where the density never reaches the level.
_DEPTH = ("s_nm", "tau_eff_s", "xi")
#: Each cross-check's name and the numeric and analytic times it compares. A
#: failed one quotes both, so neither is an error of its own when not finite.
_CROSS_CHECKS = (
    ("phase", "t_ph_numeric_s", "t_ph_analytic_s"),
    ("dwell", "t_dw_numeric_s", "t_dw_analytic_s"),
)


def evaluate(
    problem: BarrierProblem,
    cfg: SweepConfig,
    grid_point: tuple[float, float] | None = None,
) -> tuple[SweepRecord, list[Exception]]:
    """The sweep's record at one problem, and the exceptions behind its
    failures.

    Every column comes from the kernel _columns(), as on the sweep's array
    pass. Failures become note or error cells, and the exceptions behind them
    (a cross-check failure is a NoConvergence quoting both routes) are
    returned in the order of the cells. The sweep keeps only the cells; a
    point command raises the first exception that concerns a column it
    prints.

    ``grid_point`` is the (E/V0, d in nm) the record is filed under; the sweep
    passes its grid values so that records key exactly. It defaults to the
    problem's own. cfg supplies V0 and the cutoff, and the record files its
    values under them: a problem whose height is not energy_ev_to_si(cfg.v0_ev)
    or whose cutoff is not cfg.cutoff, as BarrierProblem.from_ev_nm builds
    them, raises ValidationError. The phase stencil takes
    DEFAULT_PHASE_STEP_EV, at a point as on the sweep's array pass.
    """
    if energy_ev_to_si(cfg.v0_ev) != problem.height or cfg.cutoff != problem.cutoff:
        raise ValidationError("the problem's height and cutoff must be cfg's V0_eV and Kprime")
    grid_point = grid_point or (problem.e_over_v0, length_si_to_nm(problem.thickness))
    values, spectrum, failures = _evaluate(problem)
    return _record(cfg, *grid_point, values, spectrum), [exc for exc, _ in failures]


def _evaluate(problem: BarrierProblem):
    """evaluate()'s record at ``problem`` but its grid key, as values by
    attribute; the spectrum it carries; and its failures, each exception
    with the attributes it concerns (see _failures)."""
    sol = stationary_solution(problem)
    faults: dict[str, Exception] = {}
    # the kernel takes NaN for a failed moment or stencil, as the array pass
    # holds it; NaN passes math.sqrt and division without raising
    try:
        spectrum = momentum_spectrum(problem, solution=sol)
        moments = spectrum.normalization, spectrum.second_moment
    except (DomainError, NoConvergence) as exc:
        spectrum, moments, faults["momentum"] = None, (math.nan, math.nan), exc
    try:
        t_ph_num = phase_time_numeric(problem)
    except DomainError as exc:
        t_ph_num, faults["clipped"] = math.nan, exc
    wn, coefficients = sol.wavenumbers, (sol.t, sol.S, sol.A, sol.B, sol.R, *sol.edge_modes)
    values, *checks = _columns(
        wn.k, wn.kappa, problem.thickness, problem.height, coefficients, *moments, t_ph_num, POINT
    )
    return values, spectrum, _failures(values, *checks, faults)


def _columns(k, kappa, d, height, coefficients, norm, second, t_ph_num, f):
    """Every numeric record column but the grid key, and the checks on them:
    the one evaluation of a record, at a point (``f`` is numerics.POINT) or
    over 1-D arrays of lanes (numerics.GRID).

    Takes the wavenumbers, the thickness, the barrier height, the solution's
    (t, S, A, B, R, A e^{kappa d}, B e^{-kappa d}), the two window moments
    and the phase stencil's time, each NaN where it failed. Returns the
    columns by attribute in record order; the checks by name, each True where
    it holds (the moments and the kinematics positive, v_rms subluminal, each
    cross-check); the finiteness of each column, in that order; and where the
    depth is a crossing, without which s_nm, tau_eff and xi are absent.
    """
    t, S, A, B, R, a_d, b_d = coefficients
    lam, g = kappa * d, _g(height)
    k_rms, v_rms, t_eff, eps_eff = _kinematics(norm, second, d, f)
    depth, crossing = _depth(k, kappa, d, f)
    tau = depth / v_rms
    t_ph_ana, t_dw_ana, _ = _closed_times(k, kappa, lam, g, f)
    values = {
        "s_abs2": abs(S) ** 2, "r_abs2": abs(R) ** 2, "k_rms": k_rms, "v_rms": v_rms,
        "t_eff_s": t_eff, "eps_eff_ev": energy_si_to_ev(eps_eff), "t_ph_numeric_s": t_ph_num,
        "t_ph_analytic_s": t_ph_ana,
        "t_dw_numeric_s": _stored_probability(k, kappa, d, A, B, a_d, S, f) / _flux(k),
        "t_dw_analytic_s": t_dw_ana, "t_bl_s": _bl_time(kappa, d),
        "s_nm": length_si_to_nm(depth), "tau_eff_s": tau,
        "xi": 2.0 * eps_eff * tau / CONSTANTS.hbar,
    }
    checks = {
        "moments": (norm > 0.0) & (second > 0.0),
        "positive": (k_rms > 0.0) & (v_rms > 0.0) & (t_eff > 0.0) & (eps_eff > 0.0),
        "subluminal": v_rms < SPEED_OF_LIGHT,
        **{name: _agrees(values[num], values[ana]) for name, num, ana in _CROSS_CHECKS},
    }
    return values, checks, f.finite(list(values.values())), crossing


def _failures(values, checks, finite, crossing, faults):
    """Turn a point's _columns() checks into its cells, in ``values``: empty
    each value a failure leaves out, add the note and error cells, and return
    the failures as (exception, the attributes it concerns).

    ``faults`` holds what the point caught: the moments' exception
    ("momentum") and the clipped phase stencil's ("clipped"). The failures
    run in evaluation order: the moments' or the kinematics', the clipped
    stencil (a note, not an error), the cross-checks, then each other value
    that is not finite. A non-finite |S|^2 or |R|^2 concerns every attribute.
    """
    if crossing and not faults and all(checks.values()) and all(finite):
        values.update(note="", error="")
        return []
    failures = []  # (exception, error cell or None, the attributes it concerns)
    notes = []
    if "momentum" in faults or not (checks["positive"] and checks["subluminal"]):
        exc = faults.get("momentum") or _kinematics_error(checks["positive"], values["v_rms"])
        failures.append((exc, f"momentum: {exc}", _MOMENTUM))
    if "clipped" in faults:
        failures.append((faults["clipped"], None, ("t_ph_numeric_s",)))
        notes.append(NOTE_PHASE_CLIPPED)
    empty = {name for *_, concerns in failures for name in concerns}
    for name, numeric, analytic in _CROSS_CHECKS:
        if numeric not in empty and not checks[name]:
            exc = NoConvergence(
                f"{name} cross-check: numeric {values[numeric]!r} vs analytic {values[analytic]!r}"
            )
            failures.append((exc, str(exc), (numeric, analytic)))
    if not crossing:
        notes.append(NOTE_NO_CROSSING)
        empty.update(_DEPTH)
    for name, ok in zip(list(values), finite):
        if not (ok or name in empty or any(name in check[1:] for check in _CROSS_CHECKS)):
            every = name in ("s_abs2", "r_abs2")
            failures.append((FloatingPointError(NON_FINITE), f"{name}: {NON_FINITE}",
                             tuple(values) if every else (name,)))
        if not ok or name in empty:
            values[name] = None
    errors = [cell for _, cell, _ in failures if cell is not None]
    values.update(note=";".join(notes), error="; ".join(errors))
    return [(exc, concerns) for exc, _, concerns in failures]


def _agrees(numeric, analytic):
    """The cross-check of a numeric and an analytic time, at a point or
    elementwise: within CROSS_CHECK_TOL of a finite analytic value, written
    so that a NaN or an infinite value fails it."""
    close = abs(numeric - analytic) <= CROSS_CHECK_TOL * abs(analytic)
    return close & (abs(analytic) < math.inf)


def _record(cfg, e_ratio, d_nm, values, spectrum=None):
    """The SweepRecord filed under the grid point (``e_ratio``, ``d_nm``)
    of ``cfg``, with ``values`` by attribute."""
    e_ev, v0_ev = e_ratio * cfg.v0_ev, cfg.v0_ev
    return SweepRecord(e_over_v0=e_ratio, d_nm=d_nm, e_ev=e_ev, v0_ev=v0_ev,
                       cutoff=cfg.cutoff, **values, spectrum=spectrum)


def evaluate_point(cfg: SweepConfig, e_ratio: float, d_nm: float) -> SweepRecord:
    """The sweep's record at one grid point, failures in its cells."""
    try:
        problem = BarrierProblem.from_ev_nm(e_ratio * cfg.v0_ev, cfg.v0_ev, d_nm, cfg.cutoff)
    except DomainError as exc:
        return _record(cfg, e_ratio, d_nm, {"error": f"problem: {exc}"})
    return evaluate(problem, cfg, grid_point=(e_ratio, d_nm))[0]


def run_sweep(cfg: SweepConfig) -> SweepTable:
    """Evaluate the full grid, thickness outer, energy inner (ascending).

    One pass of array kernels writes the usual points into the table's
    columns (see the module docstring); evaluate_point() evaluates every
    other point, and its record is written into the same columns.
    """
    import numpy as np

    e_grid, d_grid = cfg.e_over_v0_grid, cfg.d_nm_grid
    n_e = len(e_grid)
    size = n_e * len(d_grid)
    columns = _blank_columns(size)
    e_ratio = np.tile(e_grid, len(d_grid))
    columns.update(
        e_over_v0=e_ratio,
        d_nm=np.repeat(d_grid, n_e),
        e_ev=e_ratio * cfg.v0_ev,
        v0_ev=np.full(size, cfg.v0_ev),
        cutoff=np.full(size, cfg.cutoff),
    )
    todo = np.ones(size, dtype=bool)
    todo[_grid_pass(cfg, columns)] = False
    for i in np.flatnonzero(todo).tolist():
        _write_record(columns, i, evaluate_point(cfg, e_grid[i % n_e], d_grid[i // n_e]))
    return SweepTable(columns)


def _passes(check: Callable[..., None], *args: float) -> bool:
    try:
        check(*args)
    except DomainError:
        return False
    return True


def _grid_pass(cfg: SweepConfig, columns: dict[str, np.ndarray | list[str]]) -> np.ndarray:
    """Write every usual grid point (see the module docstring) into
    ``columns`` by one pass of the array kernels; return their flat indices."""
    import numpy as np

    from .numerics import GRID

    e_grid, d_grid, c = cfg.e_over_v0_grid, cfg.d_nm_grid, cfg.cutoff
    height = energy_ev_to_si(cfg.v0_ev)
    # BarrierProblem's checks split into one on the energy and one on the
    # barrier, so they run once per grid value
    energies = [energy_ev_to_si(r * cfg.v0_ev) for r in e_grid]
    thicknesses = [length_nm_to_si(d) for d in d_grid]
    e_ok = [_passes(_check_tunneling, e, height) for e in energies]
    d_ok = [_passes(_check_barrier, height, d, c) for d in thicknesses]
    flat = np.flatnonzero(np.outer(d_ok, e_ok))
    energy = energy_ev_to_si(columns["e_ev"][flat])
    thickness = length_nm_to_si(columns["d_nm"][flat])
    # the phase stencil is the point code, run once per accepted energy over
    # the accepted thicknesses, which fills that energy's column of lanes
    # (thickness outer); every lane of a clipped energy is NaN
    h = energy_ev_to_si(DEFAULT_PHASE_STEP_EV)
    ds = list(compress(thicknesses, d_ok))
    t_ph_num = np.full((len(ds), sum(e_ok)), math.nan)
    for j, e_j in enumerate(compress(energies, e_ok)):
        try:
            t_ph_num[:, j] = _phase_stencil(e_j, height, ds, h)
        except DomainError:
            pass
    t_ph_num = t_ph_num.ravel()
    # Python floats overflow to inf and make NaN without a warning; so does
    # this pass, and every lane that ends non-finite or fails a check goes
    # to evaluate_point(), which evaluates the same kernels
    with np.errstate(all="ignore"):
        k, kappa = _wavenumber_pair(energy, height, GRID)
        coefficients = t, S, A, B, R, a_d, b_d = _coefficients(k, kappa, thickness, GRID)
        # a lane whose moments the array pass cannot settle holds NaN
        norm, second = _moments(k, kappa, thickness, c, t, S, A, B, a_d, b_d, GRID)
        values, checks, finite, crossing = _columns(
            k, kappa, thickness, height, coefficients, norm, second, t_ph_num, GRID
        )
    usual = np.logical_and.reduce([*checks.values(), *finite])
    values.update(k=k, kappa=kappa, t=t, S=S, A=A, B=B, R=R, a_d=a_d, b_d=b_d,
                  normalization=norm, second_moment=second)
    for name, lanes in values.items():
        written = usual & crossing if name in _DEPTH else usual
        columns[name][flat[written]] = lanes[written]
    for i in flat[usual & ~crossing].tolist():
        columns["note"][i] = NOTE_NO_CROSSING
    return flat[usual]


# --- config files -----------------------------------------------------------


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not finite")
    return value


def _parse_float_list(text: str) -> tuple[float, ...]:
    items = [piece.strip() for piece in text.split(",")]
    if any(not piece for piece in items):
        raise ValueError("empty list entry")
    return tuple(_parse_float(piece) for piece in items)


#: Config keys in echo order: key -> (value parser, the SweepConfig field it
#: sets).
_CONFIG_KEYS = {
    "V0_eV": (_parse_float, "v0_ev"),
    "E_over_V0_grid": (_parse_float_list, "e_over_v0_grid"),
    "d_nm_grid": (_parse_float_list, "d_nm_grid"),
    "Kprime": (_parse_float, "cutoff"),
}


def parse_config(text: str) -> SweepConfig:
    """Parse line-oriented ``key=value`` config text ('#' starts a comment).

    Malformed lines raise ParseError carrying the line number; structurally
    fine but invalid values raise ValidationError naming the broken invariant.
    Omitted keys fall back to the SweepConfig defaults.
    """
    kwargs: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError("expected key=value", line=lineno)
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _CONFIG_KEYS:
            raise ParseError(f"unknown key {key!r}", line=lineno)
        parser, name = _CONFIG_KEYS[key]
        if name in kwargs:
            raise ParseError(f"duplicate key {key!r}", line=lineno)
        try:
            kwargs[name] = parser(val)
        except ValueError as exc:
            raise ParseError(f"bad value for {key!r}: {val!r} ({exc})", line=lineno)
    return SweepConfig(**kwargs)


def _echo(value: float | tuple[float, ...]) -> str:
    """A config value in file syntax that parses back to exactly that value."""
    if isinstance(value, tuple):
        return ",".join(_echo(v) for v in value)
    text = _fmt(value)
    return text if float(text) == value else repr(value)


def config_lines(cfg: SweepConfig) -> list[str]:
    """The config echoed back in its own file syntax (used in CSV metadata).

    Floats keep the six significant digits of the CSV cells where those read
    back to the same float and are written in full otherwise, so
    parse_config() of these lines rebuilds ``cfg``.
    """
    return [
        f"{key}={_echo(getattr(cfg, name))}" for key, (_, name) in _CONFIG_KEYS.items()
    ]


# --- CSV emission -----------------------------------------------------------


def _fmt(value: float | None) -> str:
    """Six significant digits, empty cell for absent values, never NaN.

    Adding 0.0 turns -0.0 into 0.0 and leaves every other float as it is, so
    zero of either sign prints as "0".
    """
    if value is None:
        return ""
    if not math.isfinite(value):
        raise FloatingPointError(NON_FINITE)
    return f"{value + 0.0:.6g}"


def _cells(values: np.ndarray, empty: bool = False) -> list[str]:
    """_fmt of each element of a float array, checked for finiteness at once
    and formatted by one %-format of the whole array (%.6g is _fmt's .6g).

    Where ``empty``, NaN is an empty cell, as None is for _fmt; no finite
    value prints a "nan".
    """
    import numpy as np

    if (np.isinf(values) if empty else ~np.isfinite(values)).any():
        raise FloatingPointError(NON_FINITE)
    text = "%.6g\n" * len(values) % tuple((values + 0.0).tolist())
    return (text.replace("nan", "") if empty else text).split("\n")[:-1]


def _csv(meta: list[str], header: Iterable[str], rows: Iterable[str]) -> str:
    """The one CSV writer: the tool line, ``meta``, the header and the rows.

    The rows go into the one list that is joined, and the empty last entry
    gives the final newline, so neither the rows nor the text are copied
    again; the curve figures pass their rows as a generator for that reason.
    """
    lines = [f"# tool: {TOOL_NAME} {__version__}", *meta, ",".join(header)]
    lines += rows
    lines.append("")
    return "\n".join(lines)


def _key_cells(values: np.ndarray) -> list[str]:
    """_cells of a grid-key column, NaN empty: it repeats a few values, so
    each distinct value is formatted once."""
    import numpy as np

    values = values.tolist()
    distinct = list(dict.fromkeys(values))
    texts = dict(zip(distinct, _cells(np.array(distinct), empty=True)))
    return [texts[v] for v in values]


def _metadata(cfg: SweepConfig | None, table: SweepTable) -> list[str]:
    """The config echo and the stencil clipping note of a grid CSV; clipped
    points are named by their exact grid values, as in the config echo."""
    lines = [] if cfg is None else [f"# config: {entry}" for entry in config_lines(cfg)]
    rows = [i for i, note in enumerate(table.column("note")) if NOTE_PHASE_CLIPPED in note]
    if rows:
        e_ratio, d_nm = (table.column(attr)[rows].tolist() for attr in ("e_over_v0", "d_nm"))
        lines.append("# clipping: phase-time stencil left the energy domain at " + ", ".join(
            f"(E/V0={_echo(e)}, d={_echo(d)} nm)" for e, d in zip(e_ratio, d_nm)
        ))
    return lines


def _missing(
    table: SweepTable, row: int, what: str, quoted: Iterable[str] = TEXT_FIELDS,
    key: Callable[[float], str] = _echo,
) -> MissingGridPoint:
    """MissingGridPoint for row ``row`` of ``table``, which cannot be emitted
    because it ``what``: names its grid point by ``key`` of each value and
    quotes its ``quoted`` text cells."""
    e_ratio, d_nm = (key(table.column(attr).item(row)) for attr in ("e_over_v0", "d_nm"))
    cells = ", ".join(f"{attr}={table.column(attr)[row]!r}" for attr in quoted)
    return MissingGridPoint(f"record E/V0={e_ratio}, d={d_nm} nm {what} ({cells})")


#: Record attributes whose columns repeat the grid's values.
_KEYS = ("e_over_v0", "d_nm", "e_ev", "v0_ev", "cutoff")


def _emit_rows(
    table: SweepTable,
    cfg: SweepConfig | None,
    columns: dict[str, _Source],
    required: Collection[str] = (),
) -> str:
    """CSV with one row per record of ``table``, in row order.

    ``columns`` maps each CSV column to a record attribute, or to a function
    that derives the column from the columns it reads. Each column is read
    and formatted whole. An empty cell is allowed, except in a ``required``
    column: the first record in row order with a gap there raises
    MissingGridPoint.
    """
    import numpy as np

    values = [
        source(table.column) if callable(source) else table.column(source)
        for source in columns.values()
    ]
    gaps = [
        (int(np.argmax(empty)), i, name)
        for i, (name, column) in enumerate(zip(columns, values))
        if name in required and (empty := np.isnan(column)).any()
    ]
    if gaps:
        row, _, name = min(gaps)
        raise _missing(table, row, f"is missing {name}")
    cells = [
        column if source in TEXT_FIELDS
        else _key_cells(column) if source in _KEYS
        else _cells(column, empty=True)
        for source, column in zip(columns.values(), values)
    ]
    return _csv(_metadata(cfg, table), columns, map(",".join, zip(*cells)))


def records_to_csv(records: Sequence[SweepRecord], cfg: SweepConfig | None = None) -> str:
    """The full sweep as CSV, one row per grid point in evaluation order."""
    return _emit_rows(_as_table(records), cfg, RECORD_COLUMNS)


def parse_records(text: str) -> list[SweepRecord]:
    """Re-parse a sweep CSV (as emitted by records_to_csv) into records.

    A row with the wrong number of cells, or a numeric cell that is not a
    finite number, raises ParseError with the row's line number.
    """
    rows = [
        (lineno, line)
        for lineno, line in enumerate(text.splitlines(), start=1)
        if line and not line.startswith("#")
    ]
    if not rows:
        raise ParseError("no header row found")
    header = rows[0][1].split(",")
    if header != list(RECORD_COLUMNS):
        raise ParseError("unexpected sweep CSV header", line=rows[0][0])
    records = []
    for lineno, line in rows[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ParseError(
                f"row has {len(cells)} cells, expected {len(header)}", line=lineno
            )
        kwargs: dict[str, object] = {}
        for column, cell in zip(header, cells):
            attr = RECORD_COLUMNS[column]
            if attr in TEXT_FIELDS or not cell:
                kwargs[attr] = cell if attr in TEXT_FIELDS else None
                continue
            try:
                kwargs[attr] = _parse_float(cell)
            except ValueError as exc:
                raise ParseError(
                    f"bad value for {column!r}: {cell!r} ({exc})", line=lineno
                ) from None
        records.append(SweepRecord(**kwargs))
    return records


def emit_table1(records: Sequence[SweepRecord], cfg: SweepConfig | None = None) -> str:
    """Penetration depths on the canonical 5x9 grid, nm, four decimals.

    Rows run energy-ratio outer / thickness inner, both ascending. Every cell
    must be present and have a depth; anything else raises MissingGridPoint.
    """
    table = _as_table(records)
    # a sweep files each row under its exact grid values; the table's grid
    # values read back exactly from six-digit CSV cells too
    keys = zip(table.column("e_over_v0").tolist(), table.column("d_nm").tolist())
    index = {key: row for row, key in enumerate(keys)}
    depths = table.column("s_nm").tolist()
    rows = []
    for e_ratio in TABLE1_E_RATIOS:
        for d_nm in TABLE1_D_NM:
            row = index.get((e_ratio, d_nm))
            if row is None:
                raise MissingGridPoint(f"no sweep record for E/V0={e_ratio}, d={d_nm} nm")
            if math.isnan(depths[row]):
                raise _missing(table, row, "has no depth", key=str)
            rows.append(f"{_fmt(e_ratio)},{_fmt(d_nm)},{depths[row]:.4f}")
    return _csv(_metadata(cfg, table), ("E_over_V0", "d_nm", "s_nm"), rows)


#: Where a curve row's template takes the record's E_over_V0,d_nm cells; no
#: formatted number contains it.
_PREFIX = "@"


def _curve_rows(table: SweepTable, fig1: bool) -> Iterator[str]:
    """The rows of fig1 (``fig1``) or else fig4: one array of curves, drawn
    from the table's columns, one row of the array per record."""
    import numpy as np

    gaps = np.isnan(table.column("normalization"))
    if gaps.any():
        raise _missing(
            table, int(np.argmax(gaps)), "has no momentum spectrum to draw curves from",
            quoted=("error",),
        )
    d_nm = table.column("d_nm")
    d = length_nm_to_si(d_nm)
    keys = (table.column("cutoff") if fig1 else d).tolist()
    start, points = (-1.0, FIG1_K_POINTS) if fig1 else (0.0, FIG4_X_POINTS)
    grids: dict[float, tuple[np.ndarray, str]] = {}
    for key in dict.fromkeys(keys):
        grid = np.linspace(start * key, key, points)
        cells = _cells(grid if fig1 else length_si_to_nm(grid))
        # a record's lines: each starts with _PREFIX, which one replace()
        # turns into the record's key cells, and ends in its value's format
        grids[key] = grid, "\n".join(f"{_PREFIX},{cell},%.6g" for cell in cells)
    x = np.array([grids[key][0] for key in keys])
    d, norm, kappa, A, B, a_d, b_d = (
        column[:, None]
        for column in (d, *map(table.column, ("normalization", "kappa", "A", "B", "a_d", "b_d")))
    )
    if fig1:
        curves = np.abs(_amplitude(x, d, kappa, A, B, a_d, b_d)) ** 2 / norm
    else:
        curves = _relative_density(_wave(x, d, kappa, B, a_d), _wave(0.0, d, kappa, B, a_d))
    if not np.isfinite(curves).all():
        raise FloatingPointError(NON_FINITE)
    rows = zip(table.column("e_over_v0").tolist(), d_nm.tolist(), keys, curves + 0.0)
    for e_ratio, d_cell, key, curve in rows:
        prefix = f"{_fmt(e_ratio)},{_fmt(d_cell)}"
        yield grids[key][1].replace(_PREFIX, prefix) % tuple(curve.tolist())


#: The per-point figures, after the E_over_V0 and d_nm key columns: CSV
#: column -> record attribute, or a function of the column reader for a
#: derived column.
_SCALAR_FIGURES = {
    "fig2": {"v_rms_m_per_s": "v_rms", "eps_eff_eV": "eps_eff_ev", "t_eff_s": "t_eff_s"},
    "fig3": {
        "E_eV": "e_ev",
        "t_ph_s": "t_ph_numeric_s",
        "t_dw_s": "t_dw_numeric_s",
        "t_bl_s": "t_bl_s",
    },
    "fig5": {"s_nm": "s_nm", "tau_eff_s": "tau_eff_s", "xi": "xi"},
    "fig6a": {"eps_eff_plus_V0_eV": lambda read: read("eps_eff_ev") + read("v0_ev")},
}


def emit_figure_data(
    records: Sequence[SweepRecord], which: str, cfg: SweepConfig | None = None
) -> str:
    """One figure's data as CSV; ``cfg`` only feeds the metadata lines.

    fig1: momentum-density curves over the K window per grid point.
    fig2: v_rms, eps_eff, t_eff per grid point.
    fig3: the three literature times side by side per grid point.
    fig4: relative-density curves on 128 uniform x points per grid point.
    fig5: depth, tau_eff, xi per grid point (empty cells where no crossing).
    fig6a: eps_eff + V0 per grid point.

    fig1 and fig4 are drawn from the records' columns and raise
    MissingGridPoint for the first record without a momentum spectrum, as
    records re-read by parse_records() are. fig6a adds V0 to eps_eff; from
    re-read records that is the six-digit eps_eff cell, so its last digit can
    differ from the sweep's own (within 1e-5 relative, at 4 of the 990 dense
    rows and 1 of the 50 default ones).
    """
    if which not in FIGURE_IDS:
        raise ValidationError(f"unknown figure id {which!r}; valid: {', '.join(FIGURE_IDS)}")
    table = _as_table(records)
    if which in ("fig1", "fig4"):
        fig1 = which == "fig1"
        header = ("K_per_m", "pdf_m") if fig1 else ("x_nm", "relative_density")
        header = ("E_over_V0", "d_nm", *header)
        return _csv(_metadata(cfg, table), header, _curve_rows(table, fig1))
    columns = {"E_over_V0": "e_over_v0", "d_nm": "d_nm", **_SCALAR_FIGURES[which]}
    required = [c for c, source in columns.items() if source not in _DEPTH]
    return _emit_rows(table, cfg, columns, required)
