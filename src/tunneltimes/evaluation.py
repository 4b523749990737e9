"""The record kernel and the one CSV writer, which the point commands and the
sweep share.

Each quantity of a record has one evaluation: the kernel _columns() builds
every numeric column from the solution's coefficients, the two window moments
and the phase stencil's time, and returns the checks on them (the moments and
the kinematics positive, v_rms subluminal, each numeric/analytic cross-check,
each column finite). Each closed form in it is a kernel that takes the
elementwise functions it calls. The point path (_evaluate()) and the sweep's
array pass (_grid_pass()) run the same kernels in the same order: the point
path with numerics.POINT (math, cmath) at one problem, the array pass with
numerics.GRID (numpy) over a grid's points, flattened thickness outer and
energy inner. At a point, _failures() turns the checks and the exceptions the
point caught into the note and error cells; the momentum, times and depth
commands print their columns of that record and raise the first failure that
concerns one.

The array pass writes every column of the usual points, those that pass
every check, and the sweep sends every other point to the point path, so each
note and error cell is written by the point code. Where a rule belongs to
another module, the pass asks that module's predicate or kernel. The moments'
series route (kappa d < 1/2 or c d <= 2) and the dwell time's edge form
(kappa d < 1/2) are array kernels too, each lane taking the route its own
point would (momentum._moments, times._stored_probability). A point is
unusual when:

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
time, so it stays in math and cmath. So the grid's phase times equal the
point path's bit for bit, its other records match to about 1e-14, and their
CSV cells match byte for byte.

A missing depth on a thin barrier is a ``no_crossing`` note, not an error.
The barrier solution and the closed forms are held in bounded form (see the
barrier module), so no thickness aborts a sweep. A value the kernel finds not
finite is an empty cell. A failed cross-check already quotes such a time in
the error column; any other non-finite value gets an error entry of its own,
and a FloatingPointError among the failures, so a point command still exits
as a numeric failure.

Every CSV, the point commands' one-row files included, is written by _csv()
from its metadata lines, header and rows. Identical inputs give identical
bytes: no timestamps are embedded, and floats are serialized at six
significant digits (_fmt). A config echo (_echo) keeps six digits only where
they read back to the same float.

A point imports no numpy here: _evaluate(), its kernels at a point and the
writer run on math and cmath alone, so a point loads numpy only where its
moments take the series route (momentum). _grid_pass() imports numpy when it
runs.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from itertools import compress

from . import __version__
from .barrier import (
    BarrierProblem,
    _check_barrier,
    _check_tunneling,
    _coefficients,
    _flux,
    _g,
    _wavenumber_pair,
)
from .constants import (
    HBAR,
    SPEED_OF_LIGHT,
    energy_ev_to_si,
    energy_si_to_ev,
    length_nm_to_si,
    length_si_to_nm,
)
from .depth import _depth
from .errors import DomainError, NoConvergence
from .momentum import _kinematics, _kinematics_error, _moments, _moments_error
from .numerics import POINT
from .records import NON_FINITE
from .times import CROSS_CHECK_TOL, _bl_time, _closed_times, _phase_stencil, _stored_probability

TYPE_CHECKING = False  # true for a type checker only
if TYPE_CHECKING:
    import numpy as np

TOOL_NAME = "tunneltimes"

FIGURE_IDS = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6a")

NOTE_NO_CROSSING = "no_crossing"
NOTE_PHASE_CLIPPED = "phase_stencil_clipped"

#: Record attributes the kinematics fill, and tau_eff and xi built on them:
#: the cells a momentum failure leaves empty.
_MOMENTUM = ("k_rms", "v_rms", "t_eff_s", "eps_eff_ev", "tau_eff_s", "xi")
#: The depth's attributes, absent where the density never reaches the level.
_DEPTH = ("s_nm", "tau_eff_s", "xi")
#: Each cross-check's name and the numeric and analytic times it compares. A
#: failed one quotes both, so neither is an error of its own when not finite;
#: a skipped one (the numeric time is empty) quotes neither.
_CROSS_CHECKS = (
    ("phase", "t_ph_numeric_s", "t_ph_analytic_s"),
    ("dwell", "t_dw_numeric_s", "t_dw_analytic_s"),
)


def _needs_crossing(attr) -> bool:
    """Whether the record attribute ``attr`` is one of the depth's, which a
    point whose density never reaches the level leaves empty."""
    return attr in _DEPTH


def _evaluate(problem: BarrierProblem):
    """The sweep's record at ``problem`` but its grid key, as values by
    attribute; the values of the curve columns (records._CURVES), the
    normalization NaN where the moments failed; and its failures, each
    exception with the attributes it concerns (see _failures).
    """
    d, c = problem.thickness, problem.cutoff
    k, kappa = _wavenumber_pair(problem.energy, problem.height)
    coefficients = t, S, A, B, R, a_d, b_d = _coefficients(k, kappa, d)
    faults: dict[str, Exception] = {}
    # the kernel takes NaN for a failed moment or stencil, as the array pass
    # holds it; NaN passes math.sqrt and division without raising
    try:
        norm, second = _moments(k, kappa, d, c, t, S, A, B, a_d, b_d)
        if exc := _moments_error(norm, second):
            raise exc
    except (DomainError, NoConvergence) as exc:
        norm, second, faults["momentum"] = math.nan, math.nan, exc
    try:
        t_ph_num = _phase_stencil(problem.energy, problem.height, (d,))[0]
    except DomainError as exc:
        t_ph_num, faults["clipped"] = math.nan, exc
    values, *checks = _columns(
        k, kappa, d, problem.height, coefficients, norm, second, t_ph_num, POINT
    )
    curves = {"kappa": kappa, "A": A, "B": B, "a_d": a_d, "b_d": b_d, "normalization": norm}
    return values, curves, _failures(values, *checks, faults)


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
        "xi": 2.0 * eps_eff * tau / HBAR,
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
    quoted = set()  # the times a failed cross-check quotes
    for name, numeric, analytic in _CROSS_CHECKS:
        if numeric not in empty and not checks[name]:
            exc = NoConvergence(
                f"{name} cross-check: numeric {values[numeric]!r} vs analytic {values[analytic]!r}"
            )
            failures.append((exc, str(exc), (numeric, analytic)))
            quoted.update((numeric, analytic))
    if not crossing:
        notes.append(NOTE_NO_CROSSING)
        empty.update(_DEPTH)
    for name, ok in zip(list(values), finite):
        if not (ok or name in empty or name in quoted):
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


def _passes(check: Callable[..., None], *args: float) -> bool:
    try:
        check(*args)
    except DomainError:
        return False
    return True


def _grid_pass(cfg, columns: dict[str, np.ndarray | list[str]]) -> np.ndarray:
    """Write every usual point of the grid of ``cfg``, a sweep.SweepConfig,
    into ``columns`` by one pass of the array kernels; return their flat
    indices. The grid key columns are filled already."""
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
    if not flat.size:
        # every point is refused; the kernels would square a height or a
        # cutoff past the largest double in Python floats, which raises
        return flat
    energy = energy_ev_to_si(columns["e_ev"][flat])
    thickness = length_nm_to_si(columns["d_nm"][flat])
    # the phase stencil is the point code, run once per accepted energy over
    # the accepted thicknesses, which fills that energy's column of lanes
    # (thickness outer); every lane of a clipped energy is NaN
    ds = list(compress(thicknesses, d_ok))
    t_ph_num = np.full((len(ds), sum(e_ok)), math.nan)
    for j, e_j in enumerate(compress(energies, e_ok)):
        try:
            t_ph_num[:, j] = _phase_stencil(e_j, height, ds)
        except DomainError:
            pass
    t_ph_num = t_ph_num.ravel()
    # Python floats overflow to inf and make NaN without a warning; so does
    # this pass, and every lane that ends non-finite or fails a check goes
    # to the point path, which evaluates the same kernels
    with np.errstate(all="ignore"):
        k, kappa = _wavenumber_pair(energy, height, GRID)
        coefficients = t, S, A, B, R, a_d, b_d = _coefficients(k, kappa, thickness, GRID)
        # a lane whose moments the array pass cannot settle holds NaN
        norm, second = _moments(k, kappa, thickness, c, t, S, A, B, a_d, b_d, GRID)
        values, checks, finite, crossing = _columns(
            k, kappa, thickness, height, coefficients, norm, second, t_ph_num, GRID
        )
    usual = np.logical_and.reduce([*checks.values(), *finite])
    values.update(kappa=kappa, A=A, B=B, a_d=a_d, b_d=b_d, normalization=norm)
    for name, lanes in values.items():
        written = usual & crossing if name in _DEPTH else usual
        columns[name][flat[written]] = lanes[written]
    for i in flat[usual & ~crossing].tolist():
        columns["note"][i] = NOTE_NO_CROSSING
    return flat[usual]


# --- the CSV writer ---------------------------------------------------------


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


def _echo(value: float | tuple[float, ...]) -> str:
    """A config value in file syntax that parses back to exactly that value."""
    if isinstance(value, tuple):
        return ",".join(_echo(v) for v in value)
    text = _fmt(value)
    return text if float(text) == value else repr(value)


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
