"""Parameter sweeps over barrier problems and deterministic CSV emission.

evaluate() computes one barrier problem's flat record block by block: the
momentum kinematics, the four clocks with their numeric/analytic
cross-checks, and the penetration depth with tau_eff and xi. The momentum,
times and depth commands evaluate only the blocks behind the columns they
print and project the record onto those columns; they stay per point.

run_sweep() evaluates a grid as arrays over (E/V0, d), flattened thickness
outer and energy inner. Each closed form is one kernel that takes the
elementwise functions it calls, numerics.POINT (math, cmath) in evaluate()
and numerics.GRID (numpy) here, and the exponential integral runs as one
continued fraction over the array. One pass of the kernels gives every
column of the usual points; evaluate_point() evaluates every other point, so
each note and error cell is written by the point path. Where a rule belongs
to another module, the grid asks that module's predicate or kernel. A point
is unusual when:

  * BarrierProblem refuses it (barrier);
  * the moments take their series route, kappa d < 1/2 or c d <= 2, which
    covers the dwell time's edge form (momentum._series_route);
  * e^{-z} E1(-z) lies in the exponential integral's series domain, or its
    continued fraction does not settle (numerics._series_domain, which
    scaled_e1_grid() applies);
  * kappa > 4 c, where the exponential sum cancels enough for its digits to
    depend on rounding (here);
  * the phase stencil clips, the kinematics are not positive or are
    superluminal, a cross-check fails, or any value is not finite.

The phase stencil is the point code at every point: its difference of two
phases a few 1e-5 rad apart would turn a last-bit change in t into about
1e-11 of the time. So the grid's records match evaluate_point()'s to about
1e-14 and their CSV cells byte for byte. Each record still carries its
spectrum and solution, built from the array slices. Records are pure data;
the emitters below turn them into CSV with '#'-prefixed metadata lines (tool
version, config echo, stencil clipping notes) ahead of the header. Identical
configs produce byte-identical output: evaluation order is fixed, no
timestamps are embedded, and floats are serialized at six significant digits
(the depth table uses the conventional four decimals of nm instead). The
config echo keeps six digits only where they read back to the same float.

Every CSV, the point commands' one-row files included, is written by one
writer from its metadata lines, header and rows. The per-record CSVs (the
sweep and fig2, fig3, fig5, fig6a) read each column from all records at once,
by attribute or by a derived function, and format it in one pass; a required
column is checked for gaps first, so the first incomplete record in row order
is the one named. The curve figures fig1 and fig4 share one loop: each
record's curve passes one finiteness check and is formatted in one pass, and
the K grid (a function of the cutoff) or x grid (of the thickness) that
records share is built and formatted once per emitter call.

Besides its columns, a record carries the momentum spectrum its momentum
block built, which holds the point's stationary solution. The curve figures
(fig1, fig4) draw from it, so emitting them solves nothing again; a record
without one (a failed solve or spectrum, or a record re-read from CSV)
cannot be drawn.

Per-point failures land in the record's ``error`` column; a missing depth on a
thin barrier is a ``no_crossing`` note, not an error. The barrier solution and
the closed forms are held in bounded form (see the barrier module), so no
thickness aborts the sweep. NaN is never serialized: absent values are empty
cells, and so is a value that evaluate() finds not finite. A failed
cross-check already quotes such a time in the error column; any other
non-finite value gets an error entry of its own, and a FloatingPointError
among the caught exceptions, so a point command still exits as a numeric
failure. An emitter refuses a non-finite value that still reaches a cell with
FloatingPointError.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Collection, Iterable
from dataclasses import dataclass, field, fields
from operator import attrgetter

import numpy as np

from . import __version__
from .barrier import (
    DEFAULT_CUTOFF,
    BarrierProblem,
    StationarySolution,
    Wavenumbers,
    _check_barrier,
    _check_tunneling,
    _coefficients,
    _flux,
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
from .depth import _depth, penetration_depth, relative_density
from .errors import (
    DomainError,
    MissingGridPoint,
    NoConvergence,
    ParseError,
    ValidationError,
)
from .momentum import (
    MomentumSpectrum,
    _exponential_moments,
    _kinematics,
    _series_route,
    momentum_spectrum,
)
from .numerics import GRID, scaled_e1_grid
from .times import (
    CROSS_CHECK_TOL,
    DEFAULT_PHASE_STEP_EV,
    _bl_time,
    _dwell_time_closed,
    _g,
    _phase_time_closed,
    _stored_probability,
    bl_time,
    dwell_time_analytic,
    dwell_time_numeric,
    phase_time_analytic,
    phase_time_numeric,
)

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
    phase_step_ev: float = DEFAULT_PHASE_STEP_EV

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
        if not self.phase_step_ev > 0:
            raise ValidationError("phase_step_eV must be positive")
        for key, name in (
            ("V0_eV", "v0_ev"), ("Kprime", "cutoff"), ("phase_step_eV", "phase_step_ev")
        ):
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


@dataclass(frozen=True)
class SweepRecord:
    """One grid point: problem inputs plus every scalar output.

    Optional fields are None when not computed (upstream failure) or not
    defined (no depth crossing); ``note`` carries machine-readable reason
    codes, ``error`` the per-point failure messages. ``spectrum`` is not a
    column: it is the momentum spectrum the evaluation built, None where the
    momentum block did not run or failed, and records compare and hash
    without it.
    """

    e_over_v0: float
    d_nm: float
    e_ev: float
    v0_ev: float
    cutoff: float
    s_abs2: float | None = None
    r_abs2: float | None = None
    k_rms: float | None = None
    v_rms: float | None = None
    t_eff_s: float | None = None
    eps_eff_ev: float | None = None
    t_ph_numeric_s: float | None = None
    t_ph_analytic_s: float | None = None
    t_dw_numeric_s: float | None = None
    t_dw_analytic_s: float | None = None
    t_bl_s: float | None = None
    s_nm: float | None = None
    tau_eff_s: float | None = None
    xi: float | None = None
    note: str = ""
    error: str = ""
    spectrum: MomentumSpectrum | None = field(default=None, compare=False, repr=False)


#: Sweep CSV column -> SweepRecord attribute, in column order. Point commands
#: print the same columns under the same names.
RECORD_COLUMNS = {
    "E_over_V0": "e_over_v0",
    "d_nm": "d_nm",
    "E_eV": "e_ev",
    "V0_eV": "v0_ev",
    "Kprime_per_m": "cutoff",
    "S_abs2": "s_abs2",
    "R_abs2": "r_abs2",
    "K_rms_per_m": "k_rms",
    "v_rms_m_per_s": "v_rms",
    "t_eff_s": "t_eff_s",
    "eps_eff_eV": "eps_eff_ev",
    "t_ph_numeric_s": "t_ph_numeric_s",
    "t_ph_analytic_s": "t_ph_analytic_s",
    "t_dw_numeric_s": "t_dw_numeric_s",
    "t_dw_analytic_s": "t_dw_analytic_s",
    "t_bl_s": "t_bl_s",
    "s_nm": "s_nm",
    "tau_eff_s": "tau_eff_s",
    "xi": "xi",
    "note": "note",
    "error": "error",
}

NOTE_NO_CROSSING = "no_crossing"
NOTE_PHASE_CLIPPED = "phase_stencil_clipped"

#: Evaluation blocks in the order evaluate() runs them. "momentum" fills
#: K_rms, v_rms, t_eff and eps_eff; "times" the phase, dwell and BL clocks;
#: "depth" the depth s, plus tau_eff and xi when the momentum block succeeded.
BLOCKS = ("momentum", "times", "depth")


def evaluate(
    problem: BarrierProblem,
    cfg: SweepConfig,
    blocks: tuple[str, ...] = BLOCKS,
    grid_point: tuple[float, float] | None = None,
) -> tuple[SweepRecord, list[Exception]]:
    """The record of ``blocks`` at one problem, and the exceptions they caught.

    Each block isolates its failures: they become note or error cells, and the
    exceptions behind them (a cross-check failure is a NoConvergence quoting
    both routes) are returned in evaluation order. The sweep runs every block
    and keeps only the cells; a point command runs the blocks behind its
    columns and raises the first exception.

    ``grid_point`` is the (E/V0, d in nm) the record is filed under; the sweep
    passes its grid values so that records key exactly. It defaults to the
    problem's own. cfg supplies V0, the cutoff and the phase step;
    ``problem`` must agree with its V0 and cutoff.
    """
    if grid_point is None:
        grid_point = (problem.e_over_v0, length_si_to_nm(problem.thickness))
    e_ratio, d_nm = grid_point
    values: dict[str, float | None] = {}
    spectrum = None
    notes: list[str] = []
    errors: list[str] = []
    caught: list[Exception] = []

    def fail(exc: Exception, cell: str) -> None:
        caught.append(exc)
        errors.append(cell)

    def cross_check(name: str, numeric: float, analytic: float) -> None:
        if not _agrees(numeric, analytic):
            mismatch = NoConvergence(
                f"{name} cross-check: numeric {numeric!r} vs analytic {analytic!r}"
            )
            fail(mismatch, str(mismatch))

    sol = stationary_solution(problem)
    values.update(s_abs2=sol.transmission, r_abs2=sol.reflection)
    kin = None
    if "momentum" in blocks:
        try:
            # kept before kinematics(), so fig1 still draws a point whose
            # window is too wide for a subluminal v_rms
            spectrum = momentum_spectrum(problem, solution=sol)
            kin = spectrum.kinematics()
            values.update(
                k_rms=kin.k_rms,
                v_rms=kin.v_rms,
                t_eff_s=kin.t_eff,
                eps_eff_ev=energy_si_to_ev(kin.eps_eff),
            )
        except (DomainError, NoConvergence) as exc:
            fail(exc, f"momentum: {exc}")
    if "times" in blocks:
        t_ph_num = None
        try:
            t_ph_num = phase_time_numeric(problem, cfg.phase_step_ev)
        except DomainError as exc:
            caught.append(exc)
            notes.append(NOTE_PHASE_CLIPPED)
        t_ph_ana = phase_time_analytic(problem)
        t_dw_num = dwell_time_numeric(problem, solution=sol)
        t_dw_ana = dwell_time_analytic(problem)
        values.update(
            t_ph_numeric_s=t_ph_num,
            t_ph_analytic_s=t_ph_ana,
            t_dw_numeric_s=t_dw_num,
            t_dw_analytic_s=t_dw_ana,
            t_bl_s=bl_time(problem),
        )
        if t_ph_num is not None:
            cross_check("phase", t_ph_num, t_ph_ana)
        cross_check("dwell", t_dw_num, t_dw_ana)
    if "depth" in blocks:
        depth = penetration_depth(problem)
        if depth is None:
            notes.append(NOTE_NO_CROSSING)
        else:
            values["s_nm"] = length_si_to_nm(depth)
            if kin is not None:
                tau, xi = _tau_xi(depth, kin.v_rms, kin.eps_eff)
                values.update(tau_eff_s=tau, xi=xi)

    # a non-finite value leaves its cell empty: a failed cross-check already
    # quotes the times it compared, and any other value is an error of its own.
    # The screen skips None and 0.0 (both falsy) and runs in C, so a finite
    # record costs the point commands no Python loop.
    if not all(map(math.isfinite, filter(None, values.values()))):
        for name, value in values.items():
            if value is not None and not math.isfinite(value):
                values[name] = None
                if name not in _CROSS_CHECKED:
                    fail(FloatingPointError(_NON_FINITE), f"{name}: {_NON_FINITE}")

    record = SweepRecord(
        e_over_v0=e_ratio,
        d_nm=d_nm,
        e_ev=e_ratio * cfg.v0_ev,
        v0_ev=cfg.v0_ev,
        cutoff=cfg.cutoff,
        **values,
        note=";".join(notes),
        error="; ".join(errors),
        spectrum=spectrum,
    )
    return record, caught


#: The values a cross-check compares, and quotes when they fail it; a
#: non-finite one always fails it.
_CROSS_CHECKED = (
    "t_ph_numeric_s", "t_ph_analytic_s", "t_dw_numeric_s", "t_dw_analytic_s"
)


def _agrees(numeric, analytic):
    """The cross-check of a numeric and an analytic time, at a point or
    elementwise: within CROSS_CHECK_TOL of a finite analytic value, written
    so that a NaN or an infinite value fails it."""
    close = abs(numeric - analytic) <= CROSS_CHECK_TOL * abs(analytic)
    return close & (abs(analytic) < math.inf)


def _tau_xi(depth, v_rms, eps_eff):
    """tau_eff = s / v_rms and xi = 2 eps_eff tau_eff / hbar."""
    tau = depth / v_rms
    return tau, 2.0 * eps_eff * tau / CONSTANTS.hbar


def evaluate_point(cfg: SweepConfig, e_ratio: float, d_nm: float) -> SweepRecord:
    """The sweep's record at one grid point: every block, failures in its cells."""
    e_ev = e_ratio * cfg.v0_ev
    try:
        problem = BarrierProblem.from_ev_nm(e_ev, cfg.v0_ev, d_nm, cfg.cutoff)
    except DomainError as exc:
        return SweepRecord(
            e_over_v0=e_ratio,
            d_nm=d_nm,
            e_ev=e_ev,
            v0_ev=cfg.v0_ev,
            cutoff=cfg.cutoff,
            error=f"problem: {exc}",
        )
    return evaluate(problem, cfg, grid_point=(e_ratio, d_nm))[0]


def run_sweep(cfg: SweepConfig) -> list[SweepRecord]:
    """Evaluate the full grid, thickness outer, energy inner (ascending).

    One pass of array kernels covers the usual points (see the module
    docstring); evaluate_point() evaluates every other point.
    """
    points = [(e_ratio, d_nm) for d_nm in cfg.d_nm_grid for e_ratio in cfg.e_over_v0_grid]
    records: list[SweepRecord | None] = [None] * len(points)
    for index, record in _grid_records(cfg):
        records[index] = record
    return [
        evaluate_point(cfg, *point) if record is None else record
        for record, point in zip(records, points)
    ]


def _assemble(cls, **values):
    """An instance of the frozen dataclass ``cls`` holding ``values``, one for
    each field, built without calling __init__ or __post_init__.

    A frozen __init__ sets each field through object.__setattr__, which cost
    about 4.6 us for a record; the grid builds the objects of its usual points
    this way, after making their checks as arrays or once per grid value.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(values)
    return obj


def _passes(check: Callable[..., None], *args: float) -> bool:
    try:
        check(*args)
    except DomainError:
        return False
    return True


#: The grid leaves a point to evaluate_point() where kappa exceeds this many
#: times the cutoff: the exponential sum's second moment cancels by about
#: 3 (kappa / c)^2 there, so its digits depend on the rounding of each step.
_SUM_WELL_CONDITIONED_KAPPA_OVER_C = 4.0


def _grid_records(cfg: SweepConfig):
    """(flat index, record) of every usual grid point (see the module
    docstring), by one pass of the array kernels."""
    e_grid, d_grid, c = cfg.e_over_v0_grid, cfg.d_nm_grid, cfg.cutoff
    height = energy_ev_to_si(cfg.v0_ev)
    # BarrierProblem's checks split into one on the energy and one on the
    # barrier, so they run once per grid value
    e_ok = [_passes(_check_tunneling, energy_ev_to_si(r * cfg.v0_ev), height) for r in e_grid]
    d_ok = [_passes(_check_barrier, height, length_nm_to_si(d), c) for d in d_grid]
    flat = np.flatnonzero(np.outer(d_ok, e_ok))
    energy = energy_ev_to_si(np.array(e_grid)[flat % len(e_grid)] * cfg.v0_ev)
    thickness = length_nm_to_si(np.array(d_grid)[flat // len(e_grid)])
    # Python floats overflow to inf and make NaN without a warning; so does
    # this pass, and every lane that ends non-finite or fails a check goes
    # to evaluate_point(), which evaluates the same formulas
    with np.errstate(all="ignore"):
        k, kappa = _wavenumber_pair(energy, height, GRID)
        lam = kappa * thickness
        # the series route covers the dwell time's edge form, which takes the
        # same bound on kappa d
        keep = ~_series_route(lam, c * thickness)
        keep &= kappa <= _SUM_WELL_CONDITIONED_KAPPA_OVER_C * c
        flat, energy, thickness, k, kappa, lam = (
            a[keep] for a in (flat, energy, thickness, k, kappa, lam)
        )

        t, S, A, B, R, a_d, b_d = _coefficients(k, kappa, thickness, GRID)
        # scaled_e1_grid() leaves unsettled the elements of its series domain
        # and those its fraction does not settle
        settled = np.ones(flat.size, dtype=bool)

        def e1(z):
            value, converged = scaled_e1_grid(z)
            settled[:] &= converged
            return value

        norm, second = _exponential_moments(kappa, thickness, c, A, B, a_d, b_d, GRID, e1)
        moments_ok = (norm > 0.0) & (second > 0.0)
        k_rms, v_rms, t_eff, eps_eff = _kinematics(norm, second, thickness, GRID)
        g = _g(height)
        t_ph_ana = _phase_time_closed(k, kappa, lam, g, GRID)
        t_dw_num = _stored_probability(kappa, thickness, A, B, a_d, GRID) / _flux(k)
        t_dw_ana = _dwell_time_closed(k, kappa, lam, g, GRID)
        t_bl = _bl_time(kappa, thickness)
        depth, crossing = _depth(k, kappa, thickness, GRID)
        tau, xi = _tau_xi(depth, v_rms, eps_eff)
        s_abs2, r_abs2 = np.abs(S) ** 2, np.abs(R) ** 2
        eps_ev, s_nm = energy_si_to_ev(eps_eff), length_si_to_nm(depth)
        columns = (
            s_abs2, r_abs2, k_rms, v_rms, t_eff, eps_eff, eps_ev, t_ph_ana,
            t_dw_num, t_dw_ana, t_bl, depth, s_nm, tau, xi,
        )
        usual = (
            settled
            & moments_ok
            & (np.minimum(np.minimum(k_rms, v_rms), np.minimum(t_eff, eps_eff)) > 0.0)
            & (v_rms < SPEED_OF_LIGHT)
            & np.isfinite(np.stack(columns)).all(axis=0)
            & _agrees(t_dw_num, t_dw_ana)
        )

    n_e = len(e_grid)
    rows = zip(*(a[usual].tolist() for a in (
        flat, energy, thickness, k, kappa, t, S, A, B, R, a_d, b_d, norm, second,
        crossing, s_abs2, r_abs2, k_rms, v_rms, t_eff, eps_ev,
        t_ph_ana, t_dw_num, t_dw_ana, t_bl, s_nm, tau, xi,
    )))
    for (
        index, energy_i, thickness_i, k_i, kappa_i, t_i, S_i, A_i, B_i, R_i, a_d_i,
        b_d_i, norm_i, second_i, crossing_i, s_abs2_i, r_abs2_i, k_rms_i, v_rms_i,
        t_eff_i, eps_ev_i, t_ph_ana_i, t_dw_num_i, t_dw_ana_i, t_bl_i, s_nm_i,
        tau_i, xi_i,
    ) in rows:
        problem = _assemble(
            BarrierProblem, energy=energy_i, height=height, thickness=thickness_i, cutoff=c
        )
        try:
            t_ph_num = phase_time_numeric(problem, cfg.phase_step_ev)
        except DomainError:  # a clipped stencil, noted by evaluate_point()
            continue
        if not _agrees(t_ph_num, t_ph_ana_i):
            continue
        sol = _assemble(
            StationarySolution, problem=problem, wavenumbers=Wavenumbers(k_i, kappa_i),
            t=t_i, S=S_i, A=A_i, B=B_i, R=R_i, edge_modes=(a_d_i, b_d_i),
        )
        e_ratio = e_grid[index % n_e]
        yield index, _assemble(
            SweepRecord,
            e_over_v0=e_ratio,
            d_nm=d_grid[index // n_e],
            e_ev=e_ratio * cfg.v0_ev,
            v0_ev=cfg.v0_ev,
            cutoff=c,
            s_abs2=s_abs2_i,
            r_abs2=r_abs2_i,
            k_rms=k_rms_i,
            v_rms=v_rms_i,
            t_eff_s=t_eff_i,
            eps_eff_ev=eps_ev_i,
            t_ph_numeric_s=t_ph_num,
            t_ph_analytic_s=t_ph_ana_i,
            t_dw_numeric_s=t_dw_num_i,
            t_dw_analytic_s=t_dw_ana_i,
            t_bl_s=t_bl_i,
            s_nm=s_nm_i if crossing_i else None,
            tau_eff_s=tau_i if crossing_i else None,
            xi=xi_i if crossing_i else None,
            note="" if crossing_i else NOTE_NO_CROSSING,
            error="",
            spectrum=MomentumSpectrum(sol, norm_i, second_i),
        )


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
    "phase_step_eV": (_parse_float, "phase_step_ev"),
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


def _echo(value: object) -> str:
    """A config value in file syntax that parses back to exactly that value."""
    if isinstance(value, tuple):
        return ",".join(_echo(v) for v in value)
    if isinstance(value, float):
        text = _fmt(value)
        return text if float(text) == value else repr(value)
    return str(value)


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


_NON_FINITE = "refusing to serialize a non-finite value"


def _fmt(value: float | None) -> str:
    """Six significant digits, empty cell for absent values, never NaN.

    Adding 0.0 turns -0.0 into 0.0 and leaves every other float as it is, so
    zero of either sign prints as "0".
    """
    if value is None:
        return ""
    if not math.isfinite(value):
        raise FloatingPointError(_NON_FINITE)
    return f"{value + 0.0:.6g}"


def _cells(values: np.ndarray) -> list[str]:
    """_fmt of each element of a float array, checked for finiteness at once."""
    if not np.isfinite(values).all():
        raise FloatingPointError(_NON_FINITE)
    return [f"{v:.6g}" for v in (values + 0.0).tolist()]


def _csv(meta: list[str], header: Iterable[str], rows: Iterable[str]) -> str:
    """The one CSV writer: the tool line, ``meta``, the header and the rows."""
    lines = [f"# tool: {TOOL_NAME} {__version__}", *meta, ",".join(header), *rows]
    return "\n".join(lines) + "\n"


def _metadata(cfg: SweepConfig | None, records: list[SweepRecord]) -> list[str]:
    """The config echo and the stencil clipping note of a grid CSV."""
    lines = [] if cfg is None else [f"# config: {entry}" for entry in config_lines(cfg)]
    clipped = [
        f"(E/V0={_fmt(r.e_over_v0)}, d={_fmt(r.d_nm)} nm)"
        for r in records
        if NOTE_PHASE_CLIPPED in r.note
    ]
    if clipped:
        lines.append(
            "# clipping: phase-time stencil left the energy domain at " + ", ".join(clipped)
        )
    return lines


def _missing(
    rec: SweepRecord, what: str, key: Callable[[float], str] = _echo
) -> MissingGridPoint:
    """MissingGridPoint for a record that cannot be emitted because it ``what``,
    naming its grid point by ``key`` of each value."""
    return MissingGridPoint(
        f"record E/V0={key(rec.e_over_v0)}, d={key(rec.d_nm)} nm {what}"
    )


#: Record attributes written as they are; every other column goes through _fmt.
_TEXT = ("note", "error")

_Source = str | Callable[[SweepRecord], float | None]


def _emit_rows(
    records: list[SweepRecord],
    cfg: SweepConfig | None,
    columns: dict[str, _Source],
    required: Collection[str] = (),
) -> str:
    """CSV with one row per record, in record order.

    ``columns`` maps each CSV column to a record attribute, or to a function of
    the record for a derived column, and each column is read from all records
    at once. None is an empty cell, except in a ``required`` column: the first
    record in row order with a None there raises MissingGridPoint.
    """
    values = [
        list(map(source if callable(source) else attrgetter(source), records))
        for source in columns.values()
    ]
    gaps = [
        (column.index(None), i, name)
        for i, (name, column) in enumerate(zip(columns, values))
        if name in required and None in column
    ]
    if gaps:
        row, _, name = min(gaps)
        rec = records[row]
        raise _missing(rec, f"is missing {name} (note={rec.note!r}, error={rec.error!r})")
    cells = [
        column if source in _TEXT else map(_fmt, column)
        for source, column in zip(columns.values(), values)
    ]
    return _csv(_metadata(cfg, records), columns, map(",".join, zip(*cells)))


def records_to_csv(records: list[SweepRecord], cfg: SweepConfig | None = None) -> str:
    """The full sweep as CSV, one row per grid point in evaluation order."""
    return _emit_rows(records, cfg, RECORD_COLUMNS)


def parse_records(text: str) -> list[SweepRecord]:
    """Re-parse a sweep CSV (as emitted by records_to_csv) into records."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not lines:
        raise ParseError("no header row found")
    header = lines[0].split(",")
    if header != list(RECORD_COLUMNS):
        raise ParseError("unexpected sweep CSV header")
    field_types = {f.name: f.type for f in fields(SweepRecord)}
    records = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ParseError(f"row has {len(cells)} cells, expected {len(header)}")
        kwargs: dict[str, object] = {}
        for column, cell in zip(header, cells):
            attr = RECORD_COLUMNS[column]
            if field_types[attr] == "str":
                kwargs[attr] = cell
            else:
                kwargs[attr] = float(cell) if cell else None
        records.append(SweepRecord(**kwargs))
    return records


def _index_records(
    records: list[SweepRecord],
) -> dict[tuple[float, float], SweepRecord]:
    # a sweep files each record under its exact grid values; the table's grid
    # values read back exactly from six-digit CSV cells too
    return {(r.e_over_v0, r.d_nm): r for r in records}


def _require(
    index: dict[tuple[float, float], SweepRecord], e_ratio: float, d_nm: float
) -> SweepRecord:
    try:
        return index[(e_ratio, d_nm)]
    except KeyError:
        raise MissingGridPoint(
            f"no sweep record for E/V0={e_ratio}, d={d_nm} nm"
        ) from None


def emit_table1(records: list[SweepRecord], cfg: SweepConfig | None = None) -> str:
    """Penetration depths on the canonical 5x9 grid, nm, four decimals.

    Rows run energy-ratio outer / thickness inner, both ascending. Every cell
    must be present and have a depth; anything else raises MissingGridPoint.
    """
    index = _index_records(records)
    rows = []
    for e_ratio in TABLE1_E_RATIOS:
        for d_nm in TABLE1_D_NM:
            rec = _require(index, e_ratio, d_nm)
            if rec.s_nm is None:
                raise _missing(
                    rec, f"has no depth (note={rec.note!r}, error={rec.error!r})", str
                )
            rows.append(f"{_fmt(e_ratio)},{_fmt(d_nm)},{rec.s_nm:.4f}")
    return _csv(_metadata(cfg, records), ("E_over_V0", "d_nm", "s_nm"), rows)


def _figure_spectrum(rec: SweepRecord) -> MomentumSpectrum:
    if rec.spectrum is None:
        raise _missing(
            rec, f"has no momentum spectrum to draw curves from (error={rec.error!r})"
        )
    return rec.spectrum


def _curve_figure(records: list[SweepRecord], which: str, cfg: SweepConfig | None) -> str:
    """fig1 or fig4: each record's curve on its grid, one row per grid point.

    fig1's K grid depends only on the cutoff and fig4's x grid only on the
    thickness, so records that share one share its array and its cells.
    """
    fig1 = which == "fig1"
    grids: dict[float, tuple[np.ndarray, list[str]]] = {}
    rows: list[str] = []
    for rec in records:
        spectrum = _figure_spectrum(rec)
        key = rec.cutoff if fig1 else spectrum.problem.thickness
        if key not in grids:
            if fig1:
                grid = np.linspace(-key, key, FIG1_K_POINTS)
                grids[key] = grid, _cells(grid)
            else:
                grid = np.linspace(0.0, key, FIG4_X_POINTS)
                grids[key] = grid, _cells(length_si_to_nm(grid))
        grid, grid_cells = grids[key]
        curve = spectrum.pdf(grid) if fig1 else relative_density(spectrum.solution, grid)
        prefix = f"{_fmt(rec.e_over_v0)},{_fmt(rec.d_nm)}"
        rows += [f"{prefix},{x},{y}" for x, y in zip(grid_cells, _cells(curve))]
    header = ("K_per_m", "pdf_m") if fig1 else ("x_nm", "relative_density")
    return _csv(_metadata(cfg, records), ("E_over_V0", "d_nm", *header), rows)


def _eps_eff_plus_v0(rec: SweepRecord) -> float | None:
    return None if rec.eps_eff_ev is None else rec.eps_eff_ev + rec.v0_ev


#: The per-point figures, after the E_over_V0 and d_nm key columns: CSV
#: column -> record attribute, or a function of the record for a derived column.
_SCALAR_FIGURES = {
    "fig2": {"v_rms_m_per_s": "v_rms", "eps_eff_eV": "eps_eff_ev", "t_eff_s": "t_eff_s"},
    "fig3": {
        "E_eV": "e_ev",
        "t_ph_s": "t_ph_numeric_s",
        "t_dw_s": "t_dw_numeric_s",
        "t_bl_s": "t_bl_s",
    },
    "fig5": {"s_nm": "s_nm", "tau_eff_s": "tau_eff_s", "xi": "xi"},
    "fig6a": {"eps_eff_plus_V0_eV": _eps_eff_plus_v0},
}

#: Attributes a figure may leave empty: absent where the density never
#: reaches the depth threshold (the no_crossing note).
_MAY_BE_ABSENT = ("s_nm", "tau_eff_s", "xi")


def emit_figure_data(
    records: list[SweepRecord], which: str, cfg: SweepConfig | None = None
) -> str:
    """One figure's data as CSV; ``cfg`` only feeds the metadata lines.

    fig1: momentum-density curves over the K window per grid point.
    fig2: v_rms, eps_eff, t_eff per grid point.
    fig3: the three literature times side by side per grid point.
    fig4: relative-density curves on 128 uniform x points per grid point.
    fig5: depth, tau_eff, xi per grid point (empty cells where no crossing).
    fig6a: eps_eff + V0 per grid point.

    fig1 and fig4 draw from each record's spectrum and raise MissingGridPoint
    for a record without one.
    """
    if which in ("fig1", "fig4"):
        return _curve_figure(records, which, cfg)
    if which in _SCALAR_FIGURES:
        columns = {"E_over_V0": "e_over_v0", "d_nm": "d_nm", **_SCALAR_FIGURES[which]}
        required = [c for c, source in columns.items() if source not in _MAY_BE_ABSENT]
        return _emit_rows(records, cfg, columns, required)
    raise ValidationError(f"unknown figure id {which!r}; valid: {', '.join(FIGURE_IDS)}")
