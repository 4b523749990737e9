"""Parameter sweeps over barrier problems and deterministic CSV emission.

evaluate() is the one evaluation path. It computes one barrier problem's flat
record block by block: the momentum kinematics, the four clocks with their
numeric/analytic cross-checks, and the penetration depth with tau_eff and xi.
A sweep evaluates every block at every (E/V0, d) grid point; the momentum,
times and depth commands evaluate only the blocks behind the columns they
print and project the record onto those columns. Records are pure data; the
emitters below turn them into CSV with '#'-prefixed metadata lines (tool
version, config echo, stencil clipping notes) ahead of the header. Identical
configs produce byte-identical output: evaluation order is fixed, no
timestamps are embedded, and floats are serialized at six significant digits
(the depth table uses the conventional four decimals of nm instead). The
config echo keeps six digits only where they read back to the same float.

The per-record CSVs (the sweep and fig2, fig3, fig5, fig6a) share one row
writer. The curve figures are formatted by column: each record's pdf or
density array passes one finiteness check and is formatted in one pass, and a
grid that records share is formatted once per emitter call, since fig1's K
grid depends only on the cutoff and fig4's x grid only on the thickness.

Besides its columns, a record carries the momentum spectrum its momentum
block built, which holds the point's stationary solution. The curve figures
(fig1, fig4) draw from it, so emitting them solves nothing again; a record
without one (a failed solve or spectrum, or a record re-read from CSV)
cannot be drawn.

Per-point failures land in the record's ``error`` column; a missing depth on a
thin barrier is a ``no_crossing`` note, not an error. The barrier solution and
the closed forms are held in bounded form (see the barrier module), so no
thickness aborts the sweep. NaN is never serialized: absent values are empty
cells, and a non-finite value raises FloatingPointError instead of reaching a
cell.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Collection
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__
from .barrier import (
    DEFAULT_CUTOFF,
    BarrierProblem,
    stationary_solution,
)
from .constants import CONSTANTS, energy_si_to_ev, length_si_to_nm
from .depth import penetration_depth, relative_density
from .errors import (
    DomainError,
    MissingGridPoint,
    NoConvergence,
    ParseError,
    ValidationError,
)
from .momentum import MomentumSpectrum, momentum_spectrum
from .times import (
    CROSS_CHECK_TOL,
    DEFAULT_PHASE_STEP_EV,
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
        for key, value in (
            ("V0_eV", self.v0_ev),
            ("Kprime", self.cutoff),
            ("phase_step_eV", self.phase_step_ev),
        ):
            if not math.isfinite(value):
                raise ValidationError(f"{key} must be finite")


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
        # written so that a NaN or an infinite value fails the check too
        agree = abs(numeric - analytic) <= CROSS_CHECK_TOL * abs(analytic)
        if not (agree and math.isfinite(analytic)):
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
        try:
            depth = penetration_depth(problem)
            if depth is None:
                notes.append(NOTE_NO_CROSSING)
            else:
                values["s_nm"] = length_si_to_nm(depth)
                if kin is not None:
                    tau = depth / kin.v_rms
                    values["tau_eff_s"] = tau
                    values["xi"] = 2.0 * kin.eps_eff * tau / CONSTANTS.hbar
        except (DomainError, NoConvergence) as exc:
            fail(exc, f"depth: {exc}")

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
    """Evaluate the full grid, thickness outer, energy inner (ascending)."""
    return [
        evaluate_point(cfg, e_ratio, d_nm)
        for d_nm in cfg.d_nm_grid
        for e_ratio in cfg.e_over_v0_grid
    ]


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


def _metadata(cfg: SweepConfig | None, records: list[SweepRecord] | None) -> list[str]:
    lines = [f"# tool: {TOOL_NAME} {__version__}"]
    if cfg is not None:
        lines += [f"# config: {entry}" for entry in config_lines(cfg)]
    if records:
        clipped = [
            f"(E/V0={_fmt(r.e_over_v0)}, d={_fmt(r.d_nm)} nm)"
            for r in records
            if NOTE_PHASE_CLIPPED in r.note
        ]
        if clipped:
            lines.append(
                "# clipping: phase-time stencil left the energy domain at "
                + ", ".join(clipped)
            )
    return lines


_Source = str | Callable[[SweepRecord], float | str | None]


def _emit_rows(
    records: list[SweepRecord],
    cfg: SweepConfig | None,
    columns: dict[str, _Source],
    required: Collection[str] = (),
) -> str:
    """CSV with one row per record, in record order.

    ``columns`` maps each CSV column to a record attribute, or to a function of
    the record for a derived column. String values (note, error) are written
    as they are and None is an empty cell, except in a ``required`` column,
    where it raises MissingGridPoint.
    """
    out = _metadata(cfg, records)
    out.append(",".join(columns))
    for rec in records:
        cells = []
        for column, source in columns.items():
            value = source(rec) if callable(source) else getattr(rec, source)
            if isinstance(value, str):
                cells.append(value)
            elif value is None and column in required:
                raise MissingGridPoint(
                    f"record E/V0={_echo(rec.e_over_v0)}, d={_echo(rec.d_nm)} nm "
                    f"is missing {column} (note={rec.note!r}, error={rec.error!r})"
                )
            else:
                cells.append(_fmt(value))
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


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
    out = _metadata(cfg, records)
    out.append("E_over_V0,d_nm,s_nm")
    for e_ratio in TABLE1_E_RATIOS:
        for d_nm in TABLE1_D_NM:
            rec = _require(index, e_ratio, d_nm)
            if rec.s_nm is None:
                raise MissingGridPoint(
                    f"record E/V0={e_ratio}, d={d_nm} nm has no depth "
                    f"(note={rec.note!r}, error={rec.error!r})"
                )
            out.append(f"{_fmt(e_ratio)},{_fmt(d_nm)},{rec.s_nm:.4f}")
    return "\n".join(out) + "\n"


def _figure_spectrum(rec: SweepRecord) -> MomentumSpectrum:
    if rec.spectrum is None:
        raise MissingGridPoint(
            f"record E/V0={_echo(rec.e_over_v0)}, d={_echo(rec.d_nm)} nm has no "
            f"momentum spectrum to draw curves from (error={rec.error!r})"
        )
    return rec.spectrum


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
    if which == "fig1":
        out = _metadata(cfg, records)
        out.append("E_over_V0,d_nm,K_per_m,pdf_m")
        k_grids: dict[float, tuple[np.ndarray, list[str]]] = {}
        for rec in records:
            spectrum = _figure_spectrum(rec)
            if rec.cutoff not in k_grids:
                ks = np.linspace(-rec.cutoff, rec.cutoff, FIG1_K_POINTS)
                k_grids[rec.cutoff] = (ks, _cells(ks))
            ks, k_cells = k_grids[rec.cutoff]
            prefix = f"{_fmt(rec.e_over_v0)},{_fmt(rec.d_nm)}"
            out += [
                f"{prefix},{k},{p}" for k, p in zip(k_cells, _cells(spectrum.pdf(ks)))
            ]
        return "\n".join(out) + "\n"
    if which == "fig4":
        out = _metadata(cfg, records)
        out.append("E_over_V0,d_nm,x_nm,relative_density")
        x_grids: dict[float, tuple[np.ndarray, list[str]]] = {}
        for rec in records:
            sol = _figure_spectrum(rec).solution
            thickness = sol.problem.thickness
            if thickness not in x_grids:
                xs = np.linspace(0.0, thickness, FIG4_X_POINTS)
                x_grids[thickness] = (xs, _cells(length_si_to_nm(xs)))
            xs, x_cells = x_grids[thickness]
            prefix = f"{_fmt(rec.e_over_v0)},{_fmt(rec.d_nm)}"
            out += [
                f"{prefix},{x},{v}"
                for x, v in zip(x_cells, _cells(relative_density(sol, xs)))
            ]
        return "\n".join(out) + "\n"
    if which in _SCALAR_FIGURES:
        columns = {"E_over_V0": "e_over_v0", "d_nm": "d_nm", **_SCALAR_FIGURES[which]}
        required = [c for c, source in columns.items() if source not in _MAY_BE_ABSENT]
        return _emit_rows(records, cfg, columns, required)
    raise ValidationError(f"unknown figure id {which!r}; valid: {', '.join(FIGURE_IDS)}")
