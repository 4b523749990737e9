"""Parameter sweeps over barrier problems and the CSV emitters of their
records.

The config is SweepConfig, read from ``key=value`` text by parse_config() and
echoed back by config_lines(). run_sweep() evaluates a grid over (E/V0, d),
flattened thickness outer and energy inner, and returns a SweepTable (records
module): a sequence of records that keeps its columns as arrays and builds a
record from its cells when one is asked for. One pass of the array kernels
(evaluation._grid_pass) writes the usual points straight into the table; the
point path (evaluation._evaluate) evaluates every other point, and its record
values and curve values are written into the same columns by its flat index,
by the row writer that also writes a list of records into a table
(records._write_row). evaluate() gives the record at one problem by the point
path.

The emitters turn records into CSV by the evaluation module's writer, with
'#'-prefixed metadata lines (tool version, config echo, stencil clipping
notes) ahead of the header; the depth table prints the conventional four
decimals of nm where every other cell has six significant digits. Every
emitter converts its input into a SweepTable once (records._as_table: a table
as it is, any other sequence of records written row by row) and reads its
columns; none builds a record, not even to name a grid point in the clipping
note or a MissingGridPoint message. The per-record CSVs (the sweep, table1 and
fig2, fig3, fig5, fig6a) format each numeric column in one pass with one
finiteness check, and a grid-key column once per distinct value; a required
column is checked for gaps first, so the first incomplete record in row order
is the one named.

The curve figures fig1 and fig4 read the table's columns too: the wave's
coefficients, the normalization, the thickness and fig1's cutoff. Each is one
array of curves, a row per record, from the kernels momentum._amplitude() and
barrier._wave(), so a curve has the point path's bits. A row whose problem
was refused or whose moments failed cannot be drawn. Neither can a list of
records, which holds their cells alone (re-read from CSV, made by evaluate(),
or joined from several tables): its first record is named.

NaN is never serialized: absent values are empty cells. An emitter refuses
with FloatingPointError a non-finite value that still reaches it: in any
numeric value of a record it writes into a table, where NaN can only mean an
empty cell, and in any cell it prints. The config and evaluate() import no
numpy of their own; run_sweep() and the emitters import it when they run.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Collection, Iterable, Iterator, Sequence

from .barrier import DEFAULT_CUTOFF, BarrierProblem, _real, _wave
from .constants import energy_ev_to_si, length_nm_to_si, length_si_to_nm
from .depth import _relative_density
from .errors import DomainError, MissingGridPoint, ParseError, ValidationError
from .evaluation import (
    FIGURE_IDS,
    NOTE_PHASE_CLIPPED,
    _csv,
    _echo,
    _evaluate,
    _fmt,
    _grid_pass,
    _needs_crossing,
)
from .momentum import _amplitude
from .records import (
    NON_FINITE,
    RECORD_COLUMNS,
    TEXT_FIELDS,
    SweepRecord,
    SweepTable,
    _as_table,
    _blank_columns,
    _Value,
    _write_row,
)

TYPE_CHECKING = False  # true for a type checker only
if TYPE_CHECKING:
    import numpy as np

    _Source = str | Callable[[Callable[[str], np.ndarray]], np.ndarray]

#: The depth-table grid: five energy ratios by nine thicknesses (nm).
TABLE1_E_RATIOS = (0.01, 0.1, 0.5, 0.9, 0.99)
TABLE1_D_NM = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

DEFAULT_E_RATIOS = TABLE1_E_RATIOS
DEFAULT_D_NM = (0.1,) + TABLE1_D_NM

#: K-grid resolution for the momentum-density curves (fig1).
FIG1_K_POINTS = 201
#: x-grid resolution for the relative-density curves (fig4).
FIG4_X_POINTS = 128


class SweepConfig(_Value):
    """Validated sweep parameters; every field has a documented default."""

    def __init__(
        self,
        v0_ev: float = 10.0,
        e_over_v0_grid: tuple[float, ...] = DEFAULT_E_RATIOS,
        d_nm_grid: tuple[float, ...] = DEFAULT_D_NM,
        cutoff: float = DEFAULT_CUTOFF,
    ):
        # held as Python floats: a numpy scalar would echo as np.float64(...),
        # which parse_config() refuses, and be quoted so in error cells
        v0_ev = _real("V0_eV", v0_ev, ValidationError)
        cutoff = _real("Kprime", cutoff, ValidationError)
        if not v0_ev > 0:
            raise ValidationError("V0_eV must be positive")
        e_over_v0_grid = _grid("E_over_V0_grid", e_over_v0_grid)
        d_nm_grid = _grid("d_nm_grid", d_nm_grid)
        if any(not 0.0 < r < 1.0 for r in e_over_v0_grid):
            raise ValidationError(
                "E_over_V0_grid must stay inside the tunneling regime (0, 1)"
            )
        if not cutoff > 0:
            raise ValidationError("Kprime must be positive")
        if not math.isfinite(v0_ev):
            raise ValidationError("V0_eV must be finite")
        if not math.isfinite(cutoff):
            raise ValidationError("Kprime must be finite")
        self.__dict__.update(
            v0_ev=v0_ev, e_over_v0_grid=e_over_v0_grid, d_nm_grid=d_nm_grid, cutoff=cutoff
        )


def _grid(name: str, grid) -> tuple[float, ...]:
    """The checked grid ``grid``, as a tuple of Python floats by _real(), an
    array as its values; a string, which iterates by character, is refused
    like any other value that is not a sequence of numbers."""
    if isinstance(grid, (str, bytes)) or not hasattr(grid, "__iter__"):
        raise ValidationError(f"{name} must be a sequence of real numbers")
    grid = tuple(_real(f"each {name} value", value, ValidationError) for value in grid)
    if not grid:
        raise ValidationError(f"{name} must not be empty")
    if any(v <= 0 for v in grid):
        raise ValidationError(f"{name} values must be positive")
    if not all(math.isfinite(v) for v in grid):
        raise ValidationError(f"{name} values must be finite")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValidationError(f"{name} must be strictly increasing")
    return grid


def evaluate(problem: BarrierProblem, cfg: SweepConfig) -> tuple[SweepRecord, list[Exception]]:
    """The sweep's record at one problem, and the exceptions behind its
    failures.

    Every column comes from the kernel evaluation._columns(), as on the
    sweep's array pass. Failures become note or error cells, and the exceptions behind them
    (a cross-check failure is a NoConvergence quoting both routes) are
    returned in the order of the cells. The sweep keeps only the cells; a
    point command raises the first exception that concerns a column it
    prints.

    The record is filed under the problem's own (E/V0, d in nm). cfg supplies
    V0 and the cutoff, and the record files its values under them: a problem
    whose height is not energy_ev_to_si(cfg.v0_ev) or whose cutoff is not
    cfg.cutoff, as BarrierProblem.from_ev_nm builds them, raises
    ValidationError. The phase stencil takes times.DEFAULT_PHASE_STEP_EV, at
    a point as on the sweep's array pass.
    """
    if energy_ev_to_si(cfg.v0_ev) != problem.height or cfg.cutoff != problem.cutoff:
        raise ValidationError("the problem's height and cutoff must be cfg's V0_eV and Kprime")
    values, _, failures = _evaluate(problem)
    record = _record(cfg, problem.e_over_v0, length_si_to_nm(problem.thickness), values)
    return record, [exc for exc, _ in failures]


def _record(cfg, e_ratio, d_nm, values):
    """The SweepRecord filed under the grid point (``e_ratio``, ``d_nm``)
    of ``cfg``, with ``values`` by attribute."""
    e_ev, v0_ev = e_ratio * cfg.v0_ev, cfg.v0_ev
    return SweepRecord(e_over_v0=e_ratio, d_nm=d_nm, e_ev=e_ev, v0_ev=v0_ev,
                       cutoff=cfg.cutoff, **values)


def _point(cfg: SweepConfig, e_ratio: float, d_nm: float):
    """_evaluate()'s record values and curve values at the grid point
    (``e_ratio``, ``d_nm``) of ``cfg``; a problem BarrierProblem refuses has
    only its error cell."""
    try:
        problem = BarrierProblem.from_ev_nm(e_ratio * cfg.v0_ev, cfg.v0_ev, d_nm, cfg.cutoff)
    except DomainError as exc:
        return {"error": f"problem: {exc}"}, {}
    return _evaluate(problem)[:2]


def run_sweep(cfg: SweepConfig) -> SweepTable:
    """Evaluate the full grid, thickness outer, energy inner (ascending).

    One pass of array kernels writes the usual points into the table's
    columns (see the module docstring); the point path evaluates every other
    point, and its record and curve values are written into the same columns.
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
        values, curves = _point(cfg, e_grid[i % n_e], d_grid[i // n_e])
        _write_row(columns, i, values | curves)
    return SweepTable(columns)


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

    fig1 and fig4 are drawn from the curve columns of a SweepTable that
    run_sweep() made, and raise MissingGridPoint for its first row that
    cannot be drawn; any other sequence of records holds no curve columns,
    so its first record is named. fig6a adds V0 to eps_eff; from
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
    required = [c for c, source in columns.items() if not _needs_crossing(source)]
    return _emit_rows(table, cfg, columns, required)
