"""The sweep's records: one grid point's SweepRecord, and the SweepTable that
holds a whole grid's records as columns.

A SweepTable keeps one float array per numeric record column, NaN in an
empty cell, the note and error text, and the columns a row's momentum
spectrum is built from. The sweep writes them by flat index (_blank_columns,
_write_record and the grid pass in the sweep module), and a row becomes a
SweepRecord only when it is asked for. Every emitter reads a table's columns
and builds no record: the curve figures are drawn from the spectrum columns,
and any other sequence of records is written into a table once (_as_table),
where a numeric value that is neither None nor finite is refused.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .barrier import BarrierProblem, StationarySolution, Wavenumbers
from .momentum import MomentumSpectrum

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class SweepRecord:
    """One grid point: problem inputs plus every scalar output.

    Optional fields are None when not computed (upstream failure) or not
    defined (no depth crossing); ``note`` carries machine-readable reason
    codes, ``error`` the per-point failure messages. ``spectrum`` is not a
    column: it is the momentum spectrum the evaluation built, None where its
    moments failed, and records compare and hash without it.
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

#: Record attributes held as text; every other column is a float.
TEXT_FIELDS = ("note", "error")

#: The message of the FloatingPointError raised for a non-finite value that
#: would reach a CSV cell.
NON_FINITE = "refusing to serialize a non-finite value"

#: SweepRecord's numeric fields, in column order.
_NUMERIC = tuple(attr for attr in RECORD_COLUMNS.values() if attr not in TEXT_FIELDS)

#: The columns a row's momentum spectrum is built from, besides its grid
#: point: the wavenumbers, the solution's t, S, A, B, R and its edge modes
#: (A e^{kappa d}, B e^{-kappa d}), then the two window moments.
_SPECTRUM = (
    "k", "kappa", "t", "S", "A", "B", "R", "a_d", "b_d", "normalization", "second_moment"
)
_COMPLEX = ("t", "S", "A", "B", "R", "a_d", "b_d")


class SweepTable(Sequence[SweepRecord]):
    """The records of a sweep, kept as columns; run_sweep() returns one.

    Each numeric record column is a read-only float array with NaN for an
    empty cell, which no record value can be mistaken for: evaluate() empties
    every non-finite value. note and error are tuples of str. The table also
    keeps the columns a row's momentum spectrum is built from (_SPECTRUM),
    NaN in the moments of a row without one. ``table[i]`` builds row i's
    SweepRecord, spectrum included, the first time it is asked for and keeps
    it; the emitters read the columns and build no record.
    """

    def __init__(self, columns: dict[str, np.ndarray | list[str]]):
        """Take over ``columns``, as _blank_columns() makes them, once their
        rows are written."""
        for name, column in columns.items():
            if name in TEXT_FIELDS:
                columns[name] = tuple(column)
            else:
                column.flags.writeable = False
        self._columns = columns
        self._rows: list[SweepRecord | None] = [None] * len(columns["note"])

    def __len__(self) -> int:
        return len(self._rows)

    def column(self, attr: str) -> np.ndarray | tuple[str, ...]:
        """The column of SweepRecord attribute ``attr``, or of a _SPECTRUM name."""
        return self._columns[attr]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        i = range(len(self))[index]
        if self._rows[i] is None:
            self._rows[i] = self._record(i)
        return self._rows[i]

    def _record(self, i: int) -> SweepRecord:
        values = {attr: self._columns[attr].item(i) for attr in _NUMERIC}
        values = {attr: None if math.isnan(v) else v for attr, v in values.items()}
        k, kappa, t, S, A, B, R, a_d, b_d, norm, second = (
            self._columns[name].item(i) for name in _SPECTRUM
        )
        spectrum = None
        if not math.isnan(norm):
            problem = BarrierProblem.from_ev_nm(
                values["e_ev"], values["v0_ev"], values["d_nm"], values["cutoff"]
            )
            sol = StationarySolution(
                problem, Wavenumbers(k, kappa),
                t=t, S=S, A=A, B=B, R=R, edge_modes=(a_d, b_d),
            )
            spectrum = MomentumSpectrum(sol, norm, second)
        text = {attr: self._columns[attr][i] for attr in TEXT_FIELDS}
        return SweepRecord(**values, **text, spectrum=spectrum)


def _blank_columns(size: int) -> dict[str, np.ndarray | list[str]]:
    """The columns of a SweepTable of ``size`` rows, every cell empty."""
    import numpy as np

    columns: dict[str, np.ndarray | list[str]] = {
        name: np.full(size, math.nan, dtype=complex if name in _COMPLEX else float)
        for name in (*_NUMERIC, *_SPECTRUM)
    }
    columns.update((name, [""] * size) for name in TEXT_FIELDS)
    return columns


def _write_record(columns: dict[str, np.ndarray | list[str]], i: int, record: SweepRecord):
    """Write ``record`` into row ``i`` of ``columns``: NaN for None, and the
    _SPECTRUM values where it carries a spectrum. Any other numeric record
    value that is not finite raises FloatingPointError, so NaN in a record
    column is always an empty cell."""
    row = {attr: getattr(record, attr) for attr in RECORD_COLUMNS.values()}
    if record.spectrum is not None:
        sol = record.spectrum.solution
        row |= zip(_SPECTRUM, (
            sol.wavenumbers.k, sol.wavenumbers.kappa, sol.t, sol.S, sol.A, sol.B, sol.R,
            *sol.edge_modes, record.spectrum.normalization, record.spectrum.second_moment,
        ))
    for name, value in row.items():
        if value is None:
            value = math.nan
        elif name in _NUMERIC and not math.isfinite(value):
            raise FloatingPointError(NON_FINITE)
        columns[name][i] = value


def _as_table(records: Sequence[SweepRecord]) -> SweepTable:
    """``records`` as a SweepTable: a table itself, or one written row by row."""
    if isinstance(records, SweepTable):
        return records
    columns = _blank_columns(len(records))
    for i, record in enumerate(records):
        _write_record(columns, i, record)
    return SweepTable(columns)
