"""The sweep's records: one grid point's SweepRecord, and the SweepTable that
holds a whole grid's records as columns.

A SweepTable keeps one float array per numeric record column, NaN in an
empty cell, the note and error text, and the columns the curve figures draw
from. The sweep writes them by flat index (_blank_columns, _write_row and the
array pass in the evaluation module), and a row becomes a SweepRecord, built from
its cells, each time it is asked for. Every emitter reads a table's columns
and builds no record: the curve figures are drawn from the curve columns,
and any other sequence of records is written into a table once (_as_table),
where a numeric value that is neither None nor finite is refused. A record
holds its cells and nothing else, so such a table has no curves to draw.

This module imports nothing from the package: a record is its cells. It
also holds _Value, the base of the package's immutable value classes.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

TYPE_CHECKING = False  # true for a type checker only
if TYPE_CHECKING:
    import numpy as np


class _Value:
    """An immutable value: its fields are the parameters of its class's
    __init__, which puts them into its __dict__ in that order. Equal, and
    hashed alike, when of the same class with equal fields; its repr is
    ``Class(field=value, ...)``; no attribute is assigned or deleted."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class SweepRecord(_Value):
    """One grid point: problem inputs plus every scalar output.

    Optional fields are None when not computed (upstream failure) or not
    defined (no depth crossing); ``note`` carries machine-readable reason
    codes, ``error`` the per-point failure messages.
    """

    def __init__(
        self,
        e_over_v0: float,
        d_nm: float,
        e_ev: float,
        v0_ev: float,
        cutoff: float,
        s_abs2: float | None = None,
        r_abs2: float | None = None,
        k_rms: float | None = None,
        v_rms: float | None = None,
        t_eff_s: float | None = None,
        eps_eff_ev: float | None = None,
        t_ph_numeric_s: float | None = None,
        t_ph_analytic_s: float | None = None,
        t_dw_numeric_s: float | None = None,
        t_dw_analytic_s: float | None = None,
        t_bl_s: float | None = None,
        s_nm: float | None = None,
        tau_eff_s: float | None = None,
        xi: float | None = None,
        note: str = "",
        error: str = "",
    ):
        self.__dict__.update(
            e_over_v0=e_over_v0, d_nm=d_nm, e_ev=e_ev, v0_ev=v0_ev, cutoff=cutoff,
            s_abs2=s_abs2, r_abs2=r_abs2, k_rms=k_rms, v_rms=v_rms, t_eff_s=t_eff_s,
            eps_eff_ev=eps_eff_ev, t_ph_numeric_s=t_ph_numeric_s,
            t_ph_analytic_s=t_ph_analytic_s, t_dw_numeric_s=t_dw_numeric_s,
            t_dw_analytic_s=t_dw_analytic_s, t_bl_s=t_bl_s, s_nm=s_nm, tau_eff_s=tau_eff_s,
            xi=xi, note=note, error=error,
        )


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

#: The columns the curve figures draw from, besides the grid point: the decay
#: constant, the solution's A, B, a_d = A e^{kappa d} and b_d = B e^{-kappa d},
#: and the normalization, NaN where the moments failed.
_CURVES = ("kappa", "A", "B", "a_d", "b_d", "normalization")
_COMPLEX = ("A", "B", "a_d", "b_d")


class SweepTable(Sequence[SweepRecord]):
    """The records of a sweep, kept as columns; run_sweep() returns one.

    Each numeric record column is a read-only float array with NaN for an
    empty cell, which no record value can be mistaken for: evaluate() empties
    every non-finite value. note and error are tuples of str. The table also
    keeps the columns the curve figures draw from (_CURVES), NaN in the
    normalization of a row that cannot be drawn. ``table[i]`` builds row i's
    SweepRecord from its cells; the emitters read the columns and build no
    record.
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

    def __len__(self) -> int:
        return len(self._columns["note"])

    def column(self, attr: str) -> np.ndarray | tuple[str, ...]:
        """The column of SweepRecord attribute ``attr``, or of a _CURVES name."""
        return self._columns[attr]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        i = range(len(self))[index]
        values = {attr: self._columns[attr].item(i) for attr in _NUMERIC}
        values = {attr: None if math.isnan(v) else v for attr, v in values.items()}
        text = {attr: self._columns[attr][i] for attr in TEXT_FIELDS}
        return SweepRecord(**values, **text)


def _blank_columns(size: int) -> dict[str, np.ndarray | list[str]]:
    """The columns of a SweepTable of ``size`` rows, every cell empty."""
    import numpy as np

    columns: dict[str, np.ndarray | list[str]] = {
        name: np.full(size, math.nan, dtype=complex if name in _COMPLEX else float)
        for name in (*_NUMERIC, *_CURVES)
    }
    columns.update((name, [""] * size) for name in TEXT_FIELDS)
    return columns


def _write_row(columns: dict[str, np.ndarray | list[str]], i: int, values: dict):
    """Write ``values``, by column name, into row ``i`` of ``columns``: NaN
    for None. A numeric record value that is not finite raises
    FloatingPointError, so NaN in a record column is always an empty cell."""
    for name, value in values.items():
        if value is None:
            value = math.nan
        elif name in _NUMERIC and not math.isfinite(value):
            raise FloatingPointError(NON_FINITE)
        columns[name][i] = value


def _as_table(records: Sequence[SweepRecord]) -> SweepTable:
    """``records`` as a SweepTable: a table itself, or one written row by row,
    with no curve to draw."""
    if isinstance(records, SweepTable):
        return records
    columns = _blank_columns(len(records))
    for i, record in enumerate(records):
        _write_row(columns, i, vars(record))
    return SweepTable(columns)
