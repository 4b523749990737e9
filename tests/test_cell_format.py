"""CSV cells formatted by column agree with the one-cell-at-a-time route.

The per-record emitters read and format each column from all records at
once, the curve figures check every curve for finiteness at once, and each
K or x grid a sweep shares is formatted only once. ``oracles.per_cell_emit``
formats every cell on its own, in row order, as the emitters once did; the
text, or the MissingGridPoint raised instead, must be identical for every
emitter, on the dense acceptance grid and on records joined from sweeps whose
cutoffs, heights and thicknesses differ.
"""

import sys
from dataclasses import replace
from itertools import chain

import numpy as np
import pytest

from oracles import assert_same_text, outcome, per_cell_emit, per_cell_fmt
from tunneltimes.errors import MissingGridPoint
from tunneltimes.sweep import (
    FIGURE_IDS,
    SweepConfig,
    SweepTable,
    _cells,
    _fmt,
    emit_figure_data,
    emit_table1,
    evaluate_point,
    parse_records,
    records_to_csv,
    run_sweep,
)

DENSE = SweepConfig(
    e_over_v0_grid=tuple(i / 100.0 for i in range(1, 100)),
    d_nm_grid=tuple(i / 10.0 for i in range(1, 11)),
)

#: Sweeps with three cutoffs and three heights over overlapping thicknesses.
MIXED = (
    SweepConfig(cutoff=3e10, e_over_v0_grid=(0.1, 0.5, 0.9), d_nm_grid=(0.2, 0.5, 1.0)),
    SweepConfig(v0_ev=5.0, e_over_v0_grid=(0.1, 0.5), d_nm_grid=(0.5, 1.0, 1.5)),
    SweepConfig(v0_ev=20.0, cutoff=1.1e11, e_over_v0_grid=(0.3, 0.9),
                d_nm_grid=(0.2, 1.5)),
)

EDGE_VALUES = (
    -0.0,
    0.0,
    5e-324,
    -5e-324,
    sys.float_info.max,
    -sys.float_info.max,
    0.1234565,
    1234565.0,
    -2.5e-17,
    7.5e10,
)


EMITTERS = ("sweep", "table1", *FIGURE_IDS)

#: What the mixed records cannot be emitted as: they hold none of table1's
#: grid, and the clipped stencil leaves fig3's t_ph_s empty.
MIXED_REFUSED = ("table1", "fig3")


def emit(records, which: str) -> str:
    if which == "sweep":
        return records_to_csv(records)
    if which == "table1":
        return emit_table1(records)
    return emit_figure_data(records, which)


@pytest.fixture(scope="module")
def dense_records():
    return run_sweep(DENSE)


@pytest.fixture(scope="module")
def mixed_records():
    joined = list(chain.from_iterable(run_sweep(cfg) for cfg in MIXED))
    # records of one thickness but different cutoffs follow each other, so a
    # grid filed under the wrong key shows up in the next record's rows
    joined.sort(key=lambda r: (r.d_nm, r.cutoff, r.e_over_v0))
    # and one clipped phase stencil, for the metadata line and an empty cell
    clipped = evaluate_point(SweepConfig(), 1e-6, 0.5)
    assert clipped.spectrum is not None and clipped.t_ph_numeric_s is None
    return joined + [clipped]


@pytest.mark.parametrize("which", EMITTERS)
def test_dense_grid_matches_the_per_cell_route(dense_records, which):
    assert_same_text(emit(dense_records, which), per_cell_emit(dense_records, which))


@pytest.mark.parametrize("which", EMITTERS)
def test_mixed_grids_match_the_per_cell_route(mixed_records, which):
    assert len({r.cutoff for r in mixed_records}) == 3
    want = outcome(per_cell_emit, mixed_records, which)
    if which in MIXED_REFUSED:
        assert want.startswith("MissingGridPoint: ")
    else:
        assert "# clipping: " in want
    assert_same_text(outcome(emit, mixed_records, which), want)


#: The dense grid plus a ratio whose phase stencil clips: fallback rows,
#: empty cells, a clipping line and fig3's refusal, besides the array rows.
WITH_CLIPPED = SweepConfig(
    e_over_v0_grid=(1e-6, *DENSE.e_over_v0_grid), d_nm_grid=DENSE.d_nm_grid
)


@pytest.fixture(scope="module")
def clipped_table():
    return run_sweep(WITH_CLIPPED)


@pytest.mark.parametrize("which", EMITTERS)
def test_a_table_its_records_and_its_reparsed_csv_emit_alike(clipped_table, which):
    # the table is read by column, a list of its records by one conversion;
    # re-parsed records carry no spectrum, so only the curve figures refuse them
    table = clipped_table
    assert isinstance(table, SweepTable)
    want = outcome(emit, table, which)
    assert outcome(emit, list(table), which) == want
    parsed = outcome(emit, parse_records(records_to_csv(table, WITH_CLIPPED)), which)
    if which in ("fig1", "fig4"):
        assert "no momentum spectrum" in parsed
    elif which == "fig6a":
        # eps_eff + V0 is derived from the six-digit eps_eff cell, so its last
        # digit may round the other way
        pairs = list(zip(parsed.splitlines(), want.splitlines(), strict=True))
        for got, line in (pair for pair in pairs if pair[0] != pair[1]):
            (key, value), (want_key, want_value) = got.rsplit(",", 1), line.rsplit(",", 1)
            assert key == want_key
            assert abs(float(value) - float(want_value)) <= 1e-5 * float(want_value)
    else:
        assert parsed == want
    if which == "fig3":
        assert want.startswith(
            "MissingGridPoint: record E/V0=1e-06, d=0.1 nm is missing t_ph_s"
        )
    else:
        assert "# clipping: " in want


@pytest.mark.parametrize(
    "which, first_gaps, second_gap, named",
    [
        ("fig2", ("t_eff_s", "eps_eff_ev"), "v_rms", "eps_eff_eV"),
        ("fig3", ("t_bl_s", "t_dw_numeric_s"), "e_ev", "t_dw_s"),
    ],
)
def test_the_first_incomplete_record_in_row_order_is_named(
    which, first_gaps, second_gap, named
):
    # the first incomplete record lacks two late columns, the second an early
    # one; a check that went column by column would name the second record
    full = evaluate_point(SweepConfig(), 0.5, 0.5)
    first = replace(full, d_nm=0.4, **dict.fromkeys(first_gaps))
    second = replace(full, d_nm=0.6, **{second_gap: None})
    records = [full, first, second]
    with pytest.raises(MissingGridPoint) as err:
        emit(records, which)
    assert str(err.value).startswith(f"record E/V0=0.5, d=0.4 nm is missing {named} (")
    assert outcome(per_cell_emit, records, which) == f"MissingGridPoint: {err.value}"


@pytest.mark.parametrize(
    "value", [*EDGE_VALUES, *map(np.float64, EDGE_VALUES)], ids=repr
)
def test_edge_values_format_as_before(value):
    assert _fmt(value) == per_cell_fmt(value)
    assert _cells(np.array([1.0, value, 2.0])) == ["1", per_cell_fmt(value), "2"]


def test_zero_of_either_sign_is_a_bare_zero():
    assert _fmt(-0.0) == _fmt(0.0) == "0"
    assert _cells(np.array([-0.0, 0.0])) == ["0", "0"]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_values_are_refused(bad):
    for value in (bad, np.float64(bad)):
        with pytest.raises(FloatingPointError, match="non-finite"):
            _fmt(value)
    with pytest.raises(FloatingPointError, match="non-finite"):
        _cells(np.array([1.0, 2.0, bad, 3.0]))
