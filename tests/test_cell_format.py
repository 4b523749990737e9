"""CSV cells formatted by column agree with the one-cell-at-a-time route.

The per-record emitters read and format each column from all records at
once, the curve figures check every curve for finiteness at once, and each
K or x grid a sweep shares is formatted only once. ``oracles.per_cell_emit``
formats every cell on its own, in row order, as the emitters once did; the
text, or the MissingGridPoint raised instead, must be identical for every
emitter, on the dense acceptance grid and on rows joined from sweeps whose
cutoffs, heights and thicknesses differ, as a table and as a list of records.
"""

import sys

import numpy as np
import pytest

from oracles import (
    assert_same_text,
    evaluate_point,
    join_rows,
    outcome,
    per_cell_emit,
    per_cell_fmt,
    replace,
)
from tunneltimes.errors import MissingGridPoint
from tunneltimes.evaluation import FIGURE_IDS, _fmt
from tunneltimes.sweep import (
    SweepConfig,
    SweepTable,
    _cells,
    emit_figure_data,
    emit_table1,
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
def mixed_table():
    def key(row):
        rec = row[0][row[1]]
        return rec.d_nm, rec.cutoff, rec.e_over_v0

    rows = [(table, i) for table in map(run_sweep, MIXED) for i in range(len(table))]
    # rows of one thickness but different cutoffs follow each other, so a
    # grid filed under the wrong key shows up in the next row's curve
    rows.sort(key=key)
    # and one clipped phase stencil, for the metadata line and an empty cell:
    # a row the point path writes, and draws
    clipped = run_sweep(SweepConfig(e_over_v0_grid=(1e-6,), d_nm_grid=(0.5,)))
    assert clipped[0].t_ph_numeric_s is None
    assert clipped.column("normalization")[0] > 0.0
    return join_rows(rows + [(clipped, 0)])


@pytest.mark.parametrize("which", EMITTERS)
def test_dense_grid_matches_the_per_cell_route(dense_records, which):
    assert_same_text(emit(dense_records, which), per_cell_emit(dense_records, which))


@pytest.mark.parametrize("which", EMITTERS)
def test_mixed_grids_match_the_per_cell_route(mixed_table, which):
    mixed_records = list(mixed_table)
    assert len({r.cutoff for r in mixed_records}) == 3
    want = outcome(per_cell_emit, mixed_table, which)
    if which in MIXED_REFUSED:
        assert want.startswith("MissingGridPoint: ")
    else:
        assert "# clipping: " in want
    assert_same_text(outcome(emit, mixed_table, which), want)
    # the same rows as a list of records: a list has no curve columns, so
    # fig1 and fig4 name its first record
    listed = outcome(per_cell_emit, mixed_records, which)
    if which in ("fig1", "fig4"):
        assert listed == (
            "MissingGridPoint: record E/V0=0.1, d=0.2 nm has no momentum spectrum to "
            "draw curves from (error='')"
        )
    else:
        assert listed == want
    assert_same_text(outcome(emit, mixed_records, which), listed)


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
    # a list, re-parsed or not, has no curve columns, so only the curve
    # figures refuse it, naming its first record
    table = clipped_table
    assert isinstance(table, SweepTable)
    want = outcome(emit, table, which)
    listed = outcome(emit, list(table), which)
    parsed = outcome(emit, parse_records(records_to_csv(table, WITH_CLIPPED)), which)
    if which in ("fig1", "fig4"):
        assert listed == parsed == (
            "MissingGridPoint: record E/V0=1e-06, d=0.1 nm has no momentum spectrum to "
            "draw curves from (error='')"
        )
        assert not want.startswith("MissingGridPoint")
        return
    assert listed == want
    if which == "fig6a":
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
