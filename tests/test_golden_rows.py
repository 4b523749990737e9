"""The CSV data rows the tool emits, pinned by digest.

A change that moves any digit of a data row (a line not starting with '#')
fails here. The digests live in ``perfbench/golden.json``, next to the
benchmark that checks the same rows on every pass; update them only with a
change that announces new data rows.
"""

import hashlib
import json
from pathlib import Path

import pytest

from tunneltimes.evaluation import FIGURE_IDS
from tunneltimes.sweep import (
    SweepConfig,
    emit_figure_data,
    emit_table1,
    records_to_csv,
    run_sweep,
)

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text(
        encoding="utf-8"
    )
)["digests"]

DENSE = SweepConfig(
    e_over_v0_grid=tuple(i / 100.0 for i in range(1, 100)),
    d_nm_grid=tuple(i / 10.0 for i in range(1, 11)),
)


def digest(text: str) -> str:
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    return hashlib.sha256("".join(row + "\n" for row in rows).encode()).hexdigest()


@pytest.fixture(scope="module")
def default_outputs():
    cfg = SweepConfig()
    records = run_sweep(cfg)
    outputs = {"sweep": records_to_csv(records, cfg), "table1": emit_table1(records, cfg)}
    outputs.update((fig, emit_figure_data(records, fig, cfg)) for fig in FIGURE_IDS)
    return outputs


@pytest.mark.parametrize("output", ["sweep", "table1", *FIGURE_IDS])
def test_default_grid_rows(default_outputs, output):
    assert digest(default_outputs[output]) == GOLDEN["paper-figures"][output]


def test_dense_grid_sweep_rows():
    text = records_to_csv(run_sweep(DENSE), DENSE)
    assert digest(text) == GOLDEN["dense-sweep"]["sweep"]
