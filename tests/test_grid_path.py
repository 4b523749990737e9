"""The sweep's array pass against the point path it stands in for.

run_sweep() evaluates the usual grid points with array kernels and hands the
others to the point path; both must give the same records. Thin barriers and
narrow windows, where the moments take their series route, are usual. Each seeded
config below is swept both ways, and the sweep CSV, fig1 and fig4 must match
byte for byte, every note and error cell included, with every numeric column
within 1e-13 relative. fig1 and fig4, drawn from the table's columns, must
also match the per-cell route of oracles.per_cell_emit.
"""

import ast
import math
import random
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    CURVE_COLUMNS,
    assert_same_text,
    evaluate_point,
    join_rows,
    mp_window_moments,
    outcome,
    per_cell_emit,
    point_table,
)
from tunneltimes import cli, evaluation, sweep
from tunneltimes.barrier import (
    BarrierProblem,
    _coefficients,
    _wavenumber_pair,
    stationary_solution,
)
from tunneltimes.constants import (
    ELECTRON_MASS,
    EV_TO_JOULE,
    HBAR,
    energy_ev_to_si,
    length_nm_to_si,
)
from tunneltimes.errors import DomainError, MissingGridPoint
from tunneltimes.momentum import MomentumSpectrum, _moments, _series_route, momentum_spectrum
from tunneltimes.numerics import GRID
from tunneltimes.evaluation import NOTE_NO_CROSSING
from tunneltimes.sweep import (
    RECORD_COLUMNS,
    SweepConfig,
    SweepRecord,
    config_lines,
    emit_figure_data,
    records_to_csv,
    run_sweep,
)

REL_TOL = 1e-13


def _kappa(e_ratio, v0_ev):
    gap = (1.0 - e_ratio) * v0_ev * EV_TO_JOULE
    return math.sqrt(2.0 * ELECTRON_MASS * gap) / HBAR


def _grid(rng, count, low, high, log=True):
    values = set()
    while len(values) < count:
        values.add(10.0 ** rng.uniform(low, high) if log else rng.uniform(low, high))
    return tuple(sorted(values))


def seeded_configs(count=50):
    """Configs over the accepted domain, in five kinds of window and height."""
    rng = random.Random(10_2026)
    configs = []
    for i in range(count):
        v0 = rng.uniform(0.5, 25.0)
        ratios = _grid(rng, 5, 0.01, 0.99, log=False)
        ratios = tuple(sorted(set(ratios) | {rng.choice((1e-6, 3e-5, 1e-3)),
                                             rng.choice((0.999, 0.99999, 0.9999999))}))
        d_nm = _grid(rng, 5, -3.0, 3.0)
        kind = i % 5
        if kind == 4:  # heights where D and k kappa D overflow, windows near kappa
            v0 = 10.0 ** rng.uniform(60.0, 130.0)
            cutoff = _kappa(0.5, v0) * 10.0 ** rng.uniform(-0.5, 0.5)
        elif kind == 0:  # the default window
            cutoff = 7.5e10
        elif kind == 1:  # c d <= 2 on the thicker half of the grid
            cutoff = rng.uniform(0.2, 2.0) / (d_nm[2] * 1e-9)
        elif kind == 2:  # c d of 2 to 3 where kappa d is large
            cutoff = rng.uniform(2.0, 3.0) / (d_nm[-1] * 1e-9)
        else:  # superluminal on the thinnest barriers
            cutoff = 10.0 ** rng.uniform(12.5, 14.0)
        configs.append(SweepConfig(v0_ev=v0, e_over_v0_grid=ratios, d_nm_grid=d_nm,
                                   cutoff=cutoff))
    return configs


def point_by_point(cfg):
    return [
        evaluate_point(cfg, e_ratio, d_nm)
        for d_nm in cfg.d_nm_grid
        for e_ratio in cfg.e_over_v0_grid
    ]


def assert_same_records(grid, points, cfg):
    assert len(grid) == len(points)
    for a, b in zip(grid, points):
        for attr in RECORD_COLUMNS.values():
            x, y = getattr(a, attr), getattr(b, attr)
            if isinstance(y, float) and isinstance(x, float):
                assert abs(x - y) <= REL_TOL * abs(y), (attr, a.e_over_v0, a.d_nm, x, y)
            else:
                assert x == y, (attr, a.e_over_v0, a.d_nm, x, y)
    assert records_to_csv(grid, cfg) == records_to_csv(points, cfg)
    # the curves of the rows the point path can draw, from a table the
    # fallback row writer wrote whole, whose records are the points'
    table = point_table(cfg)
    assert list(table) == points
    drawable = drawable_rows(table)
    assert drawable == drawable_rows(grid)
    for fig in ("fig1", "fig4"):
        assert_same_text(
            emit_figure_data(join_rows([(grid, i) for i in drawable]), fig),
            emit_figure_data(join_rows([(table, i) for i in drawable]), fig),
        )


def drawable_rows(table):
    """The rows of ``table`` the curve figures can draw."""
    return np.flatnonzero(~np.isnan(table.column("normalization"))).tolist()


def point_calls(monkeypatch):
    """The (E/V0, d) of every point run_sweep() leaves to the point path."""
    calls = []
    point = sweep._point
    monkeypatch.setattr(
        sweep, "_point", lambda cfg, r, d: calls.append((r, d)) or point(cfg, r, d)
    )
    return calls


def accepted_problems(cfg):
    """Row -> problem, for each row of ``cfg``'s sweep that BarrierProblem
    accepts."""
    problems = {}
    for row, (d_nm, r) in enumerate((d, r) for d in cfg.d_nm_grid for r in cfg.e_over_v0_grid):
        try:
            problems[row] = BarrierProblem.from_ev_nm(r * cfg.v0_ev, cfg.v0_ev, d_nm, cfg.cutoff)
        except DomainError:
            pass
    return problems


def grid_lanes(table, cfg, rows):
    """The array pass's kernels over ``rows`` of ``table``, by numerics.GRID:
    (k, kappa), the coefficients (t, S, A, B, R, A e^{kappa d}, B e^{-kappa d})
    and the two moments, each indexed by position in ``rows``."""
    energy = energy_ev_to_si(table.column("e_ev")[rows])
    d = length_nm_to_si(table.column("d_nm")[rows])
    with np.errstate(all="ignore"):
        k, kappa = _wavenumber_pair(energy, energy_ev_to_si(cfg.v0_ev), GRID)
        coefficients = t, S, A, B, _, a_d, b_d = _coefficients(k, kappa, d, GRID)
        moments = _moments(k, kappa, d, cfg.cutoff, t, S, A, B, a_d, b_d, GRID)
    return (k, kappa), coefficients, moments


def series_route_points(cfg):
    """Accepted grid points on the moments' series route -> whether kappa d
    alone puts them there (else c d does)."""
    points = {}
    for d_nm in cfg.d_nm_grid:
        for r in cfg.e_over_v0_grid:
            try:
                problem = BarrierProblem.from_ev_nm(r * cfg.v0_ev, cfg.v0_ev, d_nm, cfg.cutoff)
            except DomainError:
                continue
            d = problem.thickness
            kappa_d = stationary_solution(problem).kappa * d
            if _series_route(kappa_d, cfg.cutoff * d):
                points[(r, d_nm)] = _series_route(kappa_d, math.inf)
    return points


CONFIGS = seeded_configs()
CONFIG_IDS = [f"V0={c.v0_ev:.3g},Kprime={c.cutoff:.3g}" for c in CONFIGS]


@pytest.mark.parametrize("cfg", CONFIGS, ids=CONFIG_IDS)
def test_grid_pass_matches_the_point_path(cfg):
    assert_same_records(run_sweep(cfg), point_by_point(cfg), cfg)


@pytest.mark.parametrize("cfg", CONFIGS, ids=CONFIG_IDS)
def test_usual_series_route_points_take_the_array_pass(cfg, monkeypatch):
    # a series-route point the point path evaluates cleanly (no note but
    # no_crossing, no error, every cell finite) needs no evaluate_point() call
    calls = point_calls(monkeypatch)
    run_sweep(cfg)
    calls = set(calls)
    for r, d_nm in series_route_points(cfg):
        rec = evaluate_point(cfg, r, d_nm)
        cells = [getattr(rec, attr) for attr in RECORD_COLUMNS.values()]
        clean = rec.error == "" and rec.note in ("", NOTE_NO_CROSSING) and all(
            math.isfinite(v) for v in cells if isinstance(v, float)
        )
        if clean:
            assert (r, d_nm) not in calls


def test_the_seeded_configs_reach_both_arms_of_the_series_route():
    # the dense grid's c d is at least 7.5, so only these reach c d <= 2
    arms = [arm for cfg in CONFIGS for arm in series_route_points(cfg).values()]
    assert True in arms and False in arms


DENSE = SweepConfig(
    e_over_v0_grid=tuple(i / 100 for i in range(1, 100)),
    d_nm_grid=tuple(i / 10 for i in range(1, 11)),
)


@pytest.mark.parametrize(
    "cfg", [SweepConfig(), DENSE, *CONFIGS], ids=["default", "dense", *CONFIG_IDS]
)
def test_the_grid_phase_time_is_the_point_paths_bit_for_bit(cfg):
    # the array pass runs the point path's stencil once per energy, each
    # thickness by the point's operations, so no phase time differs at all
    grid = [rec.t_ph_numeric_s for rec in run_sweep(cfg)]
    assert grid == [rec.t_ph_numeric_s for rec in point_by_point(cfg)]


@pytest.mark.parametrize(
    "cfg, thin_points", [(DENSE, 12), (SweepConfig(), 3)], ids=["dense", "default"]
)
def test_no_point_of_the_dense_or_default_grid_takes_the_point_path(
    cfg, thin_points, monkeypatch
):
    # kappa d < 1/2 at d = 0.1 nm near the barrier top (12 dense points and 3
    # default ones) takes the series moments and the edge-form dwell time,
    # which are array kernels too
    calls = point_calls(monkeypatch)
    run_sweep(cfg)
    thin = [
        (r, d)
        for d in cfg.d_nm_grid
        for r in cfg.e_over_v0_grid
        if _kappa(r, cfg.v0_ev) * d * 1e-9 < 0.5
    ]
    assert calls == [] and len(thin) == thin_points


#: Grids where every lane takes the series route or borders it: kappa d from
#: about 1e-7 to 3 under the default window, whose edge c d runs from 1.5e-4
#: (no tail past the centre) to 22.5 (a tail), and a window of c d at most 1
#: over kappa d up to about 1100, where the centre's T_p are summed or closed.
THIN_CONFIGS = {
    "thin": SweepConfig(
        e_over_v0_grid=(0.5, 0.9, 0.99, 0.999, 0.9999, 0.99998),
        d_nm_grid=(2e-6, 1e-3, 0.01, 0.03, 0.1, 0.3),
    ),
    "narrow": SweepConfig(
        e_over_v0_grid=(0.1, 0.5, 0.9, 0.99), d_nm_grid=(0.1, 1.0, 10.0, 100.0), cutoff=1e7
    ),
}


def test_series_route_lanes_match_mpmath(monkeypatch):
    # the array pass's series lanes against the 40-digit oracle at
    # test_series_route_matches_mpmath's bound, and against the point path
    pytest.importorskip("mpmath")
    calls = point_calls(monkeypatch)
    kinds = set()
    smallest = math.inf
    for cfg in THIN_CONFIGS.values():
        table = run_sweep(cfg)
        assert calls == []
        points, oracles = [], []
        for rec in table:
            problem = BarrierProblem.from_ev_nm(rec.e_ev, cfg.v0_ev, rec.d_nm, cfg.cutoff)
            d = problem.thickness
            kappa_d, edge = stationary_solution(problem).kappa * d, cfg.cutoff * d
            if _series_route(kappa_d, edge):
                kinds.add("tail" if edge > 2.0 else "closed" if kappa_d > 64.0 else "centre")
                smallest = min(smallest, kappa_d)
            point = momentum_spectrum(problem)
            points.append((point.normalization, point.second_moment))
            oracles.append(mp_window_moments(problem))
        # both moments of the lanes the sweep wrote its normalization from
        _, _, lanes = grid_lanes(table, cfg, list(range(len(table))))
        assert np.array_equal(lanes[0], table.column("normalization"))
        for got, at_point, oracle in zip(lanes.T.tolist(), points, oracles):
            for value, x, y in zip(got, at_point, oracle):
                assert abs(value - y) <= 1e-12 * y
                assert abs(value - x) <= 1e-13 * x
    assert kinds == {"tail", "centre", "closed"} and smallest < 2e-7


@pytest.mark.parametrize("cfg", [DENSE, *CONFIGS], ids=["dense", *CONFIG_IDS])
def test_records_carry_the_point_paths_problem_and_solution(cfg, monkeypatch):
    # the table's curve columns, from the array pass or written by the
    # fallback row writer, against the point path's; and on the rows the
    # array pass wrote, its kernels against the point's
    calls = point_calls(monkeypatch)
    table = run_sweep(cfg)
    problems = accepted_problems(cfg)
    assert np.isnan(table.column("normalization")[[
        row for row in range(len(table)) if row not in problems
    ]]).all()
    for row, problem in problems.items():
        _, curves, _ = evaluation._evaluate(problem)
        grid = {name: table.column(name).item(row) for name in CURVE_COLUMNS}
        if math.isnan(curves["normalization"]):
            assert math.isnan(grid["normalization"])
            continue
        assert grid["kappa"] == curves["kappa"]
        for name in ("A", "B", "a_d", "b_d"):
            assert abs(grid[name] - curves[name]) <= 1e-14 * abs(curves[name])
        norm = curves["normalization"]
        assert abs(grid["normalization"] - norm) <= REL_TOL * norm
    fallbacks = set(calls)
    rows = [row for row in problems if (table[row].e_over_v0, table[row].d_nm) not in fallbacks]
    (k, kappa), coefficients, moments = grid_lanes(table, cfg, rows)
    for lane, row in enumerate(rows):
        sol = stationary_solution(problems[row])
        assert (k[lane], kappa[lane]) == (sol.k, sol.kappa)
        for x, y in zip(coefficients, (sol.t, sol.S, sol.A, sol.B, sol.R, sol.a_d, sol.b_d)):
            assert abs(x[lane] - y) <= 1e-14 * abs(y)
        point = momentum_spectrum(problems[row])
        for x, y in zip(moments[:, lane], (point.normalization, point.second_moment)):
            assert abs(x - y) <= REL_TOL * y


def count_builds(monkeypatch):
    """Counts of the SweepRecords and MomentumSpectrums built, and of the
    table rows asked for ("row")."""
    built = Counter()
    for cls in (SweepRecord, MomentumSpectrum):
        init = cls.__init__

        def counted(self, *args, _init=init, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    row = sweep.SweepTable.__getitem__
    monkeypatch.setattr(
        sweep.SweepTable, "__getitem__", lambda self, i: built.update(["row"]) or row(self, i)
    )
    return built


def test_the_sweep_command_builds_records_only_at_fallback_points(monkeypatch, tmp_path):
    # the array pass writes all 990 dense points into the table's columns and
    # the CSV is read from them: no evaluate_point() call, and no record,
    # spectrum or table row is built
    built = count_builds(monkeypatch)
    calls = point_calls(monkeypatch)
    config, out = tmp_path / "dense.cfg", tmp_path / "sweep.csv"
    config.write_text("\n".join(config_lines(DENSE)) + "\n", encoding="utf-8")
    assert cli.main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    assert calls == []
    assert built == Counter()
    assert out.read_text(encoding="utf-8") == records_to_csv(point_by_point(DENSE), DENSE)


def test_the_figures_command_draws_curves_without_building_records(monkeypatch, tmp_path):
    # fig1 and fig4 are drawn from the table's columns: the figures build no
    # record, spectrum or table row, as the sweep builds none
    built = count_builds(monkeypatch)
    config = tmp_path / "dense.cfg"
    config.write_text("\n".join(config_lines(DENSE)) + "\n", encoding="utf-8")
    argv = ["figures", "--config", str(config), "--which", "all", "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    assert built == Counter()
    table = run_sweep(DENSE)
    for fig in ("fig1", "fig4"):
        text = (tmp_path / f"{fig}.csv").read_text(encoding="utf-8")
        assert text == emit_figure_data(table, fig, DENSE)


@pytest.mark.parametrize("cfg", CONFIGS, ids=CONFIG_IDS)
@pytest.mark.parametrize("fig", ["fig1", "fig4"])
def test_curve_figures_match_the_per_record_route(cfg, fig):
    # the emitter against the per-cell route, which draws each curve cell by
    # cell from its row of the table's curve columns: series-route fallbacks,
    # superluminal windows that still draw, thick rows whose edge modes
    # underflow to 0, and heights up to 1e130 eV; the whole table, which may
    # hold an undrawable row, and its drawable rows
    table = run_sweep(cfg)
    drawable = join_rows([(table, i) for i in drawable_rows(table)])
    for records in (table, drawable):
        want = outcome(per_cell_emit, records, fig)
        assert_same_text(outcome(emit_figure_data, records, fig), want)
    assert not want.startswith("MissingGridPoint")


@pytest.mark.parametrize("fig", ["fig1", "fig4"])
def test_the_first_undrawable_row_in_row_order_is_named(fig):
    # E/V0 = 0.9999999 is refused at every thickness, so rows 1, 3 and 5 of
    # the table have no spectrum; row 1 is named
    cfg = SweepConfig(e_over_v0_grid=(0.5, 0.9999999), d_nm_grid=(0.2, 0.5, 1.0))
    table = run_sweep(cfg)
    assert np.isnan(table.column("normalization")).tolist() == [False, True] * 3
    with pytest.raises(MissingGridPoint) as err:
        emit_figure_data(table, fig)
    assert str(err.value).startswith(
        "record E/V0=0.9999999, d=0.2 nm has no momentum spectrum to draw curves from"
    )
    assert outcome(per_cell_emit, table, fig) == f"MissingGridPoint: {err.value}"


@pytest.mark.parametrize("module", [sweep, evaluation], ids=lambda module: module.__name__)
def test_the_sweep_imports_no_private_constant(module):
    # a rule's bound lives beside the predicate or kernel that states it
    # (momentum._series_route, numerics._series_domain, depth._depth); a
    # sweep importing the bound could restate the rule and drift from it
    tree = ast.parse(Path(module.__file__).read_text())
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "tunneltimes")
        for alias in node.names
        if re.fullmatch(r"_[A-Z][A-Z0-9_]*", alias.name)
    ]
    assert imported == []
