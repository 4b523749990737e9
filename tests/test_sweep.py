import math
import random
import re

import numpy as np
import pytest

from oracles import (
    REFERENCE_DEPTHS_NM,
    TABLE_D_NM,
    evaluate_point,
    join_rows,
    per_cell_emit,
    point_table,
    replace,
)
from test_barrier import check_value_class
from test_point_pins import STDERR
from test_point_pins import run as run_point
from tunneltimes import evaluation, momentum, sweep
from tunneltimes.barrier import BarrierProblem
from tunneltimes.constants import EV_TO_JOULE, HBAR
from tunneltimes.errors import (
    DomainError,
    MissingGridPoint,
    NoConvergence,
    ParseError,
    ValidationError,
)
from tunneltimes.evaluation import FIGURE_IDS
from tunneltimes.sweep import (
    RECORD_COLUMNS,
    SweepConfig,
    emit_figure_data,
    SweepRecord,
    config_lines,
    emit_table1,
    evaluate,
    parse_config,
    parse_records,
    records_to_csv,
    run_sweep,
)

SMALL = SweepConfig(e_over_v0_grid=(0.1, 0.5, 0.9), d_nm_grid=(0.1, 0.5, 1.0))
DEFAULT_E, DEFAULT_D = SweepConfig().e_over_v0_grid, SweepConfig().d_nm_grid


@pytest.fixture(scope="module")
def default_records():
    return run_sweep(SweepConfig())


class TestParseConfig:
    def test_empty_text_gives_defaults(self):
        cfg = parse_config("")
        assert cfg.v0_ev == 10.0
        assert cfg.cutoff == 7.5e10
        assert cfg == SweepConfig()

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# a comment\n\nV0_eV=8 # trailing comment\n")
        assert cfg.v0_ev == 8.0

    def test_grids_and_quadrature_keys(self):
        cfg = parse_config("E_over_V0_grid=0.2,0.4\nd_nm_grid=0.5\n")
        assert cfg.e_over_v0_grid == (0.2, 0.4)
        assert cfg.d_nm_grid == (0.5,)
        # nothing is integrated numerically, so there is no quadrature to set
        for line in ("quad_method=gauss-legendre", "quad_points=64", "quad_rel_tol=1e-8"):
            with pytest.raises(ParseError, match="unknown key"):
                parse_config(f"d_nm_grid=0.5\n{line}\n")

    def test_malformed_number_reports_the_line(self):
        with pytest.raises(ParseError) as err:
            parse_config("V0_eV=abc")
        assert err.value.line == 1

    def test_missing_equals_reports_the_line(self):
        with pytest.raises(ParseError) as err:
            parse_config("V0_eV=10\njust words\n")
        assert err.value.line == 2

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError):
            parse_config("V1_eV=10")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ParseError):
            parse_config("V0_eV=10\nV0_eV=12\n")

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValidationError):
            parse_config("E_over_V0_grid=0.5,0.1")

    def test_out_of_regime_grid_rejected(self):
        with pytest.raises(ValidationError):
            parse_config("E_over_V0_grid=0.5,1.5")

    def test_empty_list_entry_reports_the_line(self):
        with pytest.raises(ParseError, match=r"^line 2: .*\(empty list entry\)$"):
            parse_config("V0_eV=10\nE_over_V0_grid=0.1,,0.5\n")

    def test_outputs_key_rejected(self):
        # the figures command picks its figures with --which
        for line in ("outputs=fig7", "outputs=table1,fig3"):
            with pytest.raises(ParseError, match="unknown key 'outputs'"):
                parse_config(f"d_nm_grid=0.5\n{line}\n")

    def test_phase_step_key_rejected(self):
        # the sweep takes the point path's DEFAULT_PHASE_STEP_EV
        with pytest.raises(ParseError, match=r"^line 1: unknown key 'phase_step_eV'$") as err:
            parse_config("phase_step_eV=1e-4")
        assert err.value.line == 1
        with pytest.raises(TypeError, match="phase_step_ev"):
            SweepConfig(phase_step_ev=1e-4)


class TestSweepConfig:
    @pytest.mark.parametrize(
        "field, value, key",
        [
            ("d_nm_grid", "12", "d_nm_grid"),
            ("e_over_v0_grid", "0.5", "E_over_V0_grid"),
            ("v0_ev", "10", "V0_eV"),
            ("cutoff", np.array([1e10, 2e10]), "Kprime"),
            ("d_nm_grid", 0.5, "d_nm_grid"),
            ("e_over_v0_grid", (0.1, "0.5"), "E_over_V0_grid"),
            ("v0_ev", None, "V0_eV"),
            ("cutoff", 1e10j, "Kprime"),
        ],
        ids=["string-grid", "string-ratio-grid", "string-height", "array-cutoff",
             "number-grid", "string-in-a-grid", "none-height", "complex-cutoff"],
    )
    def test_a_value_that_is_not_a_real_number_is_refused(self, field, value, key):
        # float() reads a string's digits, and a grid string by character
        with pytest.raises(ValidationError, match=f"^(each )?{key} (values? )?must be"):
            SweepConfig(**{field: value})

    @pytest.mark.parametrize("value", [math.inf, math.nan], ids=str)
    @pytest.mark.parametrize(
        "field", ["v0_ev", "cutoff", "d_nm_grid"]
    )
    def test_non_finite_values_rejected(self, field, value):
        # they used to sweep, and the config echo then refused to serialize
        with pytest.raises(ValidationError):
            SweepConfig(**{field: (value,) if field == "d_nm_grid" else value})

    @pytest.mark.parametrize(
        "name, grid", [("E_over_V0_grid", (0.0, 0.5)), ("d_nm_grid", (0.0, 1.0)),
                       ("d_nm_grid", (-1.0, 1.0))]
    )
    def test_grid_values_that_are_not_positive_rejected(self, name, grid):
        field = {"E_over_V0_grid": "e_over_v0_grid", "d_nm_grid": "d_nm_grid"}[name]
        with pytest.raises(ValidationError, match=f"^{name} values must be positive$"):
            SweepConfig(**{field: grid})

    def test_numpy_scalars_are_held_as_floats(self):
        # a numpy scalar would echo as np.float64(...), which parse_config()
        # refuses, and be quoted so in error cells
        cfg = SweepConfig(
            v0_ev=np.float64(10.0),
            e_over_v0_grid=tuple(np.array([0.01, 0.1234567])),
            d_nm_grid=tuple(np.logspace(-1.0, 3.0, 200)[100:101]),
            cutoff=np.float64(7.5e10),
        )
        scalars = (cfg.v0_ev, cfg.cutoff)
        assert all(type(v) is float for v in scalars + cfg.e_over_v0_grid + cfg.d_nm_grid)
        assert parse_config("\n".join(config_lines(cfg))) == cfg
        error = run_sweep(cfg)[0].error
        assert error.startswith("phase cross-check: numeric 6.6178") and "np." not in error

    def test_numpy_array_grids_are_held_as_their_values(self):
        grid = np.logspace(-1.0, 0.0, 5)
        cfg = SweepConfig(e_over_v0_grid=np.array([0.1, 0.5]), d_nm_grid=grid)
        assert cfg == SweepConfig(e_over_v0_grid=(0.1, 0.5), d_nm_grid=tuple(grid.tolist()))
        assert all(type(v) is float for v in cfg.d_nm_grid)
        for name in ("e_over_v0_grid", "d_nm_grid"):
            with pytest.raises(ValidationError, match="must not be empty"):
                SweepConfig(**{name: np.array([])})


class TestConfigEcho:
    def test_default_echo(self):
        assert config_lines(SweepConfig()) == [
            "V0_eV=10",
            "E_over_V0_grid=0.01,0.1,0.5,0.9,0.99",
            "d_nm_grid=0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1",
            "Kprime=7.5e+10",
        ]
        assert parse_config("\n".join(config_lines(SweepConfig()))) == SweepConfig()

    def test_echo_reads_back_exactly(self):
        # six significant digits would round V0, the first ratio and Kprime
        cfg = SweepConfig(
            v0_ev=7.123456789,
            e_over_v0_grid=(0.1234567, 0.5),
            cutoff=7.1234567e10,
        )
        lines = config_lines(cfg)
        assert "E_over_V0_grid=0.1234567,0.5" in lines
        assert parse_config("\n".join(lines)) == cfg


class TestRunSweep:
    def test_single_point_record(self):
        cfg = SweepConfig(e_over_v0_grid=(0.5,), d_nm_grid=(0.5,))
        (rec,) = run_sweep(cfg)
        assert rec.error == ""
        assert rec.s_abs2 + rec.r_abs2 == pytest.approx(1.0, abs=1e-12)
        eps_si = rec.eps_eff_ev * EV_TO_JOULE
        assert rec.xi == pytest.approx(
            2.0 * eps_si * rec.tau_eff_s / HBAR, rel=1e-6
        )

    def test_grid_order_and_count(self, default_records):
        cfg = SweepConfig()
        assert len(default_records) == len(cfg.e_over_v0_grid) * len(cfg.d_nm_grid)
        keys = [(rec.d_nm, rec.e_over_v0) for rec in default_records]
        assert keys == sorted(keys)

    def test_thin_barrier_rows_flag_no_crossing(self, default_records):
        thin = [rec for rec in default_records if rec.d_nm == 0.1]
        assert thin and all(rec.note == "no_crossing" for rec in thin)
        assert all(rec.s_nm is None and rec.xi is None for rec in thin)

    def test_point_failures_do_not_abort_the_sweep(self):
        # the second ratio sits inside the near-threshold guard band, so its
        # problem cannot even be constructed; the first one must still compute
        cfg = SweepConfig(e_over_v0_grid=(0.5, 0.9999999), d_nm_grid=(0.5,))
        good, bad = run_sweep(cfg)
        assert good.error == "" and good.s_abs2 is not None
        assert bad.error.startswith("problem:") and bad.s_abs2 is None

    @pytest.mark.parametrize("e_ratios", [None, tuple(i / 100.0 for i in range(1, 100))])
    def test_one_exponential_integral_call_per_sweep(self, monkeypatch, e_ratios):
        # the exponential sum takes E1 at z and -z of every lane in one call,
        # on the default 5x10 grid and on the dense 99x10 one alike
        calls = []
        e1_grid = momentum.scaled_e1_grid
        monkeypatch.setattr(momentum, "scaled_e1_grid", lambda z: calls.append(z) or e1_grid(z))
        cfg = SweepConfig() if e_ratios is None else SweepConfig(e_over_v0_grid=e_ratios)
        run_sweep(cfg)
        assert len(calls) == 1 and calls[0].size > 0

    def test_phase_stencil_clipping_is_noted(self):
        rec = evaluate_point(SweepConfig(), 1e-6, 0.5)
        assert rec.t_ph_numeric_s is None
        assert "phase_stencil_clipped" in rec.note
        assert rec.t_ph_analytic_s is not None  # the analytic route survives

    def test_one_phase_stencil_call_per_energy(self, monkeypatch):
        # the array pass runs the stencil once per energy over all ten
        # thicknesses of the dense grid
        calls = []
        stencil = evaluation._phase_stencil
        monkeypatch.setattr(
            evaluation, "_phase_stencil",
            lambda e0, hi, ds: calls.append(len(ds)) or stencil(e0, hi, ds),
        )
        run_sweep(SweepConfig(e_over_v0_grid=tuple(i / 100.0 for i in range(1, 100))))
        assert calls == [10] * 99

    def test_a_clipped_energy_is_noted_at_every_thickness(self, capsys):
        # E = 5e-5 eV is closer than the 1e-4 eV step to 0; each of its
        # thicknesses has an empty phase cell and the note, and the point
        # command quotes the pinned message at each
        cfg = SweepConfig(e_over_v0_grid=(5e-6, 0.5), d_nm_grid=(0.1, 0.5, 1.0, 30.0))
        table = run_sweep(cfg)
        for rec in table:
            clipped = rec.e_over_v0 == 5e-6
            assert (rec.t_ph_numeric_s is None) is clipped
            assert ("phase_stencil_clipped" in rec.note.split(";")) is clipped
            assert rec.error == "" and rec.t_ph_analytic_s is not None
        text = records_to_csv(table, cfg)
        assert "# clipping: phase-time stencil left the energy domain at " + ", ".join(
            f"(E/V0=5e-06, d={d} nm)" for d in ("0.1", "0.5", "1", "30")
        ) in text.splitlines()
        pinned = STDERR["times --E-eV 5e-5 --d-nm 0.5"]
        for d_nm in ("0.1", "0.5", "1", "30"):
            assert run_point(["times", "--E-eV", "5e-5", "--d-nm", d_nm])[::2] == pinned


@pytest.mark.parametrize(
    "cls, args, pinned, other",
    [
        (SweepRecord, (0.5, 1.0, 5.0, 10.0, 7.5e10),
         "SweepRecord(e_over_v0=0.5, d_nm=1.0, e_ev=5.0, v0_ev=10.0, cutoff=75000000000.0, "
         "s_abs2=None, r_abs2=None, k_rms=None, v_rms=None, t_eff_s=None, eps_eff_ev=None, "
         "t_ph_numeric_s=None, t_ph_analytic_s=None, t_dw_numeric_s=None, "
         "t_dw_analytic_s=None, t_bl_s=None, s_nm=None, tau_eff_s=None, xi=None, note='', "
         "error='')", SweepConfig()),
        (SweepConfig, (10.0, (0.5,), (0.1, 1.0)),
         "SweepConfig(v0_ev=10.0, e_over_v0_grid=(0.5,), d_nm_grid=(0.1, 1.0), "
         "cutoff=75000000000.0)", SweepRecord(0.5, 1.0, 5.0, 10.0, 7.5e10)),
    ],
    ids=["SweepRecord", "SweepConfig"],
)
def test_value_class_contract(cls, args, pinned, other):
    check_value_class(cls, lambda: args, pinned, other)


class TestEvaluate:
    def test_the_spectrum_is_not_part_of_the_record_value(self):
        # a record is its cells, in column order; the curves are the sweep
        # table's columns
        rec = evaluate_point(SweepConfig(), 0.5, 0.5)
        assert list(vars(rec)) == list(RECORD_COLUMNS.values())
        assert not hasattr(rec, "spectrum")
        assert rec == SweepRecord(**vars(rec)) and hash(rec) == hash(SweepRecord(**vars(rec)))

    def test_matches_the_sweep_record(self):
        cfg = SweepConfig()
        problem = BarrierProblem.from_ev_nm(5.0, 10.0, 0.5)
        rec, caught = evaluate(problem, cfg)
        assert caught == []
        # filed under the problem's own grid point, which reads back as given
        assert (rec.e_over_v0, rec.d_nm) == (0.5, 0.5)
        assert rec == evaluate_point(cfg, 0.5, 0.5)

    @pytest.mark.parametrize(
        "cfg", [SweepConfig(), SweepConfig(cutoff=1e10), SweepConfig(v0_ev=5.0)],
        ids=["both", "height", "cutoff"],
    )
    def test_a_config_that_is_not_the_problems_is_refused(self, cfg):
        # the record would file the problem's numbers under cfg's V0 and
        # cutoff, and fig1 would draw its density over cfg's window
        problem = BarrierProblem.from_ev_nm(2.0, 5.0, 1.0, 1e10)
        with pytest.raises(ValidationError, match="must be cfg's V0_eV and Kprime"):
            evaluate(problem, cfg)
        rec, _ = evaluate(problem, SweepConfig(v0_ev=5.0, cutoff=1e10))
        assert (rec.e_ev, rec.v0_ev, rec.cutoff) == (2.0, 5.0, 1e10)

    def test_a_failure_concerns_only_its_own_columns(self):
        # a clipped stencil leaves t_ph_numeric_s empty and no other cell, so
        # the momentum and depth commands still print their columns there
        problem = BarrierProblem.from_ev_nm(5e-5, 10.0, 0.5)
        values, curves, failures = evaluation._evaluate(problem)
        assert [(type(exc), concerns) for exc, concerns in failures] == [
            (DomainError, ("t_ph_numeric_s",))
        ]
        assert values["t_ph_numeric_s"] is None and values["note"] == "phase_stencil_clipped"
        assert None not in [values[name] for name in ("v_rms", "t_bl_s", "s_nm", "xi")]
        assert curves["normalization"] > 0.0

    def test_tau_and_xi_need_the_kinematics(self):
        # a superluminal window fails the kinematics; the depth stands alone
        problem = BarrierProblem.from_ev_nm(5.0, 10.0, 1.0, cutoff=1e15)
        rec, caught = evaluate(problem, SweepConfig(cutoff=1e15))
        assert [type(exc) for exc in caught] == [DomainError]
        assert rec.error.startswith("momentum: rms tunneling velocity ")
        assert rec.s_nm is not None and rec.tau_eff_s is None and rec.xi is None
        assert rec.v_rms is None and rec.t_bl_s is not None
        failures = evaluation._evaluate(problem)[2]
        assert set(failures[0][1]) == {
            "k_rms", "v_rms", "t_eff_s", "eps_eff_ev", "tau_eff_s", "xi"
        }

    def test_clipped_stencil_is_the_only_failure_on_a_thick_barrier(self):
        # kappa*d is about 486, where sinh(kappa d)^2 is not a double; the
        # scaled closed forms still give both analytic times
        problem = BarrierProblem.from_ev_nm(5e-5, 10.0, 30.0)
        rec, caught = evaluate(problem, SweepConfig())
        assert [type(exc) for exc in caught] == [DomainError]
        assert rec.note == "phase_stencil_clipped" and rec.t_eff_s is not None
        assert rec.t_ph_analytic_s > 0.0 and rec.t_dw_analytic_s > 0.0

    def test_each_point_is_solved_once(self, monkeypatch):
        from tunneltimes import barrier

        solves = []
        for module in (barrier, evaluation):
            solve = module._coefficients
            monkeypatch.setattr(
                module,
                "_coefficients",
                lambda *args, solve=solve: solves.append(args) or solve(*args),
            )
        evaluate_point(SweepConfig(), 0.5, 0.5)
        # the phase stencil takes S at E +/- h from its closed form
        assert len(solves) == 1

    def test_non_finite_analytic_route_fails_the_cross_check(self, monkeypatch):
        # a NaN closed form is something no comparison can certify
        closed = evaluation._closed_times
        monkeypatch.setattr(
            evaluation, "_closed_times", lambda *args: (math.nan, *closed(*args)[1:])
        )
        problem = BarrierProblem.from_ev_nm(5.0, 10.0, 0.5)
        rec, caught = evaluate(problem, SweepConfig())
        # the cell stays empty; the cross-check quotes the value
        assert rec.t_ph_analytic_s is None
        assert [type(exc) for exc in caught] == [NoConvergence]
        assert rec.error.startswith("phase cross-check: numeric ")
        assert "vs analytic nan" in rec.error

    def test_infinite_analytic_route_fails_the_cross_check(self, monkeypatch):
        # |n - inf| <= tol * inf would hold
        closed = evaluation._closed_times
        monkeypatch.setattr(
            evaluation, "_closed_times", lambda *args: (math.inf, *closed(*args)[1:])
        )
        problem = BarrierProblem.from_ev_nm(5.0, 10.0, 0.5)
        rec, caught = evaluate(problem, SweepConfig())
        assert rec.t_ph_analytic_s is None
        assert [type(exc) for exc in caught] == [NoConvergence]
        assert rec.error == (
            f"phase cross-check: numeric {rec.t_ph_numeric_s!r} vs analytic inf"
        )

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=str)
    def test_other_non_finite_value_is_an_error_of_its_own(self, monkeypatch, bad):
        # no cross-check quotes the BL time, so its empty cell is explained
        # by an entry of its own
        monkeypatch.setattr(evaluation, "_bl_time", lambda kappa, d: bad)
        problem = BarrierProblem.from_ev_nm(5.0, 10.0, 0.5)
        rec, caught = evaluate(problem, SweepConfig())
        assert rec.t_bl_s is None and rec.t_ph_analytic_s is not None
        assert [type(exc) for exc in caught] == [FloatingPointError]
        assert rec.error == "t_bl_s: refusing to serialize a non-finite value"
        assert parse_records(records_to_csv([rec]))[0].t_bl_s is None

    def test_a_time_whose_cross_check_is_skipped_is_an_error_of_its_own(self, monkeypatch):
        # the clipped stencil empties the numeric phase time, so the phase
        # cross-check does not run and quotes neither time: a non-finite
        # analytic time is explained by an entry of its own
        closed = evaluation._closed_times
        monkeypatch.setattr(
            evaluation, "_closed_times", lambda *args: (math.nan, *closed(*args)[1:])
        )
        rec, caught = evaluate(BarrierProblem.from_ev_nm(5e-5, 10.0, 1.0), SweepConfig())
        assert rec.note == "phase_stencil_clipped"
        assert rec.t_ph_numeric_s is None and rec.t_ph_analytic_s is None
        assert [type(exc) for exc in caught] == [DomainError, FloatingPointError]
        assert rec.error == "t_ph_analytic_s: refusing to serialize a non-finite value"


class TestNeverAborts:
    """A sweep writes every accepted config, whatever its values come out as."""

    def test_nan_analytic_time_at_an_extreme_height_is_an_empty_cell(self):
        # the phase closed form underflows to 0/0 at E/V0 0.99 and V0 4e134 eV
        # (ROADMAP item 2); the row is written, with every cell finite or empty
        cfg = parse_config("V0_eV=4e134\nE_over_V0_grid=0.5,0.99\nd_nm_grid=1\nKprime=1e40\n")
        records = parse_records(records_to_csv(run_sweep(cfg), cfg))
        assert len(records) == 2
        for rec in records:
            values = [v for v in vars(rec).values() if isinstance(v, float)]
            assert all(map(math.isfinite, values))

    def test_seeded_extreme_configs_never_abort(self):
        rng = random.Random(12)
        for _ in range(300):
            cfg = SweepConfig(
                v0_ev=10.0 ** rng.uniform(120.0, math.log10(5e134)),
                e_over_v0_grid=tuple(sorted(rng.uniform(0.001, 0.999) for _ in range(3))),
                d_nm_grid=tuple(sorted(10.0 ** rng.uniform(-3.0, 3.0) for _ in range(2))),
                cutoff=10.0 ** rng.uniform(10.0, 60.0),
            )
            records_to_csv(run_sweep(cfg), cfg)

    def test_an_energy_whose_wavenumber_underflows_is_an_error_cell(self):
        # at E = 1e-299 eV, 2 m E and k round to 0, which the closed forms
        # divide by; BarrierProblem refuses it, and the sweep goes on
        cfg = SweepConfig(e_over_v0_grid=(1e-300, 0.5), d_nm_grid=(1.0,))
        tiny, usual = parse_records(records_to_csv(run_sweep(cfg), cfg))
        assert tiny.error == (
            "problem: incident energy is so small that its wavenumber k underflows to 0"
        )
        assert tiny.s_abs2 is None and tiny.t_ph_numeric_s is None
        assert usual.error == "" and usual.t_ph_numeric_s is not None

    def test_a_non_finite_value_on_the_array_pass_is_an_error_cell(self, monkeypatch):
        # no check quotes the BL time, so only the finiteness screen keeps a
        # NaN one off the array pass; the point path then writes its error
        monkeypatch.setattr(evaluation, "_bl_time", lambda kappa, d: kappa * math.nan)
        table = run_sweep(SMALL)
        assert len(table) == 9
        for rec in table:
            assert rec.t_bl_s is None and rec.v_rms is not None
            assert rec.error == "t_bl_s: refusing to serialize a non-finite value"


class TestThickBarriers:
    """Every accepted thickness evaluates without raising and serializes."""

    def test_no_point_raises_and_every_record_serializes(self):
        # d log-uniform over nine decades reaches kappa*d of about 2e7
        rng = random.Random(9)
        records, rows = [], []
        for _ in range(3000):
            v0 = rng.uniform(0.5, 25.0)
            e_ratio = rng.uniform(0.01, 0.99)
            d_nm = 10.0 ** rng.uniform(-3.0, 6.0)
            records.append(evaluate_point(SweepConfig(v0_ev=v0), e_ratio, d_nm))
            cfg = SweepConfig(v0_ev=v0, e_over_v0_grid=(e_ratio,), d_nm_grid=(d_nm,))
            rows.append((point_table(cfg), 0))
        assert [table[0] for table, _ in rows] == records
        for start in range(0, len(records), 500):
            chunk = records[start : start + 500]
            records_to_csv(chunk)
            # a list of records has no curve columns to draw from; the same
            # rows, as the point path writes them into a table, draw
            table = join_rows(rows[start : start + 500])
            for fig in ("fig1", "fig4"):
                with pytest.raises(MissingGridPoint, match=re.escape(
                    f"record E/V0={chunk[0].e_over_v0!r}, d={chunk[0].d_nm!r} nm has no "
                    "momentum spectrum to draw curves from "
                )):
                    emit_figure_data(chunk, fig)
                emit_figure_data(table, fig)
        # past about 100 nm the fixed phase stencil aliases the free-flight
        # phase (ROADMAP item 3); nothing else fails
        assert {r.error.split(":")[0] for r in records} == {"", "phase cross-check"}

    def test_t_eff_grows_with_thickness_while_phase_and_dwell_saturate(self):
        # the abstract's "no superluminal effect": d / t_eff stays put while
        # d / t_ph and d / t_dw grow without bound (the Hartman effect)
        records = [evaluate_point(SweepConfig(), 0.5, d) for d in (5.0, 20.0, 60.0, 200.0)]
        assert [r.error for r in records] == [""] * 4
        thin = records[0]
        for rec in records:
            scale = rec.d_nm / thin.d_nm
            assert rec.t_eff_s == pytest.approx(scale * thin.t_eff_s, rel=1e-12, abs=0)
            assert rec.t_ph_analytic_s == pytest.approx(thin.t_ph_analytic_s, rel=1e-12, abs=0)
            assert rec.t_dw_analytic_s == pytest.approx(thin.t_dw_analytic_s, rel=1e-12, abs=0)
        assert thin.t_eff_s == pytest.approx(1.983e-15, rel=1e-3, abs=0)
        assert records[-1].t_eff_s == pytest.approx(7.932e-14, rel=1e-3, abs=0)
        assert thin.t_ph_analytic_s == pytest.approx(1.316939e-16, rel=1e-6, abs=0)
        assert thin.t_dw_analytic_s == pytest.approx(6.584696e-17, rel=1e-6, abs=0)

    @pytest.mark.parametrize(
        "v0_ev, cutoff, e_ratio, d_nm, error",
        [
            # kappa*d of about 3800 under a window with c*d of 17: the
            # exponential integral is taken near its cut at |z| past where
            # its series overflows
            (0.0055, 1.7e6, 1e-12, 1e4, ""),
            # a window this narrow against kappa cancels the second moment
            (0.0344, 18.0, 2e-8, 3e162,
             "momentum: momentum-density second moment must be positive"),
        ],
    )
    def test_narrow_windows_stay_in_their_cells(self, v0_ev, cutoff, e_ratio, d_nm, error):
        cfg = SweepConfig(v0_ev=v0_ev, cutoff=cutoff)
        assert evaluate_point(cfg, e_ratio, d_nm).error == error

    def test_thickness_with_a_non_finite_phase_is_a_problem_cell(self):
        rec = evaluate_point(SweepConfig(), 0.5, 1e308)
        assert rec.error == "problem: barrier phase k d must be finite"


class TestHeightsAndWindows:
    """Every accepted height and window evaluates without raising."""

    def test_no_point_raises_over_three_hundred_decades(self):
        # V0 above about 5e134 eV squared g, and Kprime above about 1.3e154 /m
        # squared the window, past the largest double; both are problem cells
        rng = random.Random(10)
        records = []
        for _ in range(300):
            cfg = SweepConfig(v0_ev=10.0 ** rng.uniform(-300.0, 300.0))
            records.append(evaluate_point(cfg, rng.uniform(0.01, 0.99), 10.0 ** rng.uniform(-3.0, 3.0)))
        for _ in range(300):
            cfg = SweepConfig(v0_ev=rng.uniform(0.5, 25.0), cutoff=10.0 ** rng.uniform(-300.0, 308.0))
            records.append(evaluate_point(cfg, rng.uniform(0.01, 0.99), 10.0 ** rng.uniform(-3.0, 3.0)))
        records_to_csv(records)
        causes = {r.error.split(":")[0] for r in records}
        assert causes <= {"", "problem", "momentum", "phase cross-check"}
        assert "problem: barrier height's (2 m V0 / hbar^2)^2 must be finite" in {
            r.error for r in records
        }
        assert "problem: momentum cutoff's Kprime^2 must be finite" in {
            r.error for r in records
        }

    @pytest.mark.parametrize(
        "cfg, error",
        [
            (SweepConfig(v0_ev=1e150), "problem: barrier height's (2 m V0 / hbar^2)^2 must be finite"),
            (SweepConfig(cutoff=1e160), "problem: momentum cutoff's Kprime^2 must be finite"),
        ],
        ids=["V0", "Kprime"],
    )
    def test_the_found_points_are_problem_cells(self, cfg, error):
        assert evaluate_point(cfg, 0.5, 1.0).error == error
        # a grid that refuses every point writes a problem cell at each
        assert {rec.error for rec in run_sweep(cfg)} == {error}


class TestGridKeys:
    """Records are filed and reported under their exact grid values."""

    def test_table1_takes_each_row_from_its_own_ratio(self):
        # 0.0100001 rounds to 0.01 at six digits; its depths must not stand
        # in for the 0.01 row
        records = [
            SweepRecord(e_over_v0=r, d_nm=d, e_ev=10.0 * r, v0_ev=10.0,
                        cutoff=7.5e10, s_nm=9.0 if r == 0.0100001 else 0.5)
            for d in TABLE_D_NM
            for r in (0.01, 0.0100001, 0.1, 0.5, 0.9, 0.99)
        ]
        rows = emit_table1(records).splitlines()[2:]
        assert len(rows) == 45 and all(row.endswith(",0.5000") for row in rows)

    def test_table1_takes_each_cell_from_its_own_thickness(self):
        records = [
            SweepRecord(e_over_v0=r, d_nm=d, e_ev=10.0 * r, v0_ev=10.0,
                        cutoff=7.5e10, s_nm=9.0 if d == 0.2000001 else 0.5)
            for d in (0.2, 0.2000001) + TABLE_D_NM[1:]
            for r in (0.01, 0.1, 0.5, 0.9, 0.99)
        ]
        rows = emit_table1(records).splitlines()[2:]
        assert len(rows) == 45 and all(row.endswith(",0.5000") for row in rows)

    def test_missing_spectrum_names_the_exact_ratio(self):
        # six digits would print the unsolvable point as E/V0=1
        cfg = SweepConfig(e_over_v0_grid=(0.5, 0.9999999), d_nm_grid=(0.5,))
        records = run_sweep(cfg)
        for fig in ("fig1", "fig4"):
            with pytest.raises(MissingGridPoint, match=r"E/V0=0\.9999999, d=0\.5 nm"):
                emit_figure_data(records, fig)
        with pytest.raises(MissingGridPoint, match=r"E/V0=0\.9999999, d=0\.5 nm"):
            emit_figure_data(records, "fig2")


class TestSweepCsv:
    def test_byte_identical_across_runs(self):
        first = records_to_csv(run_sweep(SMALL), SMALL)
        second = records_to_csv(run_sweep(SMALL), SMALL)
        assert first == second

    def test_metadata_then_header_then_rows(self):
        text = records_to_csv(run_sweep(SMALL), SMALL)
        lines = text.splitlines()
        meta = [line for line in lines if line.startswith("#")]
        assert meta[0].startswith("# tool: tunneltimes")
        assert any("V0_eV=10" in line for line in meta)
        header = lines[len(meta)]
        assert header.startswith("E_over_V0,d_nm,")
        assert len(lines) == len(meta) + 1 + 9

    def test_no_nan_is_ever_serialized(self, default_records):
        text = records_to_csv(default_records)
        assert "nan" not in text.lower()
        assert "inf" not in text.lower()

    def test_round_trip_is_emit_stable(self):
        # floats are serialized at six significant digits, so re-parsing and
        # re-emitting must reproduce the file byte for byte
        text = records_to_csv(run_sweep(SMALL), SMALL)
        assert records_to_csv(parse_records(text), SMALL) == text

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=str)
    def test_a_record_with_a_non_finite_value_is_refused(self, bad):
        # NaN in a table is an empty cell, so a NaN record value is refused
        # when the records are written into one, not emptied
        rec = replace(evaluate_point(SweepConfig(), 0.5, 0.5), t_eff_s=bad)
        with pytest.raises(FloatingPointError, match="^refusing to serialize a non-finite"):
            records_to_csv([rec])

    def test_round_trip_preserves_values_to_serialized_precision(self):
        records = run_sweep(SMALL)
        back = parse_records(records_to_csv(records, SMALL))
        for orig, parsed in zip(records, back):
            assert parsed.note == orig.note
            assert parsed.s_abs2 == pytest.approx(orig.s_abs2, rel=1e-5, abs=0)
            assert parsed.t_eff_s == pytest.approx(orig.t_eff_s, rel=1e-5, abs=0)


class TestParseRecords:
    TEXT = records_to_csv(run_sweep(SMALL), SMALL)

    def spoiled(self, column: str, cell: str) -> tuple[str, int]:
        """TEXT with ``column`` of its second data row set to ``cell``, and
        that row's line number."""
        lines = self.TEXT.splitlines()
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        row = header + 2
        cells = lines[row].split(",")
        cells[list(sweep.RECORD_COLUMNS).index(column)] = cell
        lines[row] = ",".join(cells)
        return "\n".join(lines) + "\n", row + 1

    @pytest.mark.parametrize("cell", ["abc", "1e", "0x10"])
    def test_non_numeric_cell_names_its_line_and_column(self, cell):
        text, line = self.spoiled("t_eff_s", cell)
        with pytest.raises(ParseError) as err:
            parse_records(text)
        assert err.value.line == line
        assert str(err.value).startswith(f"line {line}: bad value for 't_eff_s': {cell!r}")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "1e400"])
    def test_non_finite_cell_is_refused_when_read(self, cell):
        # such a record could never be written back: records_to_csv would
        # refuse it with FloatingPointError
        text, line = self.spoiled("xi", cell)
        with pytest.raises(ParseError, match=rf"^line {line}: bad value for 'xi': ") as err:
            parse_records(text)
        assert str(err.value).endswith("(not finite)")

    @pytest.mark.parametrize("text", ["", "# tool: tunneltimes\n\n"], ids=["empty", "meta"])
    def test_text_without_a_header_is_refused(self, text):
        with pytest.raises(ParseError, match="^no header row found$"):
            parse_records(text)

    def test_wrong_header_names_its_line(self):
        text = self.TEXT.replace("E_over_V0,d_nm,", "d_nm,E_over_V0,")
        line = text.splitlines().index(next(x for x in text.splitlines() if x[0] != "#")) + 1
        with pytest.raises(ParseError, match=rf"^line {line}: unexpected sweep CSV header$"):
            parse_records(text)

    def test_short_row_names_its_line(self):
        lines = self.TEXT.splitlines()
        lines[-1] = lines[-1].rsplit(",", 1)[0]
        with pytest.raises(ParseError, match=rf"^line {len(lines)}: row has 20 cells"):
            parse_records("\n".join(lines))


class TestSweepTable:
    def test_a_sweep_is_a_sequence_of_its_records(self, default_records):
        table = default_records
        assert isinstance(table, sweep.SweepTable) and len(table) == 50
        records = list(table)
        points = [evaluate_point(SweepConfig(), r, d) for d in DEFAULT_D for r in DEFAULT_E]
        assert records_to_csv(records) == records_to_csv(points)
        assert [(r.e_over_v0, r.d_nm, r.note) for r in records] == [
            (r.e_over_v0, r.d_nm, r.note) for r in points
        ]
        # a row is built from its cells each time it is asked for
        assert table[-1] == records[-1] and table[10:13] == records[10:13]
        assert table[7] == table[7] and table[7] is not table[7]
        for index in (50, -51):
            with pytest.raises(IndexError):
                table[index]

    def test_columns_are_read_only_and_mark_empty_cells_with_nan(self, default_records):
        s_nm = default_records.column("s_nm")
        thin = default_records.column("d_nm") == 0.1
        assert np.isnan(s_nm[thin]).all() and np.isfinite(s_nm[~thin]).all()
        assert default_records.column("note")[0] == "no_crossing"
        with pytest.raises(ValueError):
            s_nm[0] = 1.0

    def test_no_emitter_builds_a_record(self, monkeypatch):
        # 1e-5 eV is inside the 1e-4 eV phase step, so that energy clips at
        # every thickness (the clipping line, and fig3's gap); at V0 = 1 eV
        # the depth of (0.01, 0.2 nm) never crosses (table1's gap); and no
        # solution exists 1e-7 eV below the top (fig1's and fig4's gap)
        cfg = SweepConfig(v0_ev=1.0, e_over_v0_grid=(1e-5, *sweep.TABLE1_E_RATIOS),
                          d_nm_grid=sweep.TABLE1_D_NM)
        table = run_sweep(cfg)
        unsolved = run_sweep(SweepConfig(e_over_v0_grid=(0.5, 0.9999999), d_nm_grid=(0.5,)))
        monkeypatch.setattr(
            sweep.SweepTable, "__getitem__", lambda self, i: pytest.fail(f"row {i} was built")
        )
        clipping = "# clipping: phase-time stencil left the energy domain at " + ", ".join(
            f"(E/V0=1e-05, d={d:g} nm)" for d in sweep.TABLE1_D_NM
        )
        texts = [records_to_csv(table, cfg)] + [
            emit_figure_data(table, fig, cfg)
            for fig in ("fig1", "fig2", "fig4", "fig5", "fig6a")
        ]
        assert all(clipping in text.splitlines() for text in texts)
        with pytest.raises(MissingGridPoint, match=(
            r"^record E/V0=1e-05, d=0\.2 nm is missing t_ph_s "
            r"\(note='phase_stencil_clipped;no_crossing', error=''\)$"
        )):
            emit_figure_data(table, "fig3", cfg)
        with pytest.raises(MissingGridPoint, match=(
            r"^record E/V0=0\.01, d=0\.2 nm has no depth \(note='no_crossing', error=''\)$"
        )):
            emit_table1(table, cfg)
        for fig in ("fig1", "fig4"):
            with pytest.raises(MissingGridPoint, match=(
                r"^record E/V0=0\.9999999, d=0\.5 nm has no momentum spectrum to draw "
                r"curves from \(error='problem: energy closer than 1e-06 eV to the barrier "
                r"top is ill-conditioned'\)$"
            )):
                emit_figure_data(unsolved, fig)

    def test_the_clipping_line_names_each_point_exactly(self):
        # six digits would name both ratios 1e-06
        cfg = parse_config("E_over_V0_grid=1e-6,1.0000001e-6,0.5\nd_nm_grid=0.5\n")
        clipping = [
            line
            for line in records_to_csv(run_sweep(cfg), cfg).splitlines()
            if line.startswith("# clipping: ")
        ]
        assert clipping == [
            "# clipping: phase-time stencil left the energy domain at "
            "(E/V0=1e-06, d=0.5 nm), (E/V0=1.0000001e-06, d=0.5 nm)"
        ]


class TestTable1Emission:
    def test_shape_and_order(self, default_records):
        lines = [
            line
            for line in emit_table1(default_records).splitlines()
            if not line.startswith("#")
        ]
        assert lines[0] == "E_over_V0,d_nm,s_nm"
        assert len(lines) == 1 + 45
        ratios = [float(line.split(",")[0]) for line in lines[1:]]
        assert ratios == sorted(ratios)
        assert lines[1].startswith("0.01,0.2,")
        assert lines[45].startswith("0.99,1,")

    def test_depths_match_the_published_table(self, default_records):
        lines = [
            line
            for line in emit_table1(default_records).splitlines()
            if not line.startswith("#")
        ][1:]
        for line in lines:
            ratio_s, d_s, s_s = line.split(",")
            want = REFERENCE_DEPTHS_NM[float(ratio_s)][TABLE_D_NM.index(float(d_s))]
            assert len(s_s.split(".")[1]) == 4  # fixed four decimals of nm
            assert abs(float(s_s) - want) <= 0.002

    def test_exact_cells_where_the_search_is_converged(self, default_records):
        text = emit_table1(default_records)
        assert "\n0.01,0.2,0.0627\n" in text
        assert "\n0.01,1,0.0621\n" in text

    def test_missing_cell_raises(self):
        records = run_sweep(SweepConfig(d_nm_grid=(0.2, 0.3)))
        with pytest.raises(MissingGridPoint):
            emit_table1(records)

    def test_a_cell_without_a_depth_names_its_point(self):
        # the grid values are named as the table prints them, not echoed
        records = [
            SweepRecord(e_over_v0=r, d_nm=d, e_ev=10.0 * r, v0_ev=10.0, cutoff=7.5e10,
                        s_nm=None if (r, d) == (0.5, 1.0) else 0.5, note="n", error="e")
            for r in sweep.TABLE1_E_RATIOS
            for d in TABLE_D_NM
        ]
        with pytest.raises(MissingGridPoint, match=(
            r"^record E/V0=0\.5, d=1\.0 nm has no depth \(note='n', error='e'\)$"
        )):
            emit_table1(records)


class TestFigureEmission:
    def test_every_figure_emits_with_a_header(self, default_records):
        for fig in FIGURE_IDS:
            text = emit_figure_data(default_records, fig)
            data = [line for line in text.splitlines() if not line.startswith("#")]
            assert len(data) >= 2
            assert data[0].count(",") == data[1].count(",")

    def test_unknown_figure_rejected(self, default_records):
        with pytest.raises(ValidationError):
            emit_figure_data(default_records, "fig9")

    def test_momentum_density_curves_integrate_to_one(self, default_records):
        rows = [
            line.split(",")
            for line in emit_figure_data(default_records, "fig1").splitlines()
            if not line.startswith("#")
        ][1:]
        curve = [
            (float(k), float(p))
            for ratio, d, k, p in rows
            if ratio == "0.5" and d == "1"
        ]
        ks = [k for k, _ in curve]
        ps = [p for _, p in curve]
        trapezoid = sum(
            0.5 * (ps[i] + ps[i + 1]) * (ks[i + 1] - ks[i]) for i in range(len(ks) - 1)
        )
        assert trapezoid == pytest.approx(1.0, rel=1e-3)

    def test_clock_columns_disagree_pairwise_on_the_thick_barrier(self, default_records):
        rows = [
            line.split(",")
            for line in emit_figure_data(default_records, "fig3").splitlines()
            if not line.startswith("#")
        ][1:]
        row = next(r for r in rows if r[0] == "0.5" and r[1] == "1")
        t_ph, t_dw, t_bl = float(row[3]), float(row[4]), float(row[5])
        for a, b in ((t_ph, t_dw), (t_ph, t_bl), (t_dw, t_bl)):
            assert abs(a - b) / max(a, b) > 0.05

    def test_density_curves_stay_above_threshold_on_the_thin_barrier(
        self, default_records
    ):
        rows = [
            line.split(",")
            for line in emit_figure_data(default_records, "fig4").splitlines()
            if not line.startswith("#")
        ][1:]
        thin = [float(r[3]) for r in rows if r[1] == "0.1"]
        assert len(thin) == 5 * 128  # five ratios, 128 x-points each
        assert min(thin) > math.exp(-2.0)

    def test_depth_figure_leaves_thin_barrier_cells_empty(self, default_records):
        rows = [
            line.split(",")
            for line in emit_figure_data(default_records, "fig5").splitlines()
            if not line.startswith("#")
        ][1:]
        thin = [r for r in rows if r[1] == "0.1"]
        assert thin and all(r[2] == "" and r[3] == "" and r[4] == "" for r in thin)

    def test_energy_offset_limit_on_the_thick_barrier(self, default_records):
        rows = [
            line.split(",")
            for line in emit_figure_data(default_records, "fig6a").splitlines()
            if not line.startswith("#")
        ][1:]
        row = next(r for r in rows if r[0] == "0.01" and r[1] == "1")
        assert float(row[2]) == pytest.approx(34.102, rel=0.02)

    def test_scalar_figures_refuse_incomplete_records(self):
        # a clipped phase stencil leaves t_ph empty, which fig3 cannot emit
        records = [evaluate_point(SweepConfig(), 1e-6, 0.5)]
        with pytest.raises(MissingGridPoint):
            emit_figure_data(records, "fig3")

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=str)
    def test_a_non_finite_value_is_refused_in_a_column_not_printed(self, bad):
        # every record value is checked once, when the records become a
        # table, not only the columns a figure prints
        rec = replace(evaluate_point(SweepConfig(), 0.5, 0.5), xi=bad)
        with pytest.raises(FloatingPointError, match="^refusing to serialize a non-finite"):
            emit_figure_data([rec], "fig2")

    def test_derived_column_is_never_optional(self):
        # fig5 leaves an absent depth empty; fig6a's eps_eff + V0 has no such
        # excuse
        bare = SweepRecord(e_over_v0=0.5, d_nm=0.5, e_ev=5.0, v0_ev=10.0, cutoff=7.5e10)
        assert emit_figure_data([bare], "fig5").splitlines()[-1] == "0.5,0.5,,,"
        with pytest.raises(MissingGridPoint, match="eps_eff_plus_V0_eV"):
            emit_figure_data([bare], "fig6a")

    def test_density_curves_ignore_the_config(self):
        # fig1 draws the sweep's own normalization, whatever cfg is passed
        cfg = parse_config("E_over_V0_grid=0.5\nd_nm_grid=0.5,1\n")
        records = run_sweep(cfg)
        with_cfg, without = (
            [line for line in text.splitlines() if not line.startswith("#")]
            for text in (emit_figure_data(records, "fig1", cfg),
                         emit_figure_data(records, "fig1"))
        )
        assert with_cfg == without

    def test_superluminal_window_still_draws_the_density(self):
        cfg = SweepConfig(cutoff=1e13, e_over_v0_grid=(0.5,), d_nm_grid=(0.001,))
        records = run_sweep(cfg)
        assert "superluminal" in records[0].error
        lines = emit_figure_data(records, "fig1").splitlines()
        assert len([line for line in lines if not line.startswith("#")]) == 1 + 201
        with pytest.raises(MissingGridPoint):
            emit_figure_data(records, "fig2")

    def test_curve_figures_refuse_reparsed_records(self):
        # a CSV row carries no spectrum to draw from
        records = parse_records(records_to_csv(run_sweep(SMALL), SMALL))
        for fig in ("fig1", "fig4"):
            with pytest.raises(MissingGridPoint, match="no momentum spectrum"):
                emit_figure_data(records, fig)

    def test_curve_figures_refuse_a_list_of_records_at_row_0(self, default_records):
        # a record is its cells: a list of a table's records has no curve
        # columns, so its first record is named, drawable or not
        for fig in ("fig1", "fig4"):
            emit_figure_data(default_records, fig)
            with pytest.raises(MissingGridPoint, match=(
                r"^record E/V0=0\.01, d=0\.1 nm has no momentum spectrum to draw curves "
                r"from \(error=''\)$"
            )):
                emit_figure_data(list(default_records), fig)

    def test_a_fallback_row_draws(self, monkeypatch):
        # the clipped stencil sends (1e-6, 0.5 nm) to the point path, whose
        # curve values the row writer puts beside its record values
        calls = []
        point = sweep._point
        monkeypatch.setattr(
            sweep, "_point", lambda cfg, r, d: calls.append((r, d)) or point(cfg, r, d)
        )
        table = run_sweep(SweepConfig(e_over_v0_grid=(1e-6,), d_nm_grid=(0.5,)))
        assert calls == [(1e-6, 0.5)] and "phase_stencil_clipped" in table[0].note
        for fig, points in (("fig1", 201), ("fig4", 128)):
            text = emit_figure_data(table, fig)
            rows = [line for line in text.splitlines() if not line.startswith("#")]
            assert len(rows) == 1 + points and text == per_cell_emit(table, fig)

    def test_curve_figures_refuse_unsolved_records(self):
        # inside the near-threshold guard band no solution exists at all
        records = [evaluate_point(SweepConfig(), 0.9999999, 0.5)]
        assert records[0].error
        for fig in ("fig1", "fig4"):
            with pytest.raises(MissingGridPoint):
                emit_figure_data(records, fig)
