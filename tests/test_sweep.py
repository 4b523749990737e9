import math
import random
from dataclasses import replace

import pytest

from oracles import REFERENCE_DEPTHS_NM, TABLE_D_NM
from tunneltimes import sweep
from tunneltimes.barrier import BarrierProblem
from tunneltimes.constants import CONSTANTS
from tunneltimes.errors import (
    DomainError,
    MissingGridPoint,
    NoConvergence,
    ParseError,
    ValidationError,
)
from tunneltimes.sweep import (
    FIGURE_IDS,
    SweepConfig,
    emit_figure_data,
    SweepRecord,
    config_lines,
    emit_table1,
    evaluate,
    evaluate_point,
    parse_config,
    parse_records,
    records_to_csv,
    run_sweep,
)

SMALL = SweepConfig(e_over_v0_grid=(0.1, 0.5, 0.9), d_nm_grid=(0.1, 0.5, 1.0))


@pytest.fixture(scope="module")
def default_records():
    return run_sweep(SweepConfig())


class TestParseConfig:
    def test_empty_text_gives_defaults(self):
        cfg = parse_config("")
        assert cfg.v0_ev == 10.0
        assert cfg.cutoff == 7.5e10
        assert cfg.phase_step_ev == 1e-4

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

    def test_outputs_key_rejected(self):
        # the figures command picks its figures with --which
        for line in ("outputs=fig7", "outputs=table1,fig3"):
            with pytest.raises(ParseError, match="unknown key 'outputs'"):
                parse_config(f"d_nm_grid=0.5\n{line}\n")


class TestSweepConfig:
    @pytest.mark.parametrize("value", [math.inf, math.nan], ids=str)
    @pytest.mark.parametrize(
        "field", ["v0_ev", "cutoff", "phase_step_ev", "d_nm_grid"]
    )
    def test_non_finite_values_rejected(self, field, value):
        # they used to sweep, and the config echo then refused to serialize
        with pytest.raises(ValidationError):
            SweepConfig(**{field: (value,) if field == "d_nm_grid" else value})


class TestConfigEcho:
    def test_default_echo(self):
        assert config_lines(SweepConfig()) == [
            "V0_eV=10",
            "E_over_V0_grid=0.01,0.1,0.5,0.9,0.99",
            "d_nm_grid=0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1",
            "Kprime=7.5e+10",
            "phase_step_eV=0.0001",
        ]

    def test_echo_reads_back_exactly(self):
        # six significant digits would round V0, the first ratio and Kprime
        cfg = SweepConfig(
            v0_ev=7.123456789,
            e_over_v0_grid=(0.1234567, 0.5),
            cutoff=7.1234567e10,
            phase_step_ev=1.234567e-4,
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
        eps_si = rec.eps_eff_ev * CONSTANTS.ev_to_joule
        assert rec.xi == pytest.approx(
            2.0 * eps_si * rec.tau_eff_s / CONSTANTS.hbar, rel=1e-6
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

    def test_phase_stencil_clipping_is_noted(self):
        rec = evaluate_point(SweepConfig(), 1e-6, 0.5)
        assert rec.t_ph_numeric_s is None
        assert "phase_stencil_clipped" in rec.note
        assert rec.t_ph_analytic_s is not None  # the analytic route survives


class TestEvaluate:
    def test_the_spectrum_is_not_part_of_the_record_value(self):
        rec = evaluate_point(SweepConfig(), 0.5, 0.5)
        assert rec.spectrum is not None
        bare = replace(rec, spectrum=None)
        assert bare == rec and hash(bare) == hash(rec)

    def test_every_block_by_default_matches_the_sweep_record(self):
        cfg = SweepConfig()
        problem = BarrierProblem.from_ev_nm(5.0, 10.0, 0.5)
        rec, caught = evaluate(problem, cfg, grid_point=(0.5, 0.5))
        assert caught == []
        assert rec == evaluate_point(cfg, 0.5, 0.5)

    def test_unrequested_blocks_leave_their_columns_empty(self):
        problem = BarrierProblem.from_ev_nm(5.0, 10.0, 0.5)
        rec, caught = evaluate(problem, SweepConfig(), ("momentum",))
        assert caught == [] and rec.note == "" and rec.error == ""
        assert rec.v_rms is not None and rec.s_abs2 is not None
        times_and_depth = (rec.t_ph_numeric_s, rec.t_dw_numeric_s, rec.t_bl_s, rec.s_nm)
        assert times_and_depth == (None, None, None, None)

    def test_tau_and_xi_need_the_momentum_block(self):
        problem = BarrierProblem.from_ev_nm(5.0, 10.0, 0.5)
        rec, _ = evaluate(problem, SweepConfig(), ("depth",))
        assert rec.s_nm is not None and rec.tau_eff_s is None and rec.xi is None

    def test_clipped_stencil_is_the_only_failure_on_a_thick_barrier(self):
        # kappa*d is about 486, where sinh(kappa d)^2 is not a double; the
        # scaled closed forms still give both analytic times
        problem = BarrierProblem.from_ev_nm(5e-5, 10.0, 30.0)
        rec, caught = evaluate(problem, SweepConfig(), ("momentum", "times"))
        assert [type(exc) for exc in caught] == [DomainError]
        assert rec.note == "phase_stencil_clipped" and rec.t_eff_s is not None
        assert rec.t_ph_analytic_s > 0.0 and rec.t_dw_analytic_s > 0.0

    def test_each_point_is_solved_once(self, monkeypatch):
        from tunneltimes import times

        solves = []
        for module in (sweep, times):
            solve = module.stationary_solution
            monkeypatch.setattr(
                module,
                "stationary_solution",
                lambda problem, solve=solve: solves.append(problem) or solve(problem),
            )
        evaluate_point(SweepConfig(), 0.5, 0.5)
        # the phase stencil takes S at E +/- h from its closed form
        assert len(solves) == 1

    def test_non_finite_analytic_route_fails_the_cross_check(self, monkeypatch):
        # a NaN closed form is something no comparison can certify
        monkeypatch.setattr(sweep, "phase_time_analytic", lambda problem: math.nan)
        problem = BarrierProblem.from_ev_nm(5.0, 10.0, 0.5)
        rec, caught = evaluate(problem, SweepConfig())
        assert math.isnan(rec.t_ph_analytic_s)
        assert [type(exc) for exc in caught] == [NoConvergence]
        assert rec.error.startswith("phase cross-check: numeric ")
        assert "vs analytic nan" in rec.error

    def test_infinite_analytic_route_fails_the_cross_check(self, monkeypatch):
        # |n - inf| <= tol * inf would hold
        monkeypatch.setattr(sweep, "phase_time_analytic", lambda problem: math.inf)
        problem = BarrierProblem.from_ev_nm(5.0, 10.0, 0.5)
        rec, caught = evaluate(problem, SweepConfig(), ("times",))
        assert rec.t_ph_analytic_s == math.inf
        assert [type(exc) for exc in caught] == [NoConvergence]
        assert rec.error == (
            f"phase cross-check: numeric {rec.t_ph_numeric_s!r} vs analytic inf"
        )


class TestThickBarriers:
    """Every accepted thickness evaluates without raising and serializes."""

    def test_no_point_raises_and_every_record_serializes(self):
        # d log-uniform over nine decades reaches kappa*d of about 2e7
        rng = random.Random(9)
        records = []
        for _ in range(3000):
            v0 = rng.uniform(0.5, 25.0)
            e_ratio = rng.uniform(0.01, 0.99)
            d_nm = 10.0 ** rng.uniform(-3.0, 6.0)
            records.append(evaluate_point(SweepConfig(v0_ev=v0), e_ratio, d_nm))
        for start in range(0, len(records), 500):
            chunk = records[start : start + 500]
            records_to_csv(chunk)
            emit_figure_data(chunk, "fig1")
            emit_figure_data(chunk, "fig4")
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
            assert rec.t_eff_s == pytest.approx(scale * thin.t_eff_s, rel=1e-12)
            assert rec.t_ph_analytic_s == pytest.approx(thin.t_ph_analytic_s, rel=1e-12)
            assert rec.t_dw_analytic_s == pytest.approx(thin.t_dw_analytic_s, rel=1e-12)
        assert thin.t_eff_s == pytest.approx(1.983e-15, rel=1e-3)
        assert records[-1].t_eff_s == pytest.approx(7.932e-14, rel=1e-3)
        assert thin.t_ph_analytic_s == pytest.approx(1.316939e-16, rel=1e-6)
        assert thin.t_dw_analytic_s == pytest.approx(6.584696e-17, rel=1e-6)

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

    def test_round_trip_preserves_values_to_serialized_precision(self):
        records = run_sweep(SMALL)
        back = parse_records(records_to_csv(records, SMALL))
        for orig, parsed in zip(records, back):
            assert parsed.note == orig.note
            assert parsed.s_abs2 == pytest.approx(orig.s_abs2, rel=1e-5)
            assert parsed.t_eff_s == pytest.approx(orig.t_eff_s, rel=1e-5)


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

    def test_curve_figures_refuse_unsolved_records(self):
        # inside the near-threshold guard band no solution exists at all
        records = [evaluate_point(SweepConfig(), 0.9999999, 0.5)]
        assert records[0].error
        for fig in ("fig1", "fig4"):
            with pytest.raises(MissingGridPoint):
                emit_figure_data(records, fig)
