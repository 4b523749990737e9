import cmath
import math
import random
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import closed_times, mp_closed_forms, mp_dwell_numerator, stencil_phase_time
from tunneltimes import times
from tunneltimes.barrier import (
    BarrierProblem,
    incident_flux,
    stationary_solution,
    wavenumbers,
)
from tunneltimes.constants import CONSTANTS, energy_ev_to_si
from tunneltimes.errors import DomainError, NoConvergence
from tunneltimes.sweep import SweepConfig, evaluate
from tunneltimes.times import (
    DEFAULT_PHASE_STEP_EV,
    dwell_time_numeric,
    phase_time_numeric,
    shared_denominator,
)

AGREEMENT = 1e-6  # numeric and analytic routes must agree this tightly


def phase_closed(p):
    return closed_times(p)[0]


def dwell_closed(p):
    return closed_times(p)[1]


def bl_time(p):
    """The traversal-time kernel behind the record's t_bl_s."""
    return times._bl_time(wavenumbers(p).kappa, p.thickness)


class TestPhaseTime:
    def test_routes_agree_at_half_height(self):
        p = BarrierProblem.from_ev_nm(5.0, 10.0, 0.5)
        numeric = phase_time_numeric(p)
        analytic = phase_closed(p)
        assert abs(numeric - analytic) <= AGREEMENT * analytic

    def test_routes_agree_across_grid(self):
        for e_ratio in (0.05, 0.3, 0.7, 0.95):
            for d_nm in (0.1, 0.5, 1.0):
                p = BarrierProblem.from_ev_nm(10.0 * e_ratio, 10.0, d_nm)
                numeric = phase_time_numeric(p)
                analytic = phase_closed(p)
                assert abs(numeric - analytic) <= AGREEMENT * analytic

    def test_half_height_degeneracy(self):
        # at E = V0/2 the wavenumbers coincide, the bracket's first term
        # carries a (kappa^2 - k^2) factor and dies, leaving only the sinh term
        p = BarrierProblem.from_ev_nm(5.0, 10.0, 0.5)
        wn = wavenumbers(p)
        g = 2.0 * CONSTANTS.electron_mass * p.height / CONSTANTS.hbar**2
        dd = 4.0 * wn.kappa**2 * wn.k**2 + g**2 * math.sinh(wn.kappa * p.thickness) ** 2
        want = (
            CONSTANTS.electron_mass
            / (CONSTANTS.hbar * wn.k * wn.kappa * dd)
            * g**2
            * math.sinh(2.0 * wn.kappa * p.thickness)
        )
        assert phase_closed(p) == pytest.approx(want, rel=1e-14, abs=0)

    def test_thick_barrier_saturation_value(self):
        # saturates at 2m / (hbar k kappa); 1.3169e-16 s at half height
        p = BarrierProblem.from_ev_nm(5.0, 10.0, 1.0)
        wn = wavenumbers(p)
        limit = 2.0 * CONSTANTS.electron_mass / (CONSTANTS.hbar * wn.k * wn.kappa)
        assert limit == pytest.approx(1.317e-16, rel=1e-3, abs=0)
        assert phase_closed(p) == pytest.approx(limit, rel=1e-6, abs=0)

    def test_vanishing_barrier_limit(self):
        # every term goes linear in d, so the time scales straight to zero
        thin = phase_closed(BarrierProblem.from_ev_nm(5.0, 10.0, 1e-4))
        thinner = phase_closed(BarrierProblem.from_ev_nm(5.0, 10.0, 5e-5))
        assert 0.0 < thin < 1e-18
        assert thin == pytest.approx(2.0 * thinner, rel=1e-6, abs=0)

    def test_stencil_clipping_raises(self):
        with pytest.raises(DomainError, match="leaves the valid domain"):
            phase_time_numeric(BarrierProblem.from_ev_nm(5e-5, 10.0, 0.5))
        with pytest.raises(DomainError, match="leaves the valid domain"):
            phase_time_numeric(BarrierProblem.from_ev_nm(10.0 - 2e-5, 10.0, 0.5))

    def test_guard_band_clips_the_stencil(self):
        # E + h stays below V0 but inside the near-threshold guard band
        p = BarrierProblem.from_ev_nm(10.0 - 1e-4 - 5e-7, 10.0, 0.5)
        with pytest.raises(DomainError, match="closer than"):
            phase_time_numeric(p)
        assert _outcome(phase_time_numeric, p) == _outcome(
            stencil_phase_time, p, DEFAULT_PHASE_STEP_EV
        )


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DomainError as exc:
        return repr(exc)


def substitute_t(monkeypatch, t_of_energy):
    """Make the stencil's t at energy E read t_of_energy(E): its wavenumber
    pair and t's energy factors pass E through, and the thickness's part of
    the t kernel maps it."""
    monkeypatch.setattr(times, "_wavenumber_pair", lambda e, hi: (e, hi))
    monkeypatch.setattr(times, "_energy_factors", lambda e, hi: e)
    monkeypatch.setattr(times, "_transmission", lambda e, d: t_of_energy(e))


class TestPhaseStencil:
    """The stencil differences arg t of the closed-form t = S e^{kappa d} at E +/- h."""

    P = BarrierProblem.from_ev_nm(5.0, 10.0, 0.5)

    def free_flight(self, p):
        return p.thickness / math.sqrt(2.0 * p.energy / CONSTANTS.electron_mass)

    def test_equals_the_solved_stencil_on_the_dense_grid(self):
        # an energy's ten thicknesses at once, as the sweep runs them, keep
        # the bits of one call per thickness and of the solved stencil
        h = energy_ev_to_si(DEFAULT_PHASE_STEP_EV)
        for i in range(1, 100):
            problems = [
                BarrierProblem.from_ev_nm(10.0 * (i / 100.0), 10.0, j / 10.0)
                for j in range(1, 11)
            ]
            e0, hi = problems[0].energy, problems[0].height
            together = times._phase_stencil(e0, hi, [p.thickness for p in problems], h)
            assert together == [phase_time_numeric(p) for p in problems]
            assert together == [
                stencil_phase_time(p, DEFAULT_PHASE_STEP_EV) for p in problems
            ]

    def test_equals_the_solved_stencil_at_random_points(self):
        # a fifth of the points sit within 2e-4 eV of the barrier top, where
        # the stencil may leave the domain or enter the guard band; there
        # both routes must refuse with the same message. Each point's energy
        # also runs over three more thicknesses at once, which a second
        # generator draws, so the points themselves stay as they were
        rng, more = random.Random(20071), random.Random(20072)
        refused = 0
        for n in range(200):
            v0 = rng.uniform(0.5, 25.0)
            if n % 5 == 0:
                e_ev = v0 - rng.uniform(1.01e-6, 2e-4)
            else:
                e_ev = rng.uniform(1e-3, 0.99) * v0
            p = BarrierProblem.from_ev_nm(e_ev, v0, 10.0 ** rng.uniform(-2.0, 1.3))
            step = rng.choice((1e-5, DEFAULT_PHASE_STEP_EV, 3e-4))
            got = _outcome(phase_time_numeric, p, step)
            assert got == _outcome(stencil_phase_time, p, step)
            refused += isinstance(got, str)
            batch = [p] + [
                replace(p, thickness=10.0 ** more.uniform(-11.0, -7.7)) for _ in range(3)
            ]
            each = [_outcome(stencil_phase_time, q, step) for q in batch]
            assert each == [_outcome(phase_time_numeric, q, step) for q in batch]
            together = _outcome(
                times._phase_stencil, p.energy, p.height, [q.thickness for q in batch],
                energy_ev_to_si(step),
            )
            assert together == (got if isinstance(got, str) else each)
        assert 10 <= refused <= 40

    def test_unwraps_a_branch_cut_of_arg_s(self):
        # arg S passes from -pi to +pi between E - h and E + h
        p = BarrierProblem.from_ev_nm(0.66873087454, 10.0, 0.5)
        h = energy_ev_to_si(DEFAULT_PHASE_STEP_EV)
        below = cmath.phase(stationary_solution(replace(p, energy=p.energy - h)).t)
        above = cmath.phase(stationary_solution(replace(p, energy=p.energy + h)).t)
        assert below < -3.14 and above > 3.14
        numeric = phase_time_numeric(p)
        assert abs(numeric - phase_closed(p)) <= AGREEMENT * numeric

    @pytest.mark.parametrize("step_ev", [0.0, -1e-4, math.nan], ids=str)
    def test_nonpositive_step_rejected(self, step_ev):
        with pytest.raises(DomainError, match="step h must be positive"):
            phase_time_numeric(self.P, step_ev)

    def test_linear_phase_gives_its_slope(self, monkeypatch):
        slope = 1.3 / energy_ev_to_si(1.0)  # arg S = slope * E
        substitute_t(monkeypatch, lambda e: cmath.exp(1j * slope * e))
        delay = phase_time_numeric(self.P) - self.free_flight(self.P)
        assert delay == pytest.approx(CONSTANTS.hbar * slope, rel=1e-9, abs=0)

    def test_constant_phase_leaves_the_free_flight(self, monkeypatch):
        substitute_t(monkeypatch, lambda e: 0.7 - 0.2j)
        assert phase_time_numeric(self.P) == self.free_flight(self.P)

    @given(
        theta=st.floats(min_value=-math.pi, max_value=math.pi),
        scale=st.floats(min_value=1e-6, max_value=1e6),
    )
    def test_invariant_under_complex_scaling(self, theta, scale):
        const = scale * complex(math.cos(theta), math.sin(theta))
        p = BarrierProblem.from_ev_nm(1.5, 10.0, 0.5)
        ev = energy_ev_to_si(1.0)
        fake = lambda e: cmath.exp(0.8j * e / ev) * (2.0 + 0.5j)
        with pytest.MonkeyPatch.context() as mp:
            substitute_t(mp, fake)
            plain = phase_time_numeric(p, 0.3)
            substitute_t(mp, lambda e: const * fake(e))
            scaled = phase_time_numeric(p, 0.3)
        assert scaled == pytest.approx(plain, rel=1e-12, abs=0)


class TestDwellTime:
    def test_routes_agree_at_half_height(self):
        p = BarrierProblem.from_ev_nm(5.0, 10.0, 0.5)
        numeric = dwell_time_numeric(p)
        analytic = dwell_closed(p)
        assert abs(numeric - analytic) <= AGREEMENT * analytic

    def test_routes_agree_across_grid(self):
        for e_ratio in (0.05, 0.3, 0.7, 0.95):
            for d_nm in (0.1, 0.5, 1.0):
                p = BarrierProblem.from_ev_nm(10.0 * e_ratio, 10.0, d_nm)
                numeric = dwell_time_numeric(p)
                analytic = dwell_closed(p)
                assert abs(numeric - analytic) <= AGREEMENT * analytic

    @pytest.mark.parametrize(
        "args",
        [
            (5.0, 10.0, 1.0),
            (0.1, 10.0, 3.0),
            (9.9, 10.0, 0.1),
            (5.0, 10.0, 1e-4),
            (1.0, 20.0, 15.67),  # kappa d ~ 350
            (10.0 - 1e-5, 10.0, 1.0),  # near the barrier top: the edge form
            (10.0 - 1.1e-6, 10.0, 0.05),
            (10.0 - 1.01e-6, 10.0, 1e-4),  # kappa d ~ 5e-7
        ],
        ids=str,
    )
    def test_numerator_matches_mpmath(self, args):
        pytest.importorskip("mpmath")
        p = BarrierProblem.from_ev_nm(*args)
        stored = dwell_time_numeric(p) * incident_flux(p)
        want = mp_dwell_numerator(p)
        assert abs(stored - want) <= 1e-12 * want

    def test_takes_the_given_solution(self, monkeypatch):
        p = BarrierProblem.from_ev_nm(5.0, 10.0, 0.5)
        sol = stationary_solution(p)

        def unsolvable(problem):
            raise AssertionError("solved again")

        monkeypatch.setattr(times, "stationary_solution", unsolvable)
        assert dwell_time_numeric(p, solution=sol) > 0.0

    def test_positive_across_grid(self):
        for e_ratio in (0.01, 0.5, 0.99):
            for d_nm in (0.1, 1.0):
                assert dwell_closed(
                    BarrierProblem.from_ev_nm(10.0 * e_ratio, 10.0, d_nm)
                ) > 0.0

    def test_vanishing_barrier_limit(self):
        thin = dwell_closed(BarrierProblem.from_ev_nm(5.0, 10.0, 1e-4))
        thinner = dwell_closed(BarrierProblem.from_ev_nm(5.0, 10.0, 5e-5))
        assert 0.0 < thin < 1e-18
        assert thin == pytest.approx(2.0 * thinner, rel=1e-6, abs=0)

    def test_never_exceeds_phase_time(self):
        # the phase time carries the self-interference delay on top of the
        # stored probability, so the dwell time sits below it everywhere
        for e_ratio in (0.05, 0.3, 0.5, 0.7, 0.95):
            for d_nm in (0.1, 0.4, 0.7, 1.0):
                p = BarrierProblem.from_ev_nm(10.0 * e_ratio, 10.0, d_nm)
                assert dwell_closed(p) < phase_closed(p)


class TestTraversalTime:
    def test_hand_value(self):
        # m d / (hbar kappa) at 5 eV under a 10 eV, 1 nm barrier
        assert bl_time(BarrierProblem.from_ev_nm(5.0, 10.0, 1.0)) == pytest.approx(
            7.540e-16, rel=1e-3, abs=0
        )

    def test_linear_in_thickness(self):
        once = bl_time(BarrierProblem.from_ev_nm(5.0, 10.0, 0.5))
        twice = bl_time(BarrierProblem.from_ev_nm(5.0, 10.0, 1.0))
        assert twice == pytest.approx(2.0 * once, rel=1e-14, abs=0)

    def test_grows_with_energy(self):
        values = [
            bl_time(BarrierProblem.from_ev_nm(e_ev, 10.0, 1.0))
            for e_ev in (1.0, 3.0, 5.0, 7.0, 9.0)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))


def scaled_points():
    """kappa d from 1e-3 to 3e3 at energy ratios up to 0.999 and three heights."""
    for ratio in (0.01, 0.1, 0.5, 0.9, 0.99, 0.999):
        for v0 in (1.0, 10.0, 25.0):
            kappa = wavenumbers(BarrierProblem.from_ev_nm(ratio * v0, v0, 1.0)).kappa
            for kappa_d in (1e-3, 3e-3, 1e-2, 0.1, 0.4, 0.6, 1.0, 10.0, 100.0, 355.0,
                            710.0, 1e3, 3e3):
                yield BarrierProblem.from_ev_nm(ratio * v0, v0, kappa_d / kappa * 1e9)


class TestScaledForms:
    """The e^{-kappa d}-scaled forms against the unscaled ones at 50 digits."""

    def test_match_mpmath_from_thin_to_thick(self):
        pytest.importorskip("mpmath")
        for p in scaled_points():
            reduced, phase, dwell, scaled = mp_closed_forms(p)
            sol = stationary_solution(p)
            got = sol.t * cmath.exp(1j * sol.wavenumbers.k * p.thickness)
            assert abs(got - reduced) <= 1e-12 * abs(reduced)
            assert phase_closed(p) == pytest.approx(phase, rel=1e-12, abs=0)
            assert dwell_closed(p) == pytest.approx(dwell, rel=1e-12, abs=0)
            assert closed_times(p)[2] == pytest.approx(scaled, rel=1e-12)

    def test_printed_denominator_is_the_scaled_one_times_e_2_kappa_d(self):
        p = BarrierProblem.from_ev_nm(5.0, 10.0, 1.0)
        wn = wavenumbers(p)
        g = 2.0 * CONSTANTS.electron_mass * p.height / CONSTANTS.hbar**2
        textbook = 4.0 * wn.kappa**2 * wn.k**2 + g**2 * math.sinh(wn.kappa * p.thickness) ** 2
        assert shared_denominator(p) == pytest.approx(textbook, rel=1e-14)

    def test_printed_denominator_is_not_a_double_on_a_thick_barrier(self):
        # kappa d of about 458
        with pytest.raises(OverflowError):
            shared_denominator(BarrierProblem.from_ev_nm(5.0, 10.0, 40.0))

    def test_stencil_phase_is_finite_where_s_underflows(self):
        # kappa d of about 2300: S is below the smallest double, t is not
        p = BarrierProblem.from_ev_nm(5.0, 10.0, 200.0)
        assert stationary_solution(p).S == 0
        assert phase_time_numeric(p) == pytest.approx(phase_closed(p), rel=AGREEMENT, abs=0)


class TestSaturationAndDisagreement:
    def test_phase_and_dwell_saturate_on_thick_barriers(self):
        # the d-derivative dies off exponentially, so 0.9 -> 1.0 nm moves
        # both times by far less than 0.1%
        for fn in (phase_time_numeric, dwell_time_numeric):
            at_09 = fn(BarrierProblem.from_ev_nm(5.0, 10.0, 0.9))
            at_10 = fn(BarrierProblem.from_ev_nm(5.0, 10.0, 1.0))
            assert abs(at_10 - at_09) / at_09 < 1e-3

    def test_three_clocks_disagree_pairwise(self):
        p = BarrierProblem.from_ev_nm(5.0, 10.0, 1.0)
        clocks = (phase_closed(p), dwell_closed(p), bl_time(p))
        for i, a in enumerate(clocks):
            for b in clocks[i + 1 :]:
                assert abs(a - b) / max(a, b) > 0.05


class TestTimeReport:
    """The record the ``times`` command prints its columns from."""

    def test_report_is_internally_consistent(self):
        p = BarrierProblem.from_ev_nm(5.0, 10.0, 0.5)
        rec, caught = evaluate(p, SweepConfig())
        assert caught == [] and rec.error == ""
        assert (
            abs(rec.t_ph_numeric_s - rec.t_ph_analytic_s)
            <= AGREEMENT * rec.t_ph_analytic_s
        )
        assert (
            abs(rec.t_dw_numeric_s - rec.t_dw_analytic_s)
            <= AGREEMENT * rec.t_dw_analytic_s
        )
        assert rec.t_bl_s == bl_time(p)
        assert rec.t_eff_s > 0.0
        assert shared_denominator(p) > 0.0

    def test_cross_check_failure_reports_both_values(self):
        # at low energy the 1e-4 eV stencil and the closed form part by more
        # than the 1e-5 runtime tolerance
        p = BarrierProblem.from_ev_nm(0.02, 1.0, 3.0)
        rec, caught = evaluate(p, SweepConfig(v0_ev=1.0))
        assert [type(exc) for exc in caught] == [NoConvergence]
        assert str(caught[0]) == rec.error
        assert rec.error == (
            f"phase cross-check: numeric {rec.t_ph_numeric_s!r} "
            f"vs analytic {rec.t_ph_analytic_s!r}"
        )
