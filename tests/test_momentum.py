import math
import random
import tracemalloc

import numpy as np
import pytest

from oracles import (
    evaluate_point,
    integrate,
    momentum_amplitude,
    momentum_density,
    mp_window_moments,
    mp_window_moments_by_quadrature,
    psi_barrier,
    quartile_width,
    two_integral_moments,
)
from tunneltimes.barrier import BarrierProblem, stationary_solution
from tunneltimes.constants import (
    ELECTRON_MASS,
    EV_TO_JOULE,
    HBAR,
    SPEED_OF_LIGHT,
    energy_si_to_ev,
)
from tunneltimes.errors import DomainError
from tunneltimes.momentum import (
    _SUMMED_TAILS_KAPPA_D,
    EffectiveKinematics,
    MomentumSpectrum,
    _decayed_sinh_tails,
    _sinh_tails,
    momentum_spectrum,
)
from tunneltimes.sweep import SweepConfig

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def quadrature_amplitude(sol, wavenumber):
    """The defining Fourier integral, evaluated numerically part by part."""
    d = sol.problem.thickness
    real = integrate(
        lambda x: np.real(np.exp(-1j * wavenumber * x) * psi_barrier(sol, x)), 0.0, d
    )
    imag = integrate(
        lambda x: np.imag(np.exp(-1j * wavenumber * x) * psi_barrier(sol, x)), 0.0, d
    )
    return complex(real, imag) / SQRT_TWO_PI


class TestMomentumAmplitude:
    def test_zero_wavenumber_antiderivative(self):
        sol = stationary_solution(BarrierProblem.from_ev_nm(4.0, 10.0, 0.6))
        kappa = sol.kappa
        d = sol.problem.thickness
        want = (
            sol.A * (math.exp(kappa * d) - 1.0) / kappa
            + sol.B * (1.0 - math.exp(-kappa * d)) / kappa
        ) / SQRT_TWO_PI
        assert momentum_amplitude(sol, 0.0) == pytest.approx(want, rel=1e-13, abs=0)

    @pytest.mark.parametrize("e_ratio", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("d_nm", [0.3, 1.0])
    def test_closed_form_matches_quadrature(self, e_ratio, d_nm):
        p = BarrierProblem.from_ev_nm(10.0 * e_ratio, 10.0, d_nm)
        sol = stationary_solution(p)
        for wavenumber in (-p.cutoff, -p.cutoff / 2, 0.0, p.cutoff / 2, p.cutoff):
            closed = momentum_amplitude(sol, wavenumber)
            quad = quadrature_amplitude(sol, wavenumber)
            assert abs(closed.real - quad.real) <= 1e-8 * abs(closed.real)
            assert abs(closed.imag - quad.imag) <= 1e-8 * abs(closed.imag)

    def test_vanishing_barrier_limit(self):
        # |amplitude| is bounded by d * max|psi| / sqrt(2 pi), which goes to
        # zero with the interval
        p = BarrierProblem.from_ev_nm(5.0, 10.0, 1e-4)
        sol = stationary_solution(p)
        xs = np.linspace(0.0, p.thickness, 64)
        bound = p.thickness * np.max(np.abs(psi_barrier(sol, xs))) / SQRT_TWO_PI
        assert abs(momentum_amplitude(sol, 0.0)) <= bound


class TestMomentumPdf:
    def test_normalization(self):
        spectrum = momentum_spectrum(BarrierProblem.from_ev_nm(3.0, 10.0, 0.8))
        total = integrate(
            lambda ks: momentum_density(spectrum, ks),
            -spectrum.problem.cutoff,
            spectrum.problem.cutoff,
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_nonnegative(self):
        spectrum = momentum_spectrum(BarrierProblem.from_ev_nm(3.0, 10.0, 0.8))
        ks = np.linspace(-spectrum.problem.cutoff, spectrum.problem.cutoff, 501)
        assert np.all(momentum_density(spectrum, ks) >= 0.0)

    def test_outside_window_rejected(self):
        spectrum = momentum_spectrum(BarrierProblem.from_ev_nm(3.0, 10.0, 0.8))
        with pytest.raises(DomainError):
            momentum_density(spectrum, 1.001 * spectrum.problem.cutoff)

    def test_width_shrinks_with_energy_on_thick_barrier(self):
        wide = momentum_spectrum(BarrierProblem.from_ev_nm(1.0, 10.0, 1.0))
        narrow = momentum_spectrum(BarrierProblem.from_ev_nm(9.0, 10.0, 1.0))
        assert quartile_width(narrow) < quartile_width(wide)


def moment_gap(problem, reference) -> float:
    """Worst relative gap of the spectrum's two moments from a reference pair."""
    spectrum = momentum_spectrum(problem)
    got = (spectrum.normalization, spectrum.second_moment)
    return max(abs(g - r) / abs(r) for g, r in zip(got, reference))


def paper_grid():
    return [
        BarrierProblem.from_ev_nm(10.0 * e_ratio, 10.0, d_nm)
        for e_ratio in (0.01, 0.1, 0.5, 0.9, 0.99)
        for d_nm in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    ]


def random_thin_points(count: int = 200):
    rng = random.Random(6_0611)
    points = []
    for _ in range(count):
        v0 = rng.uniform(1.0, 20.0)
        e_ev = v0 * rng.uniform(max(0.01, 0.1 / v0), 0.99)
        points.append(BarrierProblem.from_ev_nm(e_ev, v0, rng.uniform(0.05, 3.0)))
    return points


def series_points(count: int = 60):
    """Seeded problems with kappa d below 1/2, or a window c d of at most 2."""
    rng = random.Random(6_0612)
    ev = EV_TO_JOULE
    points = []
    for i in range(count):
        v0 = rng.uniform(1.0, 20.0)
        e_ev = v0 * rng.uniform(0.01, 0.99)
        if i % 2:
            log_kappa_d, log_edge = rng.uniform(-7.0, -0.3), rng.uniform(-6.0, 4.0)
        else:
            log_kappa_d, log_edge = rng.uniform(-0.3, 2.7), rng.uniform(-6.0, 0.3)
        kappa = math.sqrt(2.0 * ELECTRON_MASS * (v0 - e_ev) * ev) / HBAR
        d = 10.0**log_kappa_d / kappa
        points.append(BarrierProblem(e_ev * ev, v0 * ev, d, 10.0**log_edge / d))
    return points


class TestWindowMoments:
    @pytest.mark.parametrize(
        "e_ratio, d_nm", [(0.01, 0.1), (0.1, 1.0), (0.5, 0.4), (0.9, 0.7), (0.99, 1.0)]
    )
    def test_closed_form_matches_two_integrals(self, e_ratio, d_nm):
        # the quadrature reference holds its rows to 1e-9 relative
        p = BarrierProblem.from_ev_nm(10.0 * e_ratio, 10.0, d_nm)
        assert moment_gap(p, two_integral_moments(p)) <= 1e-9

    def test_closed_form_matches_mpmath_on_the_paper_grid_and_thin_points(self):
        pytest.importorskip("mpmath")
        worst = max(moment_gap(p, mp_window_moments(p)) for p in paper_grid())
        assert worst <= 1e-12
        worst = max(moment_gap(p, mp_window_moments(p)) for p in random_thin_points())
        assert worst <= 1e-12

    @pytest.mark.parametrize(
        "e_ev, v0_ev, d_nm",
        [
            (10.0 - 1e-5, 10.0, 1.0),  # near threshold, kappa d ~ 0.016
            (10.0 - 1e-5, 10.0, 3.0),
            (5.0, 10.0, 30.55),  # kappa d ~ 350
            (1.0, 20.0, 15.67),  # kappa d ~ 350 on a taller barrier
            (10.0 - 1e-5, 10.0, 0.1),  # kappa d ~ 1.6e-3: the series route
            (10.0 - 1e-5, 10.0, 0.05),
            (5.0, 10.0, 1e-4),  # kappa d ~ 1.1e-3 far from the barrier top
            (5.0, 10.0, 200.0),  # kappa d ~ 2300: S underflows, t does not
            (1.0, 20.0, 100.0),  # kappa d ~ 2200 on a taller barrier
        ],
    )
    @pytest.mark.parametrize("cutoff", [1e9, 7.5e10, 1e13])
    def test_closed_form_matches_mpmath_at_the_corners(self, e_ev, v0_ev, d_nm, cutoff):
        pytest.importorskip("mpmath")
        p = BarrierProblem.from_ev_nm(e_ev, v0_ev, d_nm, cutoff=cutoff)
        assert moment_gap(p, mp_window_moments(p)) <= 1e-9

    def test_series_route_matches_mpmath(self):
        # small kappa d at any window, and windows narrower than 2/d at any
        # kappa d: where the exponential sum cancels
        pytest.importorskip("mpmath")
        worst = max(moment_gap(p, mp_window_moments(p)) for p in series_points())
        assert worst <= 1e-12

    @pytest.mark.parametrize(
        "args",
        [
            (10.0 - 1e-5, 10.0, 0.05, 7.5e10),  # centre and tail
            (10.0 - 1e-5, 10.0, 0.1, 1e9),  # centre only
            (5.0, 10.0, 1e-4, 1e9),
            (5.0, 10.0, 1.0, 1e9),  # kappa d ~ 11 on a narrow window
        ],
        ids=str,
    )
    def test_series_route_matches_two_integrals(self, args):
        p = BarrierProblem.from_ev_nm(*args)
        assert moment_gap(p, two_integral_moments(p)) <= 1e-9

    @pytest.mark.parametrize(
        "args", [(1.0, 10.0, 0.1), (10.0 - 1e-5, 10.0, 1.0, 1e9)], ids=str
    )
    def test_mpmath_oracle_matches_mpmath_quadrature(self, args):
        pytest.importorskip("mpmath")
        p = BarrierProblem.from_ev_nm(*args)
        series = mp_window_moments(p)
        quadrature = mp_window_moments_by_quadrature(p)
        for a, b in zip(series, quadrature):
            assert abs(a - b) <= 1e-15 * abs(b)

    def test_wide_window_is_refused_as_superluminal(self):
        # the moments of a 1e15 per metre window are finite; its v_rms is not
        # physical
        p = BarrierProblem.from_ev_nm(5.0, 10.0, 1.0, cutoff=1e15)
        spectrum = momentum_spectrum(p)
        with pytest.raises(DomainError, match="superluminal"):
            spectrum.kinematics()


class TestThickSeriesRoute:
    """c d <= 2 past kappa d = 700, where summing T_p would overflow."""

    @staticmethod
    def problem(kappa_d, edge=1.0):
        ev = EV_TO_JOULE
        kappa = math.sqrt(2.0 * ELECTRON_MASS * 5.0 * ev) / HBAR
        d = kappa_d / kappa
        return BarrierProblem(5.0 * ev, 10.0 * ev, d, edge / d)

    @pytest.mark.parametrize("kappa_d", [700.0, 1145.0, 3e3, 1e5, 1e7], ids=str)
    def test_finite_positive_moments_in_bounded_memory(self, kappa_d):
        problem = self.problem(kappa_d)
        tracemalloc.start()
        try:
            spectrum = momentum_spectrum(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert 0.0 < spectrum.normalization < math.inf
        assert 0.0 < spectrum.second_moment < math.inf

    @pytest.mark.parametrize("edge", [1e-3, 1.0, 2.0], ids=str)
    def test_matches_mpmath_at_kappa_d_800(self, edge):
        pytest.importorskip("mpmath")
        problem = self.problem(800.0, edge)
        assert moment_gap(problem, mp_window_moments(problem)) <= 1e-9

    def test_the_summed_and_closed_tails_meet(self):
        # on either side of the switch the two forms of T_p agree
        for kappa_d in (_SUMMED_TAILS_KAPPA_D, 2.0 * _SUMMED_TAILS_KAPPA_D):
            summed = _sinh_tails(kappa_d) * math.exp(-kappa_d)
            np.testing.assert_allclose(_decayed_sinh_tails(kappa_d), summed, rtol=1e-14)

    def test_a_thick_barrier_under_a_narrow_window_sweeps_cleanly(self):
        # d = 100 nm, Kprime = 1e7 /m: c d = 1, kappa d of about 1145
        rec = evaluate_point(SweepConfig(cutoff=1e7), 0.5, 100.0)
        assert rec.error == "" and rec.t_eff_s > 0.0


class TestEffectiveKinematics:

    def test_derived_quantities_are_consistent(self):
        p = BarrierProblem.from_ev_nm(5.0, 10.0, 1.0)
        kin = momentum_spectrum(p).kinematics()
        assert kin.v_rms == pytest.approx(
            HBAR * kin.k_rms / ELECTRON_MASS, rel=1e-14
        )
        assert kin.t_eff == pytest.approx(p.thickness / kin.v_rms, rel=1e-14, abs=0)
        assert kin.eps_eff == pytest.approx(
            0.5 * ELECTRON_MASS * kin.v_rms**2, rel=1e-14, abs=0
        )

    def test_rms_wavenumber_bounded_by_window(self):
        for e_ratio in (0.01, 0.5, 0.99):
            p = BarrierProblem.from_ev_nm(10.0 * e_ratio, 10.0, 0.5)
            assert momentum_spectrum(p).kinematics().k_rms <= p.cutoff

    def test_rms_wavenumber_grows_with_window(self):
        base = BarrierProblem.from_ev_nm(3.0, 10.0, 0.7)
        wider = BarrierProblem.from_ev_nm(3.0, 10.0, 0.7, cutoff=1.5 * base.cutoff)
        assert (
            momentum_spectrum(wider).kinematics().k_rms
            >= momentum_spectrum(base).kinematics().k_rms
        )

    def test_transit_time_grows_with_thickness(self):
        times = [
            momentum_spectrum(BarrierProblem.from_ev_nm(5.0, 10.0, d)).kinematics().t_eff
            for d in np.arange(0.1, 1.01, 0.1)
        ]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_deep_tunneling_energy_limit(self):
        # the published limiting value of eps_eff + V0 on the 1 nm barrier
        kin = momentum_spectrum(BarrierProblem.from_ev_nm(0.1, 10.0, 1.0)).kinematics()
        total_ev = energy_si_to_ev(kin.eps_eff) + 10.0
        assert total_ev == pytest.approx(34.102, rel=0.02)

    def test_subluminal_on_the_default_window(self):
        for e_ratio in (0.01, 0.5, 0.99):
            for d_nm in (0.1, 1.0):
                kin = momentum_spectrum(
                    BarrierProblem.from_ev_nm(10.0 * e_ratio, 10.0, d_nm)
                ).kinematics()
                assert kin.v_rms < SPEED_OF_LIGHT

    def test_superluminal_kinematics_rejected(self):
        with pytest.raises(DomainError):
            EffectiveKinematics(
                k_rms=3e12, v_rms=3.5e8, t_eff=1e-17, eps_eff=1e-16
            )

    def test_nonpositive_second_moment_rejected(self):
        # a cancelled moment must not reach sqrt() or a division by v_rms
        p = BarrierProblem.from_ev_nm(5.0, 10.0, 1.0)
        sol = stationary_solution(p)
        for second in (0.0, -1e-30, math.nan):
            with pytest.raises(DomainError, match="second moment"):
                MomentumSpectrum(solution=sol, normalization=1.0, second_moment=second)

    def test_nonpositive_kinematics_rejected(self):
        with pytest.raises(DomainError):
            EffectiveKinematics(k_rms=0.0, v_rms=1e6, t_eff=1e-16, eps_eff=1e-18)
