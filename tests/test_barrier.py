import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import continuity_residual, solve_by_matching, transmission_reference
from tunneltimes.barrier import (
    BarrierProblem,
    _wavenumber_pair,
    incident_flux,
    stationary_solution,
    wavenumbers,
)
from tunneltimes.constants import CONSTANTS
from tunneltimes.errors import DomainError

E_RATIOS = (0.01, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99)
D_GRID_NM = (0.1, 0.4, 0.7, 1.0)


def sweep_problems():
    for ratio in E_RATIOS:
        for d_nm in D_GRID_NM:
            yield BarrierProblem.from_ev_nm(10.0 * ratio, 10.0, d_nm)


class TestBarrierProblem:
    @pytest.mark.parametrize(
        "e_ev, v0_ev, d_nm, cutoff",
        [
            (0.0, 10.0, 1.0, 7.5e10),  # zero energy
            (-1.0, 10.0, 1.0, 7.5e10),
            (10.0, 10.0, 1.0, 7.5e10),  # at the top
            (11.0, 10.0, 1.0, 7.5e10),  # over the top
            (10.0 - 1e-8, 10.0, 1.0, 7.5e10),  # inside the guard band
            (5.0, 10.0, 0.0, 7.5e10),
            (5.0, 10.0, -0.5, 7.5e10),
            (5.0, 10.0, 1.0, 0.0),
            (5.0, math.inf, 1.0, 7.5e10),  # non-finite inputs
            (5.0, 10.0, math.inf, 7.5e10),
            (5.0, 10.0, 1.0, math.inf),
        ],
    )
    def test_invalid_inputs_rejected(self, e_ev, v0_ev, d_nm, cutoff):
        with pytest.raises(DomainError):
            BarrierProblem.from_ev_nm(e_ev, v0_ev, d_nm, cutoff)

    @pytest.mark.parametrize(
        "e_ev, d_nm, cutoff, phase",
        [
            (5.0, 1e308, 7.5e10, "barrier phase k d"),  # about 1.1e309
            (1e-30, 2e307, 7.5e10, "barrier phase k d"),  # k d finite, kappa d not
            (5.0, 1e290, 1e300, "window phase Kprime d"),  # k d finite, Kprime d not
        ],
    )
    def test_thickness_with_a_non_finite_phase_rejected(self, e_ev, d_nm, cutoff, phase):
        with pytest.raises(DomainError, match=f"{phase} must be finite"):
            BarrierProblem.from_ev_nm(e_ev, 10.0, d_nm, cutoff)

    def test_energy_whose_wavenumber_underflows_rejected(self):
        # 2 m E rounds to 0 below E of about 2e-275 eV, and k with it
        with pytest.raises(DomainError, match="its wavenumber k underflows to 0"):
            BarrierProblem.from_ev_nm(1e-290, 10.0, 1.0)

    def test_an_energy_is_refused_exactly_where_k_is_zero(self):
        # 2 m E rounds to 0 below E of about 1.4e-294 J; step across it
        height, energy, outcomes = 1.6e-18, 1e-295, set()
        while energy < 1e-293:
            k = _wavenumber_pair(energy, height)[0]
            try:
                BarrierProblem(energy, height, 1e-9)
                accepted = True
            except DomainError:
                accepted = False
            assert accepted == (k > 0), energy
            outcomes.add(accepted)
            energy *= 1.01
        assert outcomes == {True, False}

    def test_largest_thickness_with_a_finite_phase_is_solved(self):
        p = BarrierProblem.from_ev_nm(5.0, 10.0, 1e298)
        sol = stationary_solution(p)
        assert (sol.S, sol.A) == (0, 0)
        # the opaque limit at k = kappa: |t| = 2, so |B| = sqrt(2), and |R| = 1
        assert abs(sol.B) == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert abs(sol.R) == pytest.approx(1.0, rel=1e-12)

    def test_boundary_unit_conversion(self):
        p = BarrierProblem.from_ev_nm(5.0, 10.0, 0.5)
        assert p.energy == pytest.approx(5.0 * 1.6022e-19, rel=1e-15, abs=0)
        assert p.thickness == pytest.approx(0.5e-9, rel=1e-15, abs=0)
        assert p.e_over_v0 == pytest.approx(0.5, rel=1e-15, abs=0)


class TestWavenumbers:
    def test_symmetric_point_has_equal_wavenumbers(self):
        # 2mE equals 2m(V0-E) at E = V0/2
        wn = wavenumbers(BarrierProblem.from_ev_nm(5.0, 10.0, 0.5))
        assert wn.k == wn.kappa

    def test_hand_value_at_half_height(self):
        # sqrt(2 m 5 eV)/hbar with the stored constants
        wn = wavenumbers(BarrierProblem.from_ev_nm(5.0, 10.0, 0.5))
        assert wn.k == pytest.approx(1.1451e10, rel=1e-4)

    def test_hand_value_near_threshold(self):
        # kappa only sees the 0.1 eV gap to the top
        wn = wavenumbers(BarrierProblem.from_ev_nm(9.9, 10.0, 1.0))
        assert wn.kappa == pytest.approx(1.6194e9, rel=1e-4)


class TestStationarySolution:
    def test_transmission_at_half_height(self):
        sol = stationary_solution(BarrierProblem.from_ev_nm(5.0, 10.0, 0.5))
        assert sol.transmission == pytest.approx(4.2543e-5, rel=1e-4)

    def test_transmission_matches_independent_closed_form(self):
        for p in sweep_problems():
            sol = stationary_solution(p)
            ref = transmission_reference(
                p.energy / CONSTANTS.ev_to_joule, 10.0, p.thickness * 1e9
            )
            assert sol.transmission == pytest.approx(ref, rel=1e-12, abs=0)

    def test_flux_conservation(self):
        for p in sweep_problems():
            sol = stationary_solution(p)
            assert abs(sol.transmission + sol.reflection - 1.0) < 1e-12

    def test_coefficients_match_boundary_matching_solve(self):
        for p in sweep_problems():
            sol = stationary_solution(p)
            r_amp, a_amp, b_amp, s_amp = solve_by_matching(
                p.energy / CONSTANTS.ev_to_joule, 10.0, p.thickness * 1e9
            )
            assert sol.S == pytest.approx(s_amp, rel=1e-10, abs=0)
            assert sol.R == pytest.approx(r_amp, rel=1e-10)
            assert sol.A == pytest.approx(a_amp, rel=1e-10, abs=1e-290)
            assert sol.B == pytest.approx(b_amp, rel=1e-10)

    def test_opaque_barrier_limit(self):
        sol = stationary_solution(BarrierProblem.from_ev_nm(0.1, 10.0, 1.0))
        assert sol.transmission < 1e-12

    def test_transmission_monotone_in_thickness(self):
        values = [
            stationary_solution(BarrierProblem.from_ev_nm(5.0, 10.0, d)).transmission
            for d in np.arange(0.1, 1.01, 0.1)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_transmission_monotone_in_energy(self):
        values = [
            stationary_solution(BarrierProblem.from_ev_nm(e, 10.0, 0.6)).transmission
            for e in np.arange(0.5, 9.51, 0.5)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestScaledTransmission:
    def test_s_is_t_times_its_decay(self):
        for p in sweep_problems():
            sol = stationary_solution(p)
            decay = math.exp(-sol.wavenumbers.kappa * p.thickness)
            assert sol.S == sol.t * decay


class TestPsiEvaluation:
    def test_value_continuity_at_both_faces(self):
        sol = stationary_solution(BarrierProblem.from_ev_nm(3.0, 10.0, 0.8))
        d = sol.problem.thickness
        assert sol.psi_barrier(0.0) == pytest.approx(1.0 + sol.R, rel=1e-12)
        transmitted = sol.S * cmath.exp(1j * sol.wavenumbers.k * d)
        assert sol.psi_barrier(d) == pytest.approx(transmitted, rel=1e-12, abs=0)

    def test_out_of_barrier_rejected(self):
        sol = stationary_solution(BarrierProblem.from_ev_nm(3.0, 10.0, 0.8))
        with pytest.raises(DomainError):
            sol.psi_barrier(-1e-12)
        with pytest.raises(DomainError):
            sol.psi_barrier(sol.problem.thickness * 1.001)

    def test_mid_barrier_density_against_matching_solve(self):
        p = BarrierProblem.from_ev_nm(5.0, 10.0, 1.0)
        sol = stationary_solution(p)
        r_amp, a_amp, b_amp, _ = solve_by_matching(5.0, 10.0, 1.0)
        kappa = sol.wavenumbers.kappa
        x = 0.5e-9
        ref = a_amp * math.exp(kappa * x) + b_amp * math.exp(-kappa * x)
        assert sol.psi_barrier(x) == pytest.approx(ref, rel=1e-10, abs=0)

    def test_mid_barrier_density_is_nearly_pure_decay(self):
        # the decaying mode dominates mid-barrier, so the relative density
        # tracks exp(-2 kappa x) closely
        p = BarrierProblem.from_ev_nm(5.0, 10.0, 1.0)
        sol = stationary_solution(p)
        x = 0.5e-9
        ratio = abs(sol.psi_barrier(x)) ** 2 / abs(sol.psi_barrier(0.0)) ** 2
        pure = math.exp(-2.0 * sol.wavenumbers.kappa * x)
        assert abs(ratio - pure) / pure < 0.2

    def test_thick_barrier_wave_is_finite_and_decays(self):
        # kappa d of about 2300: A e^{kappa x} would be 0 * inf
        sol = stationary_solution(BarrierProblem.from_ev_nm(5.0, 10.0, 200.0))
        xs = np.linspace(0.0, sol.problem.thickness, 9)
        psi = sol.psi_barrier(xs)
        assert np.all(np.isfinite(psi))
        assert psi[0] == pytest.approx(1.0 + sol.R, rel=1e-12)
        decay = np.exp(-sol.wavenumbers.kappa * xs[1:4])
        assert np.abs(psi[1:4]) == pytest.approx(abs(sol.B) * decay, rel=1e-12, abs=0)

    def test_vectorized_evaluation_matches_scalars(self):
        sol = stationary_solution(BarrierProblem.from_ev_nm(2.0, 10.0, 0.5))
        xs = np.linspace(0.0, sol.problem.thickness, 7)
        vec = sol.psi_barrier(xs)
        assert vec.shape == xs.shape
        for x, value in zip(xs, vec):
            assert sol.psi_barrier(float(x)) == value


class TestIncidentFlux:
    def test_hand_value_at_half_height(self):
        # hbar k / m with k = 1.1451e10 per metre
        p = BarrierProblem.from_ev_nm(5.0, 10.0, 0.5)
        assert incident_flux(p) == pytest.approx(1.3261e6, rel=1e-4)

    def test_equals_classical_speed(self):
        for e_ev in (0.5, 2.0, 7.0):
            p = BarrierProblem.from_ev_nm(e_ev, 10.0, 0.5)
            classical = math.sqrt(2.0 * p.energy / CONSTANTS.electron_mass)
            assert incident_flux(p) == pytest.approx(classical, rel=1e-14)

    def test_vanishes_with_energy(self):
        # sqrt scaling: every factor 100 down in E costs a factor 10 in flux
        fluxes = [
            incident_flux(BarrierProblem.from_ev_nm(e_ev, 10.0, 0.5))
            for e_ev in (1e-2, 1e-4, 1e-6)
        ]
        assert fluxes[0] > fluxes[1] > fluxes[2]
        assert fluxes[2] == pytest.approx(fluxes[0] / 100.0, rel=1e-12)


class TestContinuityResidual:
    def test_tiny_everywhere_on_the_sweep(self):
        for p in sweep_problems():
            assert max(continuity_residual(stationary_solution(p))) < 1e-10

    def test_tiny_on_thick_barriers(self):
        for d_nm in (40.0, 70.0, 200.0, 1e6):
            sol = stationary_solution(BarrierProblem.from_ev_nm(5.0, 10.0, d_nm))
            assert max(continuity_residual(sol)) < 1e-10

    def test_tiny_near_threshold(self):
        sol = stationary_solution(BarrierProblem.from_ev_nm(9.9, 10.0, 1.0))
        assert max(continuity_residual(sol)) < 1e-10

    def test_perturbed_transmission_is_detected(self):
        # thin barrier, |S| of order one: a 1e-3 nudge on S must blow the
        # exit-face residuals far above their rounding-level baseline
        sol = stationary_solution(BarrierProblem.from_ev_nm(5.0, 10.0, 0.1))
        corrupted = replace(sol, S=sol.S * (1.0 + 1e-3))
        assert max(continuity_residual(corrupted)) > 1e-4
