import cmath
import math

import numpy as np
import pytest

from oracles import (
    continuity_residual,
    psi_barrier,
    replace,
    solve_by_matching,
    transmission_reference,
)
from tunneltimes.barrier import (
    BarrierProblem,
    StationarySolution,
    _coefficients,
    _flux,
    _wavenumber_pair,
    stationary_solution,
)
from tunneltimes.constants import ELECTRON_MASS, EV_TO_JOULE
from tunneltimes.errors import DomainError
from tunneltimes.momentum import EffectiveKinematics, MomentumSpectrum

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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("energy", "8e-19"),
            ("energy", np.array([8e-19, 9e-19])),
            ("height", None),
            ("cutoff", 7.5e10j),
        ],
        ids=["string", "array", "none", "complex"],
    )
    def test_a_value_that_is_not_a_real_number_is_refused(self, field, value):
        # float() would read a string's digits; an array has no truth value
        args = {"energy": 8e-19, "height": 1.6e-18, "thickness": 1e-9, "cutoff": 7.5e10}
        with pytest.raises(DomainError, match=f"^{field} must be a real number$"):
            BarrierProblem(**{**args, field: value})

    def test_a_string_in_boundary_units_is_refused(self):
        with pytest.raises(DomainError, match="^energy_ev must be a real number$"):
            BarrierProblem.from_ev_nm("5", 10, 1)

    def test_numpy_scalars_are_held_as_floats(self):
        p = BarrierProblem(*map(np.float64, (8e-19, 1.6e-18, 1e-9, 7.5e10)))
        assert all(type(value) is float for value in vars(p).values())
        assert repr(p) == (
            "BarrierProblem(energy=8e-19, height=1.6e-18, thickness=1e-09, cutoff=75000000000.0)"
        )

    def test_boundary_unit_conversion(self):
        p = BarrierProblem.from_ev_nm(5.0, 10.0, 0.5)
        assert p.energy == pytest.approx(5.0 * 1.6022e-19, rel=1e-15, abs=0)
        assert p.thickness == pytest.approx(0.5e-9, rel=1e-15, abs=0)
        assert p.e_over_v0 == pytest.approx(0.5, rel=1e-15, abs=0)


class TestWavenumbers:
    def test_symmetric_point_has_equal_wavenumbers(self):
        # 2mE equals 2m(V0-E) at E = V0/2
        sol = stationary_solution(BarrierProblem.from_ev_nm(5.0, 10.0, 0.5))
        assert sol.k == sol.kappa

    def test_hand_value_at_half_height(self):
        # sqrt(2 m 5 eV)/hbar with the stored constants
        sol = stationary_solution(BarrierProblem.from_ev_nm(5.0, 10.0, 0.5))
        assert sol.k == pytest.approx(1.1451e10, rel=1e-4)

    def test_hand_value_near_threshold(self):
        # kappa only sees the 0.1 eV gap to the top
        sol = stationary_solution(BarrierProblem.from_ev_nm(9.9, 10.0, 1.0))
        assert sol.kappa == pytest.approx(1.6194e9, rel=1e-4)


#: A thin barrier (kappa d about 0.11), a paper point (about 11) and a thick
#: one (about 1145), where S, A and a_d underflow to 0.
LAYOUT_POINTS = {"thin": (5.0, 0.01), "paper": (5.0, 1.0), "thick": (5.0, 100.0)}


@pytest.mark.parametrize("point", list(LAYOUT_POINTS))
def test_a_solution_is_the_problem_its_wavenumbers_and_coefficients(point):
    # one flat value: the problem, then (k, kappa), then the coefficients in
    # the order the kernel returns them, each with the kernel's bits
    e_ev, d_nm = LAYOUT_POINTS[point]
    p = BarrierProblem.from_ev_nm(e_ev, 10.0, d_nm)
    sol = stationary_solution(p)
    k, kappa = _wavenumber_pair(p.energy, p.height)
    assert list(vars(sol)) == ["problem", "k", "kappa", "t", "S", "A", "B", "R", "a_d", "b_d"]
    assert repr(tuple(vars(sol).values())) == repr(
        (p, k, kappa, *_coefficients(k, kappa, p.thickness))
    )
    if point == "thick":
        assert kappa * p.thickness > 745.0 and (sol.S, sol.A, sol.a_d) == (0, 0, 0)
    else:
        assert 0.0 not in (sol.S, sol.A, sol.a_d)


class TestStationarySolution:
    def test_transmission_at_half_height(self):
        sol = stationary_solution(BarrierProblem.from_ev_nm(5.0, 10.0, 0.5))
        assert sol.transmission == pytest.approx(4.2543e-5, rel=1e-4)

    def test_transmission_matches_independent_closed_form(self):
        for p in sweep_problems():
            sol = stationary_solution(p)
            ref = transmission_reference(
                p.energy / EV_TO_JOULE, 10.0, p.thickness * 1e9
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
                p.energy / EV_TO_JOULE, 10.0, p.thickness * 1e9
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
            decay = math.exp(-sol.kappa * p.thickness)
            assert sol.S == sol.t * decay


class TestPsiEvaluation:
    def test_value_continuity_at_both_faces(self):
        sol = stationary_solution(BarrierProblem.from_ev_nm(3.0, 10.0, 0.8))
        d = sol.problem.thickness
        assert psi_barrier(sol, 0.0) == pytest.approx(1.0 + sol.R, rel=1e-12)
        transmitted = sol.S * cmath.exp(1j * sol.k * d)
        assert psi_barrier(sol, d) == pytest.approx(transmitted, rel=1e-12, abs=0)

    def test_out_of_barrier_rejected(self):
        sol = stationary_solution(BarrierProblem.from_ev_nm(3.0, 10.0, 0.8))
        with pytest.raises(DomainError):
            psi_barrier(sol, -1e-12)
        with pytest.raises(DomainError):
            psi_barrier(sol, sol.problem.thickness * 1.001)

    def test_mid_barrier_density_against_matching_solve(self):
        p = BarrierProblem.from_ev_nm(5.0, 10.0, 1.0)
        sol = stationary_solution(p)
        r_amp, a_amp, b_amp, _ = solve_by_matching(5.0, 10.0, 1.0)
        kappa = sol.kappa
        x = 0.5e-9
        ref = a_amp * math.exp(kappa * x) + b_amp * math.exp(-kappa * x)
        assert psi_barrier(sol, x) == pytest.approx(ref, rel=1e-10, abs=0)

    def test_mid_barrier_density_is_nearly_pure_decay(self):
        # the decaying mode dominates mid-barrier, so the relative density
        # tracks exp(-2 kappa x) closely
        p = BarrierProblem.from_ev_nm(5.0, 10.0, 1.0)
        sol = stationary_solution(p)
        x = 0.5e-9
        ratio = abs(psi_barrier(sol, x)) ** 2 / abs(psi_barrier(sol, 0.0)) ** 2
        pure = math.exp(-2.0 * sol.kappa * x)
        assert abs(ratio - pure) / pure < 0.2

    def test_thick_barrier_wave_is_finite_and_decays(self):
        # kappa d of about 2300: A e^{kappa x} would be 0 * inf
        sol = stationary_solution(BarrierProblem.from_ev_nm(5.0, 10.0, 200.0))
        xs = np.linspace(0.0, sol.problem.thickness, 9)
        psi = psi_barrier(sol, xs)
        assert np.all(np.isfinite(psi))
        assert psi[0] == pytest.approx(1.0 + sol.R, rel=1e-12)
        decay = np.exp(-sol.kappa * xs[1:4])
        assert np.abs(psi[1:4]) == pytest.approx(abs(sol.B) * decay, rel=1e-12, abs=0)

    def test_vectorized_evaluation_matches_scalars(self):
        sol = stationary_solution(BarrierProblem.from_ev_nm(2.0, 10.0, 0.5))
        xs = np.linspace(0.0, sol.problem.thickness, 7)
        vec = psi_barrier(sol, xs)
        assert vec.shape == xs.shape
        for x, value in zip(xs, vec):
            assert psi_barrier(sol, float(x)) == value


def incident_flux(p):
    """The flux kernel that the record's dwell time divides by, at ``p``."""
    return _flux(stationary_solution(p).k)


class TestIncidentFlux:
    def test_hand_value_at_half_height(self):
        # hbar k / m with k = 1.1451e10 per metre
        p = BarrierProblem.from_ev_nm(5.0, 10.0, 0.5)
        assert incident_flux(p) == pytest.approx(1.3261e6, rel=1e-4)

    def test_equals_classical_speed(self):
        for e_ev in (0.5, 2.0, 7.0):
            p = BarrierProblem.from_ev_nm(e_ev, 10.0, 0.5)
            classical = math.sqrt(2.0 * p.energy / ELECTRON_MASS)
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


def check_value_class(cls, make_args, pinned, other):
    """The contract of the package's immutable value classes, on
    ``cls(*make_args())`` whose repr is ``pinned``: built by position or by
    keyword, with the defaults the repr shows, in the repr's field order;
    equal, with equal hashes, to an instance built from equal fields, and
    unequal to ``other``, an instance of another class; no field, and no new
    attribute, assigned or deleted."""
    args = make_args()
    value = cls(*args)
    assert repr(value) == pinned
    fields = dict(vars(value))
    assert cls(**dict(zip(fields, args))) == value
    assert cls(*fields.values()) == value
    twin = cls(*make_args())
    assert twin is not value and twin == value and hash(twin) == hash(value)
    assert value.__eq__(other) is NotImplemented and value != other
    for name in (*fields, "new"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0.0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert vars(value) == fields


PROBLEM_REPR = (
    "BarrierProblem(energy=8e-19, height=1.6e-18, thickness=1e-09, cutoff=75000000000.0)"
)
SOLUTION_REPR = (
    f"StationarySolution(problem={PROBLEM_REPR}, k=1.0, kappa=2.0, "
    "t=1j, S=2j, A=3j, B=4j, R=5j, a_d=6j, b_d=7j)"
)


def solution_args():
    return (BarrierProblem(8e-19, 1.6e-18, 1e-9), 1.0, 2.0, 1j, 2j, 3j, 4j, 5j, 6j, 7j)


#: The value classes of the barrier and momentum modules: each with a
#: function that makes its arguments afresh, its pinned repr, and an instance
#: of another class.
VALUE_CLASSES = [
    (BarrierProblem, lambda: (8e-19, 1.6e-18, 1e-9), PROBLEM_REPR,
     EffectiveKinematics(1.0, 2.0, 3.0, 4.0)),
    (StationarySolution, solution_args, SOLUTION_REPR, BarrierProblem(8e-19, 1.6e-18, 1e-9)),
    (EffectiveKinematics, lambda: (1.0, 2.0, 3.0, 4.0),
     "EffectiveKinematics(k_rms=1.0, v_rms=2.0, t_eff=3.0, eps_eff=4.0)",
     BarrierProblem(8e-19, 1.6e-18, 1e-9)),
    (MomentumSpectrum, lambda: (StationarySolution(*solution_args()), 1.0, 2.0),
     f"MomentumSpectrum(solution={SOLUTION_REPR}, normalization=1.0, second_moment=2.0)",
     StationarySolution(*solution_args())),
]


@pytest.mark.parametrize(
    "cls, make_args, pinned, other", VALUE_CLASSES,
    ids=[case[0].__name__ for case in VALUE_CLASSES],
)
def test_value_class_contract(cls, make_args, pinned, other):
    check_value_class(cls, make_args, pinned, other)
