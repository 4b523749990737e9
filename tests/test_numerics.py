import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import DEFAULT_QUADRATURE, QuadratureSpec, find_first_crossing, integrate
from tunneltimes import numerics
from tunneltimes.errors import DomainError, NoConvergence, ValidationError
from tunneltimes.numerics import differentiate_phase, scaled_e1

GAUSS = QuadratureSpec("gauss-legendre", 64, 1e-9)


class TestQuadratureSpec:
    def test_defaults_are_valid(self):
        assert DEFAULT_QUADRATURE.method == "composite-simpson"
        assert DEFAULT_QUADRATURE.panels_or_nodes == 4000
        assert DEFAULT_QUADRATURE.rel_tol == 1e-9

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"method": "romberg"},
            {"panels_or_nodes": 4},
            {"panels_or_nodes": 9},  # simpson needs an even panel count
            {"rel_tol": 0.0},
            {"rel_tol": 1e-2},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            QuadratureSpec(**kwargs)


class TestIntegrate:
    def test_polynomial(self):
        assert integrate(lambda x: x**2, 0.0, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_exponential(self):
        want = 1.0 - math.exp(-2.0)  # analytic antiderivative
        assert integrate(lambda x: np.exp(-x), 0.0, 2.0) == pytest.approx(want, rel=1e-12)

    def test_oscillatory(self):
        # antiderivative -cos(50x)/50: over [0, pi/2] the integral is exactly
        # 1/25, over [0, pi] it cancels to zero
        got = integrate(lambda x: np.sin(50.0 * x), 0.0, math.pi / 2.0)
        assert got == pytest.approx(1.0 / 25.0, rel=1e-9)
        got = integrate(lambda x: np.sin(50.0 * x), 0.0, math.pi)
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_gauss_legendre_polynomial_exactness(self):
        # 8 Gauss nodes integrate polynomials through degree 15 exactly
        spec = QuadratureSpec("gauss-legendre", 8, 1e-9)
        assert integrate(lambda x: x**15, 0.0, 1.0, spec) == pytest.approx(
            1.0 / 16.0, rel=1e-13
        )

    def test_additive_over_subintervals(self):
        f = lambda x: np.exp(-x) * np.sin(3.0 * x)
        whole = integrate(f, 0.0, 2.0)
        split = integrate(f, 0.0, 0.7) + integrate(f, 0.7, 2.0)
        assert abs(whole - split) < 1e-12

    def test_empty_interval_rejected(self):
        with pytest.raises(DomainError):
            integrate(lambda x: x, 1.0, 1.0)

    def test_non_finite_integrand_rejected(self):
        with pytest.raises(DomainError):
            integrate(lambda x: np.full_like(x, np.inf), 0.0, 1.0)

    def test_discontinuity_stalls_refinement(self):
        step = lambda x: np.where(x > 1.0 / math.pi, 1.0, 0.0)
        with pytest.raises(NoConvergence):
            integrate(step, 0.0, 1.0, QuadratureSpec(panels_or_nodes=8, rel_tol=1e-9))


class TestStackedIntegrands:
    ROWS = (
        lambda x: np.exp(-x) * np.sin(3.0 * x),
        lambda x: x**2,
        lambda x: np.cos(40.0 * x) / (1.0 + x),
    )

    @pytest.mark.parametrize(
        "spec", [DEFAULT_QUADRATURE, GAUSS], ids=["simpson", "gauss"]
    )
    def test_each_row_equals_integrating_it_alone(self, spec):
        stacked = integrate(lambda x: np.stack([f(x) for f in self.ROWS]), 0.0, 2.0, spec)
        assert stacked == tuple(integrate(f, 0.0, 2.0, spec) for f in self.ROWS)

    def test_rows_converge_at_their_own_level(self):
        # x^2 is exact on the first doubling; sin(5x) needs several more, and
        # the x^2 row keeps the value it converged at
        spec = QuadratureSpec(panels_or_nodes=8, rel_tol=1e-9)
        smooth = lambda x: x**2
        wiggly = lambda x: np.sin(5.0 * x)
        sizes = []

        def both(x):
            sizes.append(x.size)
            return np.stack([smooth(x), wiggly(x)])

        pair = integrate(both, 0.0, 1.0, spec)
        assert len(sizes) > 3
        alone = (integrate(smooth, 0.0, 1.0, spec), integrate(wiggly, 0.0, 1.0, spec))
        assert pair == alone

    def test_single_row_stack_returns_a_tuple(self):
        got = integrate(lambda x: np.exp(-x)[np.newaxis], 0.0, 2.0)
        assert got == (integrate(lambda x: np.exp(-x), 0.0, 2.0),)

    def test_simpson_samples_only_the_new_midpoints(self):
        sizes = []

        def counted(x):
            sizes.append(x.size)
            return np.exp(-x)

        integrate(counted, 0.0, 2.0)
        assert sizes == [4001, 4000]

    def test_gauss_legendre_resamples_every_node(self):
        sizes = []

        def counted(x):
            sizes.append(x.size)
            return np.exp(-x)

        integrate(counted, 0.0, 2.0, GAUSS)
        assert sizes == [64, 128]

    def test_bad_shapes_rejected(self):
        with pytest.raises(DomainError):
            integrate(lambda x: np.ones((2, 2, x.size)), 0.0, 1.0)
        with pytest.raises(DomainError):
            integrate(lambda x: np.ones(x.size + 1), 0.0, 1.0)

    def test_changing_row_count_rejected(self):
        calls = []

        def shifty(x):
            calls.append(None)
            return np.ones((len(calls), x.size))

        with pytest.raises(DomainError):
            integrate(shifty, 0.0, 1.0)

    def test_non_finite_row_rejected(self):
        with pytest.raises(DomainError):
            integrate(lambda x: np.stack([x, np.full_like(x, np.nan)]), 0.0, 1.0)


class TestScaledE1:
    # the series region (|z| + Re z <= 2), the continued fraction around it,
    # the conjugate pairs the spectrum uses, and the negative half-plane up to
    # |z| of several hundred, where E1 itself over- or underflows
    POINTS = (
        0.3, 1e-8 + 2e-8j, 0.5 - 0.5j, -0.4 + 0.1j, 2.0, 1.0 + 1.0j, 3.0 - 40.0j,
        0.016 + 75.0j, -0.016 - 75.0j, 11.5 + 75.0j, -11.5 - 75.0j, -1.0 + 1e-12j,
        -2.5 + 0.3j, -350.0 - 21.9j, 350.0 + 21.9j, -20.0 + 20.0j, 1e4 - 3e3j,
        -700.0 + 0.5j,
    )

    @pytest.mark.parametrize("z", POINTS, ids=str)
    def test_matches_mpmath(self, z):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            want = complex(mp.exp(z) * mp.e1(z))
        assert abs(scaled_e1(z) - want) <= 1e-14 * abs(want)

    def test_conjugate_symmetry(self):
        for z in (0.2 + 0.1j, 11.5 + 75.0j, -350.0 - 21.9j):
            want = scaled_e1(z).conjugate()
            assert scaled_e1(z.conjugate()) == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("z", [0.0, -1.0, -1e-300], ids=str)
    def test_branch_cut_rejected(self, z):
        with pytest.raises(DomainError):
            scaled_e1(z)

    @pytest.mark.parametrize("z", [0.5 + 0.1j, 5.0 + 5.0j], ids=["series", "fraction"])
    def test_iteration_cap_raises(self, monkeypatch, z):
        monkeypatch.setattr(numerics, "_MAX_TERMS", 3)
        with pytest.raises(NoConvergence):
            scaled_e1(z)


class TestDifferentiatePhase:
    def test_linear_phase(self):
        c = 1.3
        got = differentiate_phase(lambda e: np.exp(1j * c * e), 2.0, 0.9)
        assert got == pytest.approx(c, rel=1e-12)

    def test_constant_function(self):
        assert differentiate_phase(lambda e: 0.7 - 0.2j, 1.0, 0.1) == 0.0

    def test_unwrap_across_branch_cut(self):
        # arg crosses +/- pi between the stencil points; the raw difference
        # would be ~2 pi off without the wrap
        c = 3.0
        got = differentiate_phase(lambda e: np.exp(1j * c * e), math.pi / c, 0.2)
        assert got == pytest.approx(c, rel=1e-12)

    @given(
        theta=st.floats(min_value=-math.pi, max_value=math.pi),
        scale=st.floats(min_value=1e-6, max_value=1e6),
    )
    def test_invariant_under_complex_scaling(self, theta, scale):
        const = scale * complex(math.cos(theta), math.sin(theta))
        g = lambda e: np.exp(1j * 0.8 * e) * (2.0 + 0.5j)
        plain = differentiate_phase(g, 1.5, 0.3)
        scaled = differentiate_phase(lambda e: const * g(e), 1.5, 0.3)
        assert scaled == pytest.approx(plain, rel=1e-12, abs=1e-12)

    def test_nonpositive_step_rejected(self):
        with pytest.raises(DomainError):
            differentiate_phase(lambda e: 1.0 + 0j, 1.0, 0.0)

    def test_vanishing_function_rejected(self):
        with pytest.raises(DomainError):
            differentiate_phase(lambda e: 0.0j, 1.0, 0.1)

    def test_domain_bounds_enforced(self):
        with pytest.raises(DomainError):
            differentiate_phase(lambda e: np.exp(1j * e), 0.5, 0.6, domain=(0.0, 10.0))


class TestFindFirstCrossing:
    def test_exponential_crossing(self):
        got = find_first_crossing(lambda x: np.exp(-x), math.exp(-2.0), 0.0, 10.0)
        assert got == pytest.approx(2.0, abs=1e-8)

    def test_no_crossing_is_a_value(self):
        assert find_first_crossing(lambda x: np.ones_like(x), 0.5, 0.0, 1.0) is None

    def test_first_crossing_semantics(self):
        # cos crosses zero at pi/2, 3pi/2, ...; the first one must win
        got = find_first_crossing(lambda x: np.cos(x), 0.0, 0.0, 10.0)
        assert got == pytest.approx(math.pi / 2.0, abs=1e-8)

    def test_exact_grid_hit_is_returned(self):
        # 65 scan points on [0, 1] place a node exactly on x = 0.5
        got = find_first_crossing(lambda x: x - 0.5, 0.0, 0.0, 1.0, scan_points=65)
        assert got == 0.5

    def test_scan_resolution_floor(self):
        with pytest.raises(DomainError):
            find_first_crossing(lambda x: x, 0.5, 0.0, 1.0, scan_points=32)

    def test_reversed_interval_rejected(self):
        with pytest.raises(DomainError):
            find_first_crossing(lambda x: x, 0.5, 1.0, 0.0)
