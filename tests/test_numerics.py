import math

import numpy as np
import pytest

from oracles import find_first_crossing, integrate
from tunneltimes import numerics
from tunneltimes.errors import DomainError, NoConvergence
from tunneltimes.numerics import scaled_e1


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
            integrate(step, 0.0, 1.0)

    def test_samples_only_the_new_midpoints(self):
        sizes = []

        def counted(x):
            sizes.append(x.size)
            return np.exp(-x)

        integrate(counted, 0.0, 2.0)
        assert sizes == [4001, 4000]

    def test_bad_shapes_rejected(self):
        # stacked rows included: every caller integrates one function
        with pytest.raises(DomainError):
            integrate(lambda x: np.stack([x, x]), 0.0, 1.0)
        with pytest.raises(DomainError):
            integrate(lambda x: np.ones(x.size + 1), 0.0, 1.0)


class TestScaledE1:
    # the series region (|z| + Re z <= 2), the continued fraction around it,
    # the conjugate pairs the spectrum uses, and the negative half-plane up to
    # |z| of several hundred, where E1 itself over- or underflows; past |z| of
    # 700 the continued fraction takes the negative real axis too
    POINTS = (
        0.3, 1e-8 + 2e-8j, 0.5 - 0.5j, -0.4 + 0.1j, 2.0, 1.0 + 1.0j, 3.0 - 40.0j,
        0.016 + 75.0j, -0.016 - 75.0j, 11.5 + 75.0j, -11.5 - 75.0j, -1.0 + 1e-12j,
        -2.5 + 0.3j, -350.0 - 21.9j, 350.0 + 21.9j, -20.0 + 20.0j, 1e4 - 3e3j,
        -700.0 + 0.5j, -800.0 - 5.0j, -3950.0 - 18.0j, -1e6 - 1e-3j,
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
