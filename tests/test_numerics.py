import cmath
import math

import numpy as np
import pytest

from oracles import find_first_crossing, integrate
from tunneltimes import numerics
from tunneltimes.errors import DomainError, NoConvergence
from tunneltimes.numerics import scaled_e1, scaled_e1_grid


class TestIntegrate:
    def test_polynomial(self):
        assert integrate(lambda x: x**2, 0.0, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-12, abs=0)

    def test_exponential(self):
        want = 1.0 - math.exp(-2.0)  # analytic antiderivative
        assert integrate(lambda x: np.exp(-x), 0.0, 2.0) == pytest.approx(want, rel=1e-12, abs=0)

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
    # 700 the continued fraction takes the negative real axis too; from
    # |Re z| = 2^54, where the fraction stalls, the asymptotic series, in all
    # four quadrants up to |z| of 1e300, and on either side of that edge
    POINTS = (
        0.3, 1e-8 + 2e-8j, 0.5 - 0.5j, -0.4 + 0.1j, 2.0, 1.0 + 1.0j, 3.0 - 40.0j,
        0.016 + 75.0j, -0.016 - 75.0j, 11.5 + 75.0j, -11.5 - 75.0j, -1.0 + 1e-12j,
        -2.5 + 0.3j, -350.0 - 21.9j, 350.0 + 21.9j, -20.0 + 20.0j, 1e4 - 3e3j,
        -700.0 + 0.5j, -800.0 - 5.0j, -3950.0 - 18.0j, -1e6 - 1e-3j,
        3.9533757355040085e45 + 1.83766289807638e45j, -3e16 + 1e16j, -5e100 - 5e100j,
        1e16 - 2e16j, 1e300 + 1e299j, -1e200 + 1e250j, 1.0 - 1e300j,
        -(2.0**54) + 1.0j, (2.0**54 - 2.0) - 5e16j,
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
            assert scaled_e1(z.conjugate()) == pytest.approx(want, rel=1e-15, abs=0)

    @pytest.mark.parametrize("z", [0.0, -1.0, -1e-300], ids=str)
    def test_branch_cut_rejected(self, z):
        with pytest.raises(DomainError):
            scaled_e1(z)

    @pytest.mark.parametrize("z", [0.5 + 0.1j, 5.0 + 5.0j], ids=["series", "fraction"])
    def test_iteration_cap_raises(self, monkeypatch, z):
        monkeypatch.setattr(numerics, "_MAX_TERMS", 3)
        with pytest.raises(NoConvergence):
            scaled_e1(z)


class TestScaledE1Grid:
    # the continued-fraction points of TestScaledE1
    POINTS = [z for z in TestScaledE1.POINTS if abs(z) + z.real > 2.0 or abs(z) > 700.0]

    def test_each_element_matches_the_point_form(self):
        values = scaled_e1_grid(np.array(self.POINTS, dtype=complex))
        assert np.isfinite(values).all()
        for z, value in zip(self.POINTS, values.tolist()):
            assert abs(value - scaled_e1(z)) <= 1e-14 * abs(scaled_e1(z))

    def test_elements_stop_on_their_own(self):
        # one slow element does not move the others off their first settled level
        fast = np.array([1e4 - 3e3j, 350.0 + 21.9j])
        alone = scaled_e1_grid(fast)
        mixed = scaled_e1_grid(np.concatenate([fast, [-3950.0 - 18.0j]]))
        assert mixed[:2].tolist() == alone.tolist()

    def test_the_iteration_cap_leaves_elements_unsettled(self, monkeypatch):
        monkeypatch.setattr(numerics, "_MAX_TERMS", 3)
        values = scaled_e1_grid(np.array([5.0 + 5.0j, 1e300 + 0j]))
        assert np.isfinite(values).tolist() == [False, True]

    def test_series_domain_elements_read_unsettled(self):
        # scaled_e1() sums the series there; within 1e-12 of the domain's edge
        # |z| + Re z = 2 the grid cannot tell which route the point form takes
        edge = [2.0 / (1.0 + math.cos(a)) * cmath.exp(1j * a) for a in (0.5, 2.0, 3.0)]
        near = [z * (1.0 + s) for z in edge for s in (-1e-13, 0.0, 1e-13)]
        series = [0.5 + 0.5j, 0.3 + 1.0j, 0.1 + 1.8j, -699.0 + 1.0j] + near
        fraction = [1.0 + 0.3j, 5.0 + 5.0j]  # |z| + Re z of 2.04 and 12.1
        values = scaled_e1_grid(np.array(series + fraction))
        assert np.isfinite(values).tolist() == [False] * len(series) + [True] * len(fraction)
        for z, value in zip(fraction, values[len(series):].tolist()):
            assert abs(value - scaled_e1(z)) <= 1e-14 * abs(scaled_e1(z))

    def test_a_concatenated_call_changes_no_bit(self):
        # the spectrum's array pass takes z and -z of every lane in one call,
        # so each part must read as it would alone, with series-domain lanes
        # (NaN, unsettled) and slow lanes among them
        z = np.array([5.0 + 5.0j, 1e4 - 3e3j, 350.0 + 21.9j, 0.5 + 0.5j, 1.0 + 0.3j,
                      -3950.0 - 18.0j, 0.1 + 1.8j, 2.0 + 1e-3j, 710.0 + 0.0j])
        parts = [z, -z, z[3:5], np.conj(z)[::-1], z[:0]]
        whole = scaled_e1_grid(np.concatenate(parts))
        alone = np.concatenate([scaled_e1_grid(part) for part in parts])
        settled = np.isfinite(whole)
        assert not settled.all() and settled.any()
        assert whole.dtype == alone.dtype and whole.tobytes() == alone.tobytes()

    def test_empty_input(self):
        assert scaled_e1_grid(np.zeros(0, dtype=complex)).size == 0


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
