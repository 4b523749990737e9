import math
import random

import numpy as np
import pytest

from oracles import (
    REFERENCE_DEPTHS_NM,
    TABLE_D_NM,
    mp_depth,
    relative_density,
    scanned_depth,
)
from tunneltimes.barrier import BarrierProblem, stationary_solution
from tunneltimes.constants import CONSTANTS, energy_ev_to_si, length_si_to_nm
from tunneltimes.depth import DEPTH_LEVEL, penetration_depth
from tunneltimes.errors import DomainError
from tunneltimes.sweep import NOTE_NO_CROSSING, SweepConfig, evaluate

DEPTH_TOL_NM = 0.002


class TestRelativeDensity:
    def test_unity_at_the_entry_face(self):
        sol = stationary_solution(BarrierProblem.from_ev_nm(3.0, 10.0, 0.6))
        assert relative_density(sol, 0.0) == 1.0

    def test_outside_barrier_rejected(self):
        sol = stationary_solution(BarrierProblem.from_ev_nm(3.0, 10.0, 0.6))
        with pytest.raises(DomainError):
            relative_density(sol, -1e-12)
        with pytest.raises(DomainError):
            relative_density(sol, 0.7e-9)

    def test_monotone_decay_into_the_barrier(self):
        # a growing and a decaying mode plus a constant cross term combine
        # into a density that only falls on the way to the exit face
        for e_ratio in (0.01, 0.5, 0.99):
            sol = stationary_solution(BarrierProblem.from_ev_nm(10.0 * e_ratio, 10.0, 1.0))
            xs = np.linspace(0.0, sol.problem.thickness, 513)
            values = relative_density(sol, xs)
            assert np.all(np.diff(values) <= 0.0)

    def test_deep_tunneling_is_nearly_pure_decay(self):
        sol = stationary_solution(BarrierProblem.from_ev_nm(0.1, 10.0, 1.0))
        kappa = sol.wavenumbers.kappa
        xs = np.linspace(0.05e-9, 0.3e-9, 9)  # well inside the barrier
        pure = np.exp(-2.0 * kappa * xs)
        assert np.max(np.abs(relative_density(sol, xs) - pure) / pure) < 0.05


class TestPenetrationDepth:
    @pytest.mark.parametrize(
        "e_ratio, d_nm, want_nm",
        [
            (0.01, 1.0, 0.0621),
            (0.99, 1.0, 0.5065),
            (0.5, 0.4, 0.0874),
            (0.9, 0.2, 0.1357),
            (0.99, 0.6, 0.3560),
        ],
    )
    def test_published_spot_values(self, e_ratio, d_nm, want_nm):
        depth = penetration_depth(BarrierProblem.from_ev_nm(10.0 * e_ratio, 10.0, d_nm))
        assert abs(length_si_to_nm(depth) - want_nm) <= DEPTH_TOL_NM

    def test_full_reference_table(self):
        for e_ratio, row in REFERENCE_DEPTHS_NM.items():
            for d_nm, want_nm in zip(TABLE_D_NM, row):
                depth = penetration_depth(
                    BarrierProblem.from_ev_nm(10.0 * e_ratio, 10.0, d_nm)
                )
                assert abs(length_si_to_nm(depth) - want_nm) <= DEPTH_TOL_NM

    @pytest.mark.parametrize("e_ratio", [0.01, 0.5, 0.99])
    def test_thinnest_barrier_never_crosses(self, e_ratio):
        assert (
            penetration_depth(BarrierProblem.from_ev_nm(10.0 * e_ratio, 10.0, 0.1))
            is None
        )

    def test_deep_tunneling_depth_is_the_decay_length(self):
        # on exp(-2 kappa x) the threshold sits exactly at x = 1/kappa
        for e_ratio in (0.01, 0.1):
            for d_nm in (0.5, 1.0):
                p = BarrierProblem.from_ev_nm(10.0 * e_ratio, 10.0, d_nm)
                decay_length = 1.0 / stationary_solution(p).wavenumbers.kappa
                depth = penetration_depth(p)
                assert abs(depth - decay_length) / decay_length < 0.02

    def test_depth_saturates_with_thickness_when_tunneling_is_deep(self):
        depths = [
            penetration_depth(BarrierProblem.from_ev_nm(0.1, 10.0, d_nm))
            for d_nm in (0.3, 0.5, 0.7, 1.0)
        ]
        spread = max(depths) - min(depths)
        assert length_si_to_nm(spread) < 0.0005

    def test_deep_barrier_depth_saturates_without_overflow(self):
        # exp(kappa d) would overflow here; the depth is the decay length 1/kappa
        p = BarrierProblem.from_ev_nm(5.0, 10.0, 1000.0)
        assert length_si_to_nm(penetration_depth(p)) == pytest.approx(0.08733, abs=5e-6)


class TestClosedFormAgainstScan:
    """The closed-form root against a dense scan plus bisection of the density."""

    REL_TOL = 2e-9

    def check(self, problem):
        closed = penetration_depth(problem)
        scanned = scanned_depth(problem)
        assert (closed is None) == (scanned is None)
        if closed is not None:
            assert abs(closed - scanned) <= self.REL_TOL * scanned

    def test_dense_grid(self):
        for e_ratio in (i / 100.0 for i in range(1, 100)):
            for d_nm in (i / 10.0 for i in range(1, 11)):
                self.check(BarrierProblem.from_ev_nm(10.0 * e_ratio, 10.0, d_nm))

    def test_random_thin_barriers(self):
        rng = random.Random(20070624)
        for _ in range(300):
            v0_ev = rng.uniform(1.0, 20.0)
            e_ev = rng.uniform(max(0.01 * v0_ev, 0.1), 0.99 * v0_ev)
            self.check(BarrierProblem.from_ev_nm(e_ev, v0_ev, rng.uniform(0.05, 3.0)))


class TestClosedFormAgainstMpmath:
    """The closed-form root against the 50-digit root of the density condition."""

    def test_over_energy_and_kappa_d(self):
        # E/V0 from 1e-8 to 0.999 and kappa d from 1e-3 to 3e3, log-uniform;
        # about half the points have no crossing, and both must agree on which
        pytest.importorskip("mpmath")
        rng = random.Random(3_2026)
        ev = CONSTANTS.ev_to_joule
        missing = 0
        for _ in range(400):
            v0_ev = rng.uniform(0.5, 25.0)
            e_ratio = 10.0 ** rng.uniform(-8.0, math.log10(0.999))
            kappa_d = 10.0 ** rng.uniform(-3.0, math.log10(3e3))
            gap = (1.0 - e_ratio) * v0_ev * ev
            kappa = math.sqrt(2.0 * CONSTANTS.electron_mass * gap) / CONSTANTS.hbar
            problem = BarrierProblem(e_ratio * v0_ev * ev, v0_ev * ev, kappa_d / kappa)
            closed, want = penetration_depth(problem), mp_depth(problem)
            assert (closed is None) == (want is None), (e_ratio, kappa_d)
            if want is None:
                missing += 1
            else:
                assert abs(closed - want) <= 1e-12 * want, (e_ratio, kappa_d)
        assert 100 < missing < 300


def uncertainty_record(problem: BarrierProblem):
    """The record the ``depth`` command prints its columns from."""
    rec, caught = evaluate(problem, SweepConfig())
    assert caught == []
    return rec


class TestUncertaintyReport:
    def test_identity_reconstruction(self):
        rec = uncertainty_record(BarrierProblem.from_ev_nm(1.0, 10.0, 0.8))
        eps_eff = energy_ev_to_si(rec.eps_eff_ev)
        assert rec.xi == pytest.approx(
            2.0 * eps_eff * rec.tau_eff_s / CONSTANTS.hbar, rel=1e-14, abs=0
        )

    def test_no_crossing_leaves_fields_absent(self):
        rec = uncertainty_record(BarrierProblem.from_ev_nm(1.0, 10.0, 0.1))
        assert rec.s_nm is None
        assert rec.tau_eff_s is None
        assert rec.xi is None
        assert rec.eps_eff_ev > 0.0
        assert rec.note == NOTE_NO_CROSSING

    def test_coefficient_range_on_the_reference_grid(self):
        for e_ratio in REFERENCE_DEPTHS_NM:
            for d_nm in TABLE_D_NM:
                rec = uncertainty_record(
                    BarrierProblem.from_ev_nm(10.0 * e_ratio, 10.0, d_nm)
                )
                assert 1.5 < rec.xi <= 5.0

    def test_threshold_is_full_precision(self):
        # exp(-2), not its 0.135 display rounding
        assert DEPTH_LEVEL == math.exp(-2.0)
