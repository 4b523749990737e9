"""The competing transit-time quantities for one barrier problem.

Four inequivalent clocks are computed side by side:

  * phase time       d / sqrt(2E/m) + hbar * d(arg S)/dE, the group delay of
                     the transmitted wave;
  * dwell time       (integral of |psi_barrier|^2 over [0, d]) / incident flux;
  * traversal time   m d / (hbar kappa), the opaque-barrier oscillating-field
                     scale (linear in d by construction);
  * effective time   d / v_rms from the momentum spectrum.

Phase and dwell times are each computed twice: numerically from their
definitions and from independent closed forms sharing the denominator

    D = 4 kappa^2 k^2 + (2 m V0 / hbar^2)^2 sinh^2(kappa d).

The "numeric" routes work from the scattering coefficients, not from D: the
phase time differences arg S of the closed-form transmission amplitude at
E +/- h, and the dwell time integrates |A e^{kappa x} + B e^{-kappa x}|^2 over
the barrier term by term, an exact integral of the definition. The numerical
route is the arbiter.
``sweep.evaluate`` cross-checks each pair: routes more than CROSS_CHECK_TOL
(1e-5 relative) apart, or not finite, put both values in the record's error
cell, and the ``times`` command exits 3 quoting them. (The test suite holds
the routes to 1e-6.) Phase and dwell times saturate for thick barriers (their
d-derivative dies off like exp(-2 kappa d)), which is exactly why they imply
unbounded apparent velocities; the effective time does not saturate.
"""

from __future__ import annotations

import math

from .barrier import (
    BarrierProblem,
    StationarySolution,
    incident_flux,
    stationary_solution,
    transmission_amplitude,
    wavenumbers,
)
from .constants import CONSTANTS, energy_ev_to_si
from .errors import DomainError

_M = CONSTANTS.electron_mass
_HBAR = CONSTANTS.hbar

#: Default energy step for the phase-derivative stencil, eV. arg S varies on
#: the eV scale, so 1e-4 eV balances truncation against roundoff in doubles.
DEFAULT_PHASE_STEP_EV = 1e-4

#: Below this kappa d the dwell integral is taken in its edge form, whose
#: terms do not cancel near the barrier top.
_EDGE_FORM_KAPPA_D = 0.5

#: Numeric and analytic routes agreeing worse than this means one of them is
#: wrong; report both rather than silently preferring either.
CROSS_CHECK_TOL = 1e-5


def shared_denominator(problem: BarrierProblem) -> float:
    """D of the module docstring, 1/m^4, shared by both closed forms."""
    wn = wavenumbers(problem)
    k, kappa = wn.k, wn.kappa
    g = 2.0 * _M * problem.height / _HBAR**2  # equals k^2 + kappa^2
    return 4.0 * kappa**2 * k**2 + g**2 * math.sinh(kappa * problem.thickness) ** 2


def phase_time_numeric(
    problem: BarrierProblem, step_ev: float = DEFAULT_PHASE_STEP_EV
) -> float:
    """Group delay from a central difference of the transmission phase.

    The phase difference arg S(E + h) - arg S(E - h) is shifted by the
    multiple of 2 pi that lands it in (-pi, pi], so a branch cut of the
    principal argument between the stencil points does not corrupt it.

    Raises DomainError for a step that is not positive, when the stencil
    E +/- h leaves the tunneling regime (including the near-threshold guard
    band), which clips the extreme edges of energy grids, and where S is zero
    or not finite at a stencil point.
    """
    h = energy_ev_to_si(step_ev)
    if not h > 0:
        raise DomainError("phase-derivative step h must be positive")
    e0, hi = problem.energy, problem.height
    if not (0.0 < e0 - h and e0 + h < hi):
        raise DomainError(
            f"stencil [{e0 - h}, {e0 + h}] leaves the valid domain (0.0, {hi})"
        )
    sp = transmission_amplitude(problem, e0 + h)
    sm = transmission_amplitude(problem, e0 - h)
    if sp == 0 or sm == 0:
        raise DomainError("S vanishes at a stencil point; its phase is undefined")
    if not (math.isfinite(abs(sp)) and math.isfinite(abs(sm))):
        raise DomainError("S is not finite at the stencil points")
    delta = math.atan2(sp.imag, sp.real) - math.atan2(sm.imag, sm.real)
    delta -= 2.0 * math.pi * math.ceil((delta - math.pi) / (2.0 * math.pi))
    return problem.thickness / math.sqrt(2.0 * e0 / _M) + _HBAR * (delta / (2.0 * h))


def phase_time_analytic(problem: BarrierProblem) -> float:
    """Closed form for the group delay; certified against the numeric route."""
    wn = wavenumbers(problem)
    k, kappa, d = wn.k, wn.kappa, problem.thickness
    g = 2.0 * _M * problem.height / _HBAR**2
    dd = shared_denominator(problem)
    bracket = 2.0 * kappa * d * k**2 * (kappa**2 - k**2) + g**2 * math.sinh(
        2.0 * kappa * d
    )
    return _M / (_HBAR * k * kappa * dd) * bracket


def dwell_time_numeric(
    problem: BarrierProblem, solution: StationarySolution | None = None
) -> float:
    """In-barrier probability over incident flux, from the coefficients.

    The numerator is the exact integral of |A e^{kappa x} + B e^{-kappa x}|^2
    over [0, d]: (|A e^{kappa d}|^2 + |B|^2) (1 - e^{-2 kappa d}) / (2 kappa)
    + 2 Re(A conj B) d. Near the barrier top, A and B grow like k/kappa and
    these terms cancel, so below kappa d = 1/2 the same integral is taken in
    the edge form psi(d - y) = S e^{ikd} [cosh(kappa y) - ik sinh(kappa y)/kappa]:
    |S|^2 d [2 + (1 + k^2/kappa^2) (sinh(2 kappa d)/(2 kappa d) - 1)] / 2, all
    of positive terms. ``solution`` is the problem's stationary solution,
    solved here when not given.
    """
    sol = stationary_solution(problem) if solution is None else solution
    k, kappa = sol.wavenumbers.k, sol.wavenumbers.kappa
    d = problem.thickness
    if kappa * d < _EDGE_FORM_KAPPA_D:
        # sinh(x)/x - 1 at x = 2 kappa d, by its series
        x2 = (2.0 * kappa * d) ** 2
        term = excess = x2 / 6.0
        for n in range(2, 12):
            term *= x2 / ((2 * n) * (2 * n + 1))
            excess += term
        stored = 0.5 * d * sol.transmission * (2.0 + (1.0 + (k / kappa) ** 2) * excess)
    else:
        a_d, _ = sol.edge_modes
        ends = abs(a_d) ** 2 + abs(sol.B) ** 2
        cross = 2.0 * (sol.A * sol.B.conjugate()).real
        stored = ends * -math.expm1(-2.0 * kappa * d) / (2.0 * kappa) + cross * d
    return stored / incident_flux(problem)


def dwell_time_analytic(problem: BarrierProblem) -> float:
    """Closed form for the dwell time; certified against the numeric route."""
    wn = wavenumbers(problem)
    k, kappa, d = wn.k, wn.kappa, problem.thickness
    g = 2.0 * _M * problem.height / _HBAR**2
    dd = shared_denominator(problem)
    bracket = 2.0 * kappa * d * (kappa**2 - k**2) + g * math.sinh(2.0 * kappa * d)
    return _M * k / (_HBAR * kappa * dd) * bracket


def bl_time(problem: BarrierProblem) -> float:
    """Opaque-barrier traversal scale m d / (hbar kappa)."""
    return _M * problem.thickness / (_HBAR * wavenumbers(problem).kappa)
