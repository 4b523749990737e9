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

    D = 4 kappa^2 k^2 + g^2 sinh^2(kappa d),   g = 2 m V0 / hbar^2.

Both closed forms are evaluated with numerator and denominator scaled by
e^{-2 kappa d}, on

    D~ = D e^{-2 kappa d} = 4 kappa^2 k^2 e^{-2 kappa d}
                            + g^2 expm1(-2 kappa d)^2 / 4,

with sinh(2 kappa d) e^{-2 kappa d} = -expm1(-4 kappa d) / 2, so they stay
finite at any thickness. One kernel, _closed_times(), evaluates both and
computes D~, e^{-2 kappa d} and expm1(-4 kappa d) once. D itself, which only
the ``times`` command prints (shared_denominator()), is D~ e^{2 kappa d} and
is not a double past kappa d of about 355.

The closed forms and the traversal time (_bl_time()) are kernels, not
per-problem functions: each is a column of the sweep's record, built by
``sweep._columns`` at a point and over the sweep's arrays alike. The "numeric"
routes, phase_time_numeric() and dwell_time_numeric(), work from the
scattering coefficients, not from D: the phase time differences the argument
of the bounded t = S e^{kappa d} (which is arg S) at E +/- h, with h =
DEFAULT_PHASE_STEP_EV, and the dwell time integrates
|A e^{kappa x} + B e^{-kappa x}|^2 over the barrier term by term, an exact
integral of the definition. The stencil checks its two energies and forms t's
energy-only factors once for any number of thicknesses, and evaluates only
the thickness's part of t per thickness: a point passes one thickness, the
sweep all of an energy's at once, each with the bits of the one-thickness
result. The numerical route is the arbiter. ``sweep.evaluate`` cross-checks
each pair: routes more than CROSS_CHECK_TOL (1e-5 relative) apart, or not
finite, put both values in the record's error cell, and the ``times``
command exits 3 quoting them. (The test suite holds the routes to 1e-6.)
Phase and dwell times saturate for thick barriers (their d-derivative dies
off like exp(-2 kappa d)), which is exactly why they imply unbounded
apparent velocities; the effective time does not saturate.
"""

from __future__ import annotations

import math

from .barrier import (
    _SERIES_KAPPA_D,
    BarrierProblem,
    StationarySolution,
    _check_tunneling,
    _energy_factors,
    _transmission,
    _wavenumber_pair,
    incident_flux,
    stationary_solution,
    wavenumbers,
)
from .constants import CONSTANTS, energy_ev_to_si
from .errors import DomainError
from .numerics import POINT

_M = CONSTANTS.electron_mass
_HBAR = CONSTANTS.hbar
_TWO_PI = 2.0 * math.pi

#: Default energy step for the phase-derivative stencil, eV. arg S varies on
#: the eV scale, so 1e-4 eV balances truncation against roundoff in doubles.
DEFAULT_PHASE_STEP_EV = 1e-4

#: Numeric and analytic routes agreeing worse than this means one of them is
#: wrong; report both rather than silently preferring either.
CROSS_CHECK_TOL = 1e-5


def _g(height):
    """g = 2 m V0 / hbar^2, equal to k^2 + kappa^2."""
    return 2.0 * _M * height / _HBAR**2


# The closed forms below are kernels of (k, kappa, kappa d, g): ``f`` holds
# the elementwise functions (numerics.POINT or numerics.GRID).


def _closed_times(k, kappa, kd, g, f=POINT):
    """The phase time, the dwell time and D~ by their closed forms, which
    share D~, e^{-2 kappa d} and expm1(-4 kappa d)."""
    decay, fold = f.exp(-2.0 * kd), f.expm1(-4.0 * kd)
    spread, ramp = kappa**2 - k**2, kd * decay
    scaled = 4.0 * kappa**2 * k**2 * decay + g**2 * f.expm1(-2.0 * kd) ** 2 / 4.0
    phase = 2.0 * k**2 * spread * ramp - g**2 * fold / 2.0
    dwell = 2.0 * spread * ramp - g * fold / 2.0
    return (_M / (_HBAR * k * kappa * scaled) * phase,
            _M * k / (_HBAR * kappa * scaled) * dwell, scaled)


def _stored_probability(k, kappa, d, A, B, a_d, S, f=POINT):
    """The integral of |A e^{kappa x} + B e^{-kappa x}|^2 over [0, d] (see
    dwell_time_numeric), each point by its own form: the edge form below
    kappa d = _SERIES_KAPPA_D, the coefficients' elsewhere."""
    thin = kappa * d < _SERIES_KAPPA_D
    if f is POINT and thin:
        return _edge_stored(k, kappa, d, S)
    ends = abs(a_d) ** 2 + abs(B) ** 2
    cross = 2.0 * (A * B.conjugate()).real
    stored = ends * -f.expm1(-2.0 * kappa * d) / (2.0 * kappa) + cross * d
    if f is not POINT:
        thin = thin.nonzero()[0]
        stored[thin] = _edge_stored(k[thin], kappa[thin], d[thin], S[thin])
    return stored


def _edge_stored(k, kappa, d, S):
    """_stored_probability() in the edge form of dwell_time_numeric()."""
    # sinh(x)/x - 1 at x = 2 kappa d, by its series
    x2 = (2.0 * kappa * d) ** 2
    term = excess = x2 / 6.0
    for n in range(2, 12):
        term = term * (x2 / ((2 * n) * (2 * n + 1)))
        excess = excess + term
    return 0.5 * d * abs(S) ** 2 * (2.0 + (1.0 + (k / kappa) ** 2) * excess)


def _bl_time(kappa, d):
    return _M * d / (_HBAR * kappa)


def shared_denominator(problem: BarrierProblem) -> float:
    """D of the module docstring, 1/m^4, as D~ e^{2 kappa d}, with D~ from
    _closed_times().

    Past kappa d of about 355 it is not a double: inf, or OverflowError
    from the exponential.
    """
    wn = wavenumbers(problem)
    kd = wn.kappa * problem.thickness
    return _closed_times(wn.k, wn.kappa, kd, _g(problem.height))[2] * math.exp(2.0 * kd)


def phase_time_numeric(
    problem: BarrierProblem, step_ev: float = DEFAULT_PHASE_STEP_EV
) -> float:
    """Group delay from a central difference of the transmission phase.

    The phase difference arg t(E + h) - arg t(E - h) of the bounded
    t = S e^{kappa d}, which has the phase of S and is never zero or
    infinite, is shifted by the multiple of 2 pi that lands it in (-pi, pi],
    so a branch cut of the principal argument between the stencil points does
    not corrupt it.

    Raises DomainError for a step that is not positive and when the stencil
    E +/- h leaves the tunneling regime (including the near-threshold guard
    band), which clips the extreme edges of energy grids.
    """
    return _phase_stencil(
        problem.energy, problem.height, (problem.thickness,), energy_ev_to_si(step_ev)
    )[0]


def _phase_stencil(e0, hi, ds, h):
    """phase_time_numeric() at energy ``e0`` over barriers of height ``hi``
    and each thickness in ``ds``, with the step ``h`` in joules, as a list.

    The checks, the wavenumbers and t's energy factors at E +/- h and the
    free-flight speed depend on the energy alone, so they run once; each
    thickness takes only its part of t and of the time, by the same
    operations in the same order as a single thickness, so the sweep runs it
    once per energy and the point path with one thickness.
    """
    if not h > 0:
        raise DomainError("phase-derivative step h must be positive")
    if not (0.0 < e0 - h and e0 + h < hi):
        raise DomainError(
            f"stencil [{e0 - h}, {e0 + h}] leaves the valid domain (0.0, {hi})"
        )
    # of _check_tunneling()'s rules only the near-threshold one can still
    # fail, and E - h lies further from the barrier top than E + h
    _check_tunneling(e0 + h, hi)
    plus = _energy_factors(*_wavenumber_pair(e0 + h, hi))
    minus = _energy_factors(*_wavenumber_pair(e0 - h, hi))
    speed, two_h = math.sqrt(2.0 * e0 / _M), 2.0 * h
    times = []
    for d in ds:
        sp, sm = _transmission(plus, d), _transmission(minus, d)
        delta = math.atan2(sp.imag, sp.real) - math.atan2(sm.imag, sm.real)
        delta -= _TWO_PI * math.ceil((delta - math.pi) / _TWO_PI)
        times.append(d / speed + _HBAR * (delta / two_h))
    return times


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
    stored = _stored_probability(
        sol.wavenumbers.k, sol.wavenumbers.kappa, problem.thickness,
        sol.A, sol.B, sol.edge_modes[0], sol.S,
    )
    return stored / incident_flux(problem)
