"""Independent reference implementations used to cross-check the library.

Everything here recomputes its target from scratch (a boundary-matching
linear solve, textbook closed forms, analytic antiderivatives, a dense scan
plus bisection, quadrature that resamples every node) rather than calling the
code path it certifies.
"""

from __future__ import annotations

import math

import numpy as np

from tunneltimes.barrier import stationary_solution
from tunneltimes.constants import CONSTANTS
from tunneltimes.depth import DEPTH_LEVEL, relative_density
from tunneltimes.errors import DomainError, NoConvergence
from tunneltimes.momentum import EffectiveKinematics, momentum_amplitude
from tunneltimes.numerics import DEFAULT_QUADRATURE

M = CONSTANTS.electron_mass
HBAR = CONSTANTS.hbar
EV = CONSTANTS.ev_to_joule

# Published depth table, nm: energy-ratio row -> depths for d = 0.2..1.0 nm.
REFERENCE_DEPTHS_NM = {
    0.01: (0.0627, 0.0621, 0.0621, 0.0621, 0.0621, 0.0621, 0.0621, 0.0621, 0.0621),
    0.1: (0.0658, 0.0651, 0.0651, 0.0651, 0.0651, 0.0651, 0.0651, 0.0651, 0.0651),
    0.5: (0.0876, 0.0874, 0.0874, 0.0874, 0.0874, 0.0874, 0.0874, 0.0874, 0.0874),
    0.9: (0.1357, 0.1632, 0.1811, 0.1897, 0.1933, 0.1947, 0.1952, 0.1953, 0.1954),
    0.99: (0.1521, 0.2012, 0.2547, 0.3069, 0.3560, 0.4011, 0.4413, 0.4767, 0.5065),
}
TABLE_D_NM = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


def wavenumber_pair(e_ev: float, v0_ev: float) -> tuple[float, float]:
    k = math.sqrt(2.0 * M * e_ev * EV) / HBAR
    kappa = math.sqrt(2.0 * M * (v0_ev - e_ev) * EV) / HBAR
    return k, kappa


def transmission_reference(e_ev: float, v0_ev: float, d_nm: float) -> float:
    """Textbook closed form |S|^2 = 1 / (1 + V0^2 sinh^2(kappa d) / (4E(V0-E)))."""
    _, kappa = wavenumber_pair(e_ev, v0_ev)
    e = e_ev * EV
    v0 = v0_ev * EV
    d = d_nm * 1e-9
    return 1.0 / (1.0 + v0**2 * math.sinh(kappa * d) ** 2 / (4.0 * e * (v0 - e)))


def solve_by_matching(e_ev: float, v0_ev: float, d_nm: float):
    """(R, A, B, S) from the raw 4x4 boundary-matching system.

    Unknowns ordered (R, A, B, S); rows are value and slope continuity at
    x = 0 followed by value and slope continuity at x = d, with the incident
    wave on the right-hand side. Solved with a dense linear solver, fully
    independent of the closed-form coefficient route.
    """
    k, kappa = wavenumber_pair(e_ev, v0_ev)
    d = d_nm * 1e-9
    ekd = math.exp(kappa * d)
    eikd = complex(math.cos(k * d), math.sin(k * d))
    mat = np.array(
        [
            [1.0, -1.0, -1.0, 0.0],
            [-1j * k, -kappa, kappa, 0.0],
            [0.0, ekd, 1.0 / ekd, -eikd],
            [0.0, kappa * ekd, -kappa / ekd, -1j * k * eikd],
        ],
        dtype=complex,
    )
    rhs = np.array([-1.0, -1j * k, 0.0, 0.0], dtype=complex)
    r_amp, a_amp, b_amp, s_amp = np.linalg.solve(mat, rhs)
    return r_amp, a_amp, b_amp, s_amp


def quartile_width(spectrum, n: int = 8001) -> float:
    """Interquartile range of a momentum density, via a trapezoid CDF."""
    cut = spectrum.problem.cutoff
    ks = np.linspace(-cut, cut, n)
    pdf = spectrum.pdf(ks)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(ks))])
    cdf /= cdf[-1]
    return float(np.interp(0.75, cdf, ks) - np.interp(0.25, cdf, ks))


def find_first_crossing(f, level: float, a: float, b: float, scan_points: int = 4096):
    """Smallest x in [a, b] where ``f(x)`` crosses ``level``, or None.

    [a, b] is scanned on a uniform ``scan_points`` grid for the first sign
    change of f - level; that bracket is then bisected down to an absolute
    width of (b - a) * 1e-10. A grid point sitting exactly on the level counts
    as a crossing. None (no crossing anywhere on the grid) is an ordinary
    answer, not an error.
    """
    if not a < b:
        raise DomainError(f"scan interval requires a < b, got [{a}, {b}]")
    if scan_points < 64:
        raise DomainError("scan_points must be at least 64")
    xs = np.linspace(a, b, scan_points)
    residual = np.asarray(f(xs), dtype=float) - level

    hits = np.flatnonzero(residual == 0.0)
    brackets = np.flatnonzero(residual[:-1] * residual[1:] < 0.0)
    first_hit = int(hits[0]) if hits.size else None
    first_bracket = int(brackets[0]) if brackets.size else None

    if first_hit is not None and (first_bracket is None or first_hit <= first_bracket):
        return float(xs[first_hit])
    if first_bracket is None:
        return None

    lo = float(xs[first_bracket])
    hi = float(xs[first_bracket + 1])
    lo_negative = residual[first_bracket] < 0.0
    tol = (b - a) * 1e-10
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = float(f(mid)) - level
        if fm == 0.0:
            return mid
        if (fm < 0.0) == lo_negative:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def scanned_depth(problem) -> float | None:
    """Penetration depth by scanning the relative density of the matched solution."""
    sol = stationary_solution(problem)
    return find_first_crossing(
        lambda x: relative_density(sol, x), DEPTH_LEVEL, 0.0, problem.thickness
    )


def resampling_integrate(f, a: float, b: float) -> float:
    """Composite Simpson that samples every node of every pass afresh.

    Same rule, start, doubling and stopping test as the library's default
    quadrature, without node reuse or stacked integrands; the bit-for-bit
    reference for both.
    """
    spec = DEFAULT_QUADRATURE

    def estimate(n):
        xs = np.linspace(a, b, n + 1)
        w = np.ones(n + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        w *= (b - a) / (3.0 * n)
        fx = np.asarray(f(xs), dtype=float)
        return float(np.dot(w, fx)), (b - a) * float(np.max(np.abs(fx)))

    n = spec.panels_or_nodes
    prev, _ = estimate(n)
    for _ in range(8):
        n *= 2
        cur, scale = estimate(n)
        err = abs(cur - prev)
        if err <= spec.rel_tol * abs(cur) or err <= 1e-14 * scale:
            return cur
        prev = cur
    raise NoConvergence(f"reference quadrature stalled at {n} panels")


def two_integral_kinematics(problem) -> EffectiveKinematics:
    """Spectrum kinematics from two separate, fully resampled integrals."""
    sol = stationary_solution(problem)
    cut = problem.cutoff
    norm = resampling_integrate(
        lambda K: np.abs(momentum_amplitude(sol, K)) ** 2, -cut, cut
    )
    second = resampling_integrate(
        lambda K: K**2 * np.abs(momentum_amplitude(sol, K)) ** 2, -cut, cut
    )
    k_rms = math.sqrt(second / norm)
    v_rms = HBAR * k_rms / M
    return EffectiveKinematics(
        k_rms=k_rms,
        v_rms=v_rms,
        t_eff=problem.thickness / v_rms,
        eps_eff=0.5 * M * v_rms**2,
    )
