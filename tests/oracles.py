"""Independent reference implementations used to cross-check the library.

Everything here recomputes its target from scratch (a boundary-matching
linear solve, textbook closed forms, analytic antiderivatives, a dense scan
plus bisection, adaptive quadrature, mpmath at 30 to 50 digits, CSV cells
formatted one at a time) rather than calling the code path it certifies. The
mpmath oracles import mpmath when called, so a test that uses them skips
where it is not installed. The exceptions are the first two sections: the
library's kernels evaluated at one problem, for the tests whose subject they
are, and sweep tables assembled from chosen rows, which the curve figures
draw from.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable

import numpy as np
import pytest

from tunneltimes import __version__, sweep
from tunneltimes.barrier import _g, _wave, _wavenumber_pair, stationary_solution
from tunneltimes.constants import (
    ELECTRON_MASS,
    EV_TO_JOULE,
    HBAR,
    energy_ev_to_si,
    length_nm_to_si,
    length_si_to_nm,
)
from tunneltimes.depth import DEPTH_LEVEL, _relative_density
from tunneltimes.errors import DomainError, MissingGridPoint, NoConvergence
from tunneltimes.evaluation import NOTE_PHASE_CLIPPED, TOOL_NAME
from tunneltimes.momentum import _amplitude
from tunneltimes.sweep import (
    FIG1_K_POINTS,
    FIG4_X_POINTS,
    RECORD_COLUMNS,
    TEXT_FIELDS,
    SweepTable,
    run_sweep,
)
from tunneltimes.times import _closed_times


def replace(value, **changes):
    """A value of ``value``'s class with its fields, and ``changes`` to them:
    the package's value classes are immutable."""
    return type(value)(**{**vars(value), **changes})


# --- the library's kernels at one problem -----------------------------------


def closed_times(problem) -> tuple[float, float, float]:
    """The closed-form phase time, dwell time and D~ = D e^{-2 kappa d} of the
    times module, by its kernel at ``problem``."""
    k, kappa = _wavenumber_pair(problem.energy, problem.height)
    return _closed_times(k, kappa, kappa * problem.thickness, _g(problem.height))


def evaluate_point(cfg, e_ratio: float, d_nm: float):
    """The sweep's record at one grid point of ``cfg``, failures in its cells,
    by the point path alone."""
    return sweep._record(cfg, e_ratio, d_nm, sweep._point(cfg, e_ratio, d_nm)[0])


def psi_barrier(sol, x):
    """The in-barrier wave A e^{kappa x} + B e^{-kappa x} of a solution at x
    (a scalar or an array) on 0 <= x <= d, by the barrier module's kernel."""
    xarr = np.asarray(x, dtype=float)
    d = sol.problem.thickness
    if np.any(xarr < 0.0) or np.any(xarr > d):
        raise DomainError("barrier wavefunction is only defined on 0 <= x <= d")
    out = _wave(xarr, d, sol.kappa, sol.B, sol.a_d)
    return complex(out) if xarr.ndim == 0 else out


def relative_density(sol, x):
    """D(x) = |psi_barrier(x)|^2 / |psi_barrier(0)|^2 on 0 <= x <= d, by the
    depth module's kernel, as fig4 draws it."""
    return _relative_density(psi_barrier(sol, x), psi_barrier(sol, 0.0))


def momentum_amplitude(sol, wavenumber):
    """The momentum amplitude of a solution at K (a scalar or an array), by
    the momentum module's kernel."""
    karr = np.asarray(wavenumber, dtype=float)
    out = _amplitude(karr, sol.problem.thickness, sol.kappa, sol.A, sol.B, sol.a_d, sol.b_d)
    return complex(out) if karr.ndim == 0 else out


def momentum_density(spectrum, wavenumber):
    """A spectrum's normalized momentum density (units m) at K, |K| <= cutoff,
    by the momentum module's kernel, as fig1 draws it."""
    karr = np.asarray(wavenumber, dtype=float)
    if np.any(np.abs(karr) > spectrum.problem.cutoff):
        raise DomainError("momentum density is only defined inside the window")
    out = np.abs(momentum_amplitude(spectrum.solution, karr)) ** 2 / spectrum.normalization
    return float(out) if karr.ndim == 0 else out


# --- sweep tables of chosen rows ----------------------------------------------

#: The columns the curve figures draw from, besides the record's.
CURVE_COLUMNS = ("kappa", "A", "B", "a_d", "b_d", "normalization")


def join_rows(rows) -> SweepTable:
    """A SweepTable of ``rows``, each a (table, row index) pair: rows of one
    table or of several, in the order given, every cell as its table holds it."""
    columns = {}
    for name in (*RECORD_COLUMNS.values(), *CURVE_COLUMNS):
        cells = [table.column(name)[i] for table, i in rows]
        columns[name] = cells if name in TEXT_FIELDS else np.array(cells)
    return SweepTable(columns)


def point_table(cfg) -> SweepTable:
    """run_sweep(cfg) with the array pass turned off, so that the point path
    evaluates every row and the fallback row writer writes it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sweep, "_grid_pass", lambda cfg, columns: np.array([], dtype=int))
        return run_sweep(cfg)


# --- adaptive quadrature: the reference for the closed-form integrals ---------

#: Composite Simpson panels of the first pass; each refinement doubles them.
_START_PANELS = 4000

#: Relative tolerance between successive refinements.
_REL_TOL = 1e-9

#: Doublings attempted before integrate() gives up.
_MAX_REFINEMENTS = 8

#: Successive-refinement differences at this fraction of the integrand scale
#: are double-precision noise; refining further cannot help.
_NOISE_FLOOR = 1e-14


def _sample(f: Callable, xs: np.ndarray) -> np.ndarray:
    fx = np.asarray(f(xs), dtype=float)
    if fx.shape != xs.shape:
        raise DomainError("integrand must map an array of points to like-shaped values")
    if not np.all(np.isfinite(fx)):
        raise DomainError("function returned non-finite values on the interval")
    return fx


def _simpson_weights(a: float, b: float, n: int) -> np.ndarray:
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * ((b - a) / (3.0 * n))


def integrate(f: Callable, a: float, b: float) -> float:
    """Definite integral of ``f`` over [a, b] by composite Simpson, to 1e-9.

    ``f`` maps an array of n points to n values. The first pass takes 4000
    panels; each refinement doubles them, and since the grids are nested it
    samples only the new midpoints. The error estimate is the plain
    difference between successive refinements, so the tolerance is
    conservative for smooth integrands. Convergence is declared when that
    difference drops below 1e-9 relative to the current value, or below the
    double-precision noise floor of the integrand scale, whichever is hit
    first.

    Raises NoConvergence if the refinement cap is reached, and DomainError for
    an empty interval, a non-finite integrand or values not shaped like the
    points.
    """
    if not a < b:
        raise DomainError(f"integration interval requires a < b, got [{a}, {b}]")
    n = _START_PANELS
    xs = np.linspace(a, b, n + 1)
    fx = _sample(f, xs)
    prev = float(np.dot(_simpson_weights(a, b, n), fx))
    for _ in range(_MAX_REFINEMENTS):
        n *= 2
        # linspace(a, b, 2n + 1)[::2] is the previous grid bit for bit
        xs = np.linspace(a, b, n + 1)
        coarse, fx = fx, np.empty(n + 1)
        fx[::2] = coarse
        fx[1::2] = _sample(f, xs[1::2].copy())
        cur = float(np.dot(_simpson_weights(a, b, n), fx))
        step = abs(cur - prev)
        scale = (b - a) * float(np.max(np.abs(fx)))
        if step <= _REL_TOL * abs(cur) or step <= _NOISE_FLOOR * scale:
            return cur
        prev = cur
    raise NoConvergence(
        f"quadrature stalled at {n} composite-simpson panels "
        f"(last refinement changed the value by {step:.3e})"
    )


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
    k = math.sqrt(2.0 * ELECTRON_MASS * e_ev * EV_TO_JOULE) / HBAR
    kappa = math.sqrt(2.0 * ELECTRON_MASS * (v0_ev - e_ev) * EV_TO_JOULE) / HBAR
    return k, kappa


def transmission_reference(e_ev: float, v0_ev: float, d_nm: float) -> float:
    """Textbook closed form |S|^2 = 1 / (1 + V0^2 sinh^2(kappa d) / (4E(V0-E)))."""
    _, kappa = wavenumber_pair(e_ev, v0_ev)
    e = e_ev * EV_TO_JOULE
    v0 = v0_ev * EV_TO_JOULE
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


def continuity_residual(sol) -> tuple[float, float, float, float]:
    """Mismatch of the four matching conditions, slope residuals scaled by 1/k.

    Returns (|value mismatch at 0|, |slope mismatch at 0|/k,
    |value mismatch at d|, |slope mismatch at d|/k). All four are at rounding
    level for a solution built by stationary_solution(); a corrupted
    coefficient shows up orders of magnitude above that.
    """
    k, kappa, d = sol.k, sol.kappa, sol.problem.thickness

    psi1_0 = 1.0 + sol.R
    dpsi1_0 = 1j * k * (1.0 - sol.R)
    psi2_0 = sol.A + sol.B
    dpsi2_0 = kappa * (sol.A - sol.B)

    psi2_d = sol.a_d + sol.b_d
    dpsi2_d = kappa * (sol.a_d - sol.b_d)
    psi3_d = sol.S * cmath.exp(1j * k * d)
    dpsi3_d = 1j * k * psi3_d

    return (
        abs(psi1_0 - psi2_0),
        abs(dpsi1_0 - dpsi2_0) / k,
        abs(psi2_d - psi3_d),
        abs(dpsi2_d - dpsi3_d) / k,
    )


def stencil_phase_time(problem, step_ev: float) -> float:
    """Phase time from the t = S e^{kappa d} of two fully solved problems at E +/- h.

    Each stencil energy builds its own BarrierProblem (which validates it) and
    solves it for t, S, A, B and R; only t is kept, and the wrapped difference
    of its principal argument gives d(arg S)/dE. The library takes t straight
    from its closed form instead. Both share the t expression, which
    solve_by_matching certifies; this certifies everything around it.
    """
    h = energy_ev_to_si(step_ev)
    e0, hi = problem.energy, problem.height
    if not (0.0 < e0 - h and e0 + h < hi):
        raise DomainError(
            f"stencil [{e0 - h}, {e0 + h}] leaves the valid domain (0.0, {hi})"
        )
    sp = stationary_solution(replace(problem, energy=e0 + h)).t
    sm = stationary_solution(replace(problem, energy=e0 - h)).t
    two_pi = 2.0 * math.pi
    delta = math.atan2(sp.imag, sp.real) - math.atan2(sm.imag, sm.real)
    delta -= two_pi * math.ceil((delta - math.pi) / two_pi)  # wrap into (-pi, pi]
    return problem.thickness / math.sqrt(2.0 * e0 / ELECTRON_MASS) + HBAR * (delta / (2.0 * h))


def quartile_width(spectrum, n: int = 8001) -> float:
    """Interquartile range of a momentum density, via a trapezoid CDF."""
    cut = spectrum.problem.cutoff
    ks = np.linspace(-cut, cut, n)
    pdf = momentum_density(spectrum, ks)
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


def two_integral_moments(problem) -> tuple[float, float]:
    """Both window moments from two separate quadratures of the sampled density."""
    sol = stationary_solution(problem)
    cut = problem.cutoff
    norm = integrate(lambda K: np.abs(momentum_amplitude(sol, K)) ** 2, -cut, cut)
    second = integrate(
        lambda K: K**2 * np.abs(momentum_amplitude(sol, K)) ** 2, -cut, cut
    )
    return norm, second


def _mp_solution(problem, mp):
    """(k, kappa, d, c, A, B) at mpmath's working precision, solved anew."""
    m = mp.mpf(ELECTRON_MASS)
    hbar = mp.mpf(HBAR)
    k = mp.sqrt(2 * m * mp.mpf(problem.energy)) / hbar
    kappa = mp.sqrt(2 * m * (mp.mpf(problem.height) - mp.mpf(problem.energy))) / hbar
    d = mp.mpf(problem.thickness)
    ratio = k / kappa
    s_amp = (
        -2j * ratio * mp.exp(-1j * k * d)
        / ((1 - ratio**2) * mp.sinh(kappa * d) - 2j * ratio * mp.cosh(kappa * d))
    )
    half = s_amp * mp.exp(1j * k * d) / 2
    a_amp = half * (1 + 1j * ratio) * mp.exp(-kappa * d)
    b_amp = half * (1 - 1j * ratio) * mp.exp(kappa * d)
    return k, kappa, d, mp.mpf(problem.cutoff), a_amp, b_amp


def mp_closed_forms(problem, dps: int = 50) -> tuple[complex, float, float, float]:
    """(t e^{ikd}, phase time, dwell time, D e^{-2 kappa d}) at ``dps`` digits.

    Every quantity comes from the textbook unscaled form (S from sinh and
    cosh, D = 4 kappa^2 k^2 + g^2 sinh^2(kappa d), the brackets with
    sinh(2 kappa d)), which mpmath's exponent range evaluates at any
    thickness. t = S e^{kappa d} is returned times e^{ikd}: the phase kd of a
    thick barrier is known only to kd times the double rounding of its
    inputs, which no formula for t can improve on.
    """
    import mpmath as mp

    with mp.workdps(dps):
        m = mp.mpf(ELECTRON_MASS)
        hbar = mp.mpf(HBAR)
        k = mp.sqrt(2 * m * mp.mpf(problem.energy)) / hbar
        kappa = mp.sqrt(2 * m * (mp.mpf(problem.height) - mp.mpf(problem.energy))) / hbar
        d = mp.mpf(problem.thickness)
        g = 2 * m * mp.mpf(problem.height) / hbar**2
        ratio = k / kappa
        reduced = (
            -2j * ratio * mp.exp(kappa * d)
            / ((1 - ratio**2) * mp.sinh(kappa * d) - 2j * ratio * mp.cosh(kappa * d))
        )
        dd = 4 * kappa**2 * k**2 + g**2 * mp.sinh(kappa * d) ** 2
        sinh2 = mp.sinh(2 * kappa * d)
        phase = m / (hbar * k * kappa * dd) * (
            2 * kappa * d * k**2 * (kappa**2 - k**2) + g**2 * sinh2
        )
        dwell = m * k / (hbar * kappa * dd) * (2 * kappa * d * (kappa**2 - k**2) + g * sinh2)
        return (
            complex(reduced),
            float(phase),
            float(dwell),
            float(dd * mp.exp(-2 * kappa * d)),
        )


def mp_depth(problem, dps: int = 50) -> float | None:
    """The penetration depth at ``dps`` digits, or None where there is none.

    Solves |A e^{kappa x} + B e^{-kappa x}|^2 = e^{-2} |A + B|^2 in
    u = e^{2 kappa x} from the coefficients A and B of a new 50-digit
    solution: |A|^2 u^2 + beta u + |B|^2 = 0 with beta = 2 Re(A B*) -
    e^{-2} |A + B|^2, whose smaller root is taken as 2 |B|^2 / (-beta +
    sqrt(beta^2 - 4 |A|^2 |B|^2)), free of cancellation at any thickness. The
    depth is ln(u) / (2 kappa) where that lies in (0, d].
    """
    import mpmath as mp

    with mp.workdps(dps):
        _, kappa, d, _, a, b = _mp_solution(problem, mp)
        beta = 2 * mp.re(a * mp.conj(b)) - mp.exp(-2) * abs(a + b) ** 2
        disc = beta**2 - 4 * abs(a) ** 2 * abs(b) ** 2
        if beta >= 0 or disc < 0:
            return None
        depth = mp.log(2 * abs(b) ** 2 / (-beta + mp.sqrt(disc))) / (2 * kappa)
        return float(depth) if 0 < depth <= d else None


def mp_window_moments(problem, dps: int = 40) -> tuple[float, float]:
    """Both window moments at ``dps`` digits, from mpmath's E1 and Ei.

    Expands |P + Q e^{-iKd}|^2 (see the momentum module) as complex products
    and integrates every term over [-c, c] in the e^{-iKd} frame, with the
    unscaled exponential integrals: no scaled forms, no conjugate symmetry
    and no K -> -K swap, unlike the library.
    """
    import mpmath as mp

    with mp.workdps(dps):
        k, kappa, d, c, a, b = _mp_solution(problem, mp)
        a_d, b_d = a * mp.exp(kappa * d), b * mp.exp(-kappa * d)
        zp, zm = d * (kappa + 1j * c), d * (kappa - 1j * c)
        ep, em = mp.exp(-1j * c * d), mp.exp(1j * c * d)  # e^{-iKd} at K = c, -c
        w_p, w_m = kappa - 1j * c, kappa + 1j * c  # w at K = c, -c
        v_p, v_m = w_m, w_p
        # integrals of 1/(wv), 1/w, 1/w^2, 1/v^2, and of e^{-iKd} times
        # 1, 1/w, 1/v, 1/(wv), 1/w^2, 1/v^2
        i_wv = 2 * mp.atan(c / kappa) / kappa
        i_w = 2 * mp.atan(c / kappa)
        i_w2 = -1j * (1 / w_p - 1 / w_m)
        i_v2 = 1j * (1 / v_p - 1 / v_m)
        x_1 = 2 * mp.sin(c * d) / d
        x_w = 1j * mp.exp(-kappa * d) * (mp.ei(zm) - mp.ei(zp))
        x_v = 1j * mp.exp(kappa * d) * (mp.e1(zp) - mp.e1(zm))
        x_wv = (x_w + x_v) / (2 * kappa)
        x_w2 = -1j * (ep / w_p - em / w_m) + d * x_w
        x_v2 = 1j * (ep / v_p - em / v_m) - d * x_v

        def moment(wv, w2, v2, e_wv, e_w2, e_v2):
            plain = (abs(a) ** 2 + abs(b) ** 2 + abs(a_d) ** 2 + abs(b_d) ** 2) * wv
            plain -= (a * mp.conj(b) + a_d * mp.conj(b_d)) * w2
            plain -= (mp.conj(a) * b + mp.conj(a_d) * b_d) * v2
            mixed = (
                -(mp.conj(a) * a_d + mp.conj(b) * b_d) * e_wv
                + mp.conj(a) * b_d * e_v2
                + mp.conj(b) * a_d * e_w2
            )
            return float(mp.re(plain + 2 * mp.re(mixed)) / (2 * mp.pi))

        return (
            moment(i_wv, i_w2, i_v2, x_wv, x_w2, x_v2),
            moment(
                2 * c - kappa**2 * i_wv,
                -2 * c + 2 * kappa * i_w - kappa**2 * i_w2,
                -2 * c + 2 * kappa * i_w - kappa**2 * i_v2,
                x_1 - kappa**2 * x_wv,
                -x_1 + 2 * kappa * x_w - kappa**2 * x_w2,
                -x_1 + 2 * kappa * x_v - kappa**2 * x_v2,
            ),
        )


def mp_window_moments_by_quadrature(problem, dps: int = 30) -> tuple[float, float]:
    """Both window moments by mpmath quadrature of the sampled density.

    Slow (about a second a point); it certifies mp_window_moments' algebra.
    """
    import mpmath as mp

    with mp.workdps(dps):
        _, kappa, d, c, a, b = _mp_solution(problem, mp)

        def density(wavenumber):
            w, v = kappa - 1j * wavenumber, kappa + 1j * wavenumber
            amp = a * (mp.exp(w * d) - 1) / w + b * (1 - mp.exp(-v * d)) / v
            return abs(amp) ** 2 / (2 * mp.pi)

        pieces = mp.linspace(-c, c, 2 * max(4, int(c * d / mp.pi) + 1) + 1)
        norm = mp.quad(density, pieces)
        second = mp.quad(lambda wavenumber: wavenumber**2 * density(wavenumber), pieces)
        return float(norm), float(second)


def mp_dwell_numerator(problem, dps: int = 30) -> float:
    """The integral of |psi_barrier|^2 over [0, d] by mpmath quadrature."""
    import mpmath as mp

    with mp.workdps(dps):
        _, kappa, d, _, a, b = _mp_solution(problem, mp)
        return float(
            mp.quad(lambda x: abs(a * mp.exp(kappa * x) + b * mp.exp(-kappa * x)) ** 2,
                    [0, d])
        )


# --- per-cell CSV emission: the reference for the column-wise emitters -------


def per_cell_fmt(value) -> str:
    """One CSV cell: six significant digits, "0" for a zero of either sign."""
    if value is None:
        return ""
    if not np.isfinite(value):
        raise FloatingPointError("refusing to serialize a non-finite value")
    if value == 0:
        return "0"
    return f"{value:.6g}"


def _per_cell_echo(value: float) -> str:
    """A grid value as a MissingGridPoint message or the clipping line names
    it: six digits where they read back to the value, in full otherwise."""
    text = per_cell_fmt(value)
    return text if float(text) == value else repr(value)


def _per_cell_missing(rec, what: str) -> MissingGridPoint:
    return MissingGridPoint(
        f"record E/V0={_per_cell_echo(rec.e_over_v0)}, d={_per_cell_echo(rec.d_nm)} nm "
        f"{what}"
    )


#: The per-point figures: (column, record attribute) after the two key
#: columns; fig6a's one column is eps_eff + V0.
_PER_CELL_FIGURES = {
    "fig2": (("v_rms_m_per_s", "v_rms"), ("eps_eff_eV", "eps_eff_ev"),
             ("t_eff_s", "t_eff_s")),
    "fig3": (("E_eV", "e_ev"), ("t_ph_s", "t_ph_numeric_s"),
             ("t_dw_s", "t_dw_numeric_s"), ("t_bl_s", "t_bl_s")),
    "fig5": (("s_nm", "s_nm"), ("tau_eff_s", "tau_eff_s"), ("xi", "xi")),
    "fig6a": (("eps_eff_plus_V0_eV", None),),
}

#: Figure columns left empty where the density never reaches the depth level.
_PER_CELL_OPTIONAL = ("s_nm", "tau_eff_s", "xi")


def _per_cell_curve(records, i: int, rec):
    """Row ``i``'s thickness, then the decay constant, A, B, the edge modes
    and the normalization, each read from its own cell of a SweepTable's
    curve columns. A list of records has no curve columns."""
    if isinstance(records, SweepTable):
        curve = [records.column(name).item(i) for name in CURVE_COLUMNS]
        if not math.isnan(curve[-1]):
            return length_nm_to_si(rec.d_nm), *curve
    raise _per_cell_missing(
        rec, f"has no momentum spectrum to draw curves from (error={rec.error!r})"
    )


def per_cell_emit(records, which: str) -> str:
    """The sweep CSV ("sweep"), table1 or a figure's data of ``records``,
    emitted without a config, one cell at a time in row order, every curve
    grid built per record and every curve drawn from its row's cells of a
    SweepTable's curve columns. A record that cannot be emitted raises
    MissingGridPoint naming the first gap in row order, then column order;
    the first record of a list, which has no curve columns, cannot be drawn."""
    out = [f"# tool: {TOOL_NAME} {__version__}"]
    clipped = [
        f"(E/V0={_per_cell_echo(r.e_over_v0)}, d={_per_cell_echo(r.d_nm)} nm)"
        for r in records
        if NOTE_PHASE_CLIPPED in r.note
    ]
    if clipped:
        out.append(
            "# clipping: phase-time stencil left the energy domain at "
            + ", ".join(clipped)
        )
    if which == "sweep":
        out.append(",".join(RECORD_COLUMNS))
        for rec in records:
            values = [getattr(rec, attr) for attr in RECORD_COLUMNS.values()]
            out.append(
                ",".join(v if isinstance(v, str) else per_cell_fmt(v) for v in values)
            )
    elif which == "fig1":
        out.append("E_over_V0,d_nm,K_per_m,pdf_m")
        for i, rec in enumerate(records):
            d, kappa, a, b, a_d, b_d, norm = _per_cell_curve(records, i, rec)
            ks = np.linspace(-rec.cutoff, rec.cutoff, FIG1_K_POINTS)
            pdf = np.abs(_amplitude(ks, d, kappa, a, b, a_d, b_d)) ** 2 / norm
            prefix = f"{per_cell_fmt(rec.e_over_v0)},{per_cell_fmt(rec.d_nm)}"
            out += [
                f"{prefix},{per_cell_fmt(k)},{per_cell_fmt(p)}" for k, p in zip(ks, pdf)
            ]
    elif which == "fig4":
        out.append("E_over_V0,d_nm,x_nm,relative_density")
        for i, rec in enumerate(records):
            d, kappa, _, b, a_d, _, _ = _per_cell_curve(records, i, rec)
            xs = np.linspace(0.0, d, FIG4_X_POINTS)
            dens = _relative_density(_wave(xs, d, kappa, b, a_d), _wave(0.0, d, kappa, b, a_d))
            prefix = f"{per_cell_fmt(rec.e_over_v0)},{per_cell_fmt(rec.d_nm)}"
            out += [
                f"{prefix},{per_cell_fmt(length_si_to_nm(x))},{per_cell_fmt(v)}"
                for x, v in zip(xs, dens)
            ]
    elif which == "table1":
        out.append("E_over_V0,d_nm,s_nm")
        index = {(r.e_over_v0, r.d_nm): r for r in records}
        for e_ratio in REFERENCE_DEPTHS_NM:
            for d_nm in TABLE_D_NM:
                rec = index.get((e_ratio, d_nm))
                if rec is None:
                    raise MissingGridPoint(
                        f"no sweep record for E/V0={e_ratio}, d={d_nm} nm"
                    )
                if rec.s_nm is None:
                    raise MissingGridPoint(
                        f"record E/V0={e_ratio}, d={d_nm} nm has no depth "
                        f"(note={rec.note!r}, error={rec.error!r})"
                    )
                out.append(f"{per_cell_fmt(e_ratio)},{per_cell_fmt(d_nm)},{rec.s_nm:.4f}")
    elif which in _PER_CELL_FIGURES:
        columns = (("E_over_V0", "e_over_v0"), ("d_nm", "d_nm"), *_PER_CELL_FIGURES[which])
        out.append(",".join(column for column, _ in columns))
        for rec in records:
            cells = []
            for column, attr in columns:
                if attr is None:
                    value = None if rec.eps_eff_ev is None else rec.eps_eff_ev + rec.v0_ev
                else:
                    value = getattr(rec, attr)
                if value is None and attr not in _PER_CELL_OPTIONAL:
                    raise _per_cell_missing(
                        rec, f"is missing {column} (note={rec.note!r}, error={rec.error!r})"
                    )
                cells.append(per_cell_fmt(value))
            out.append(",".join(cells))
    else:
        raise ValueError(f"no per-cell reference for {which!r}")
    return "\n".join(out) + "\n"


def outcome(route, records, which: str) -> str:
    """The text ``route`` emits, or the MissingGridPoint it raises."""
    try:
        return route(records, which)
    except MissingGridPoint as exc:
        return f"MissingGridPoint: {exc}"


def assert_same_text(got: str, want: str) -> None:
    # pytest's diff of two texts of megabytes takes minutes; quote the first
    # line that differs instead
    if got != want:
        g, w = got.splitlines(keepends=True), want.splitlines(keepends=True)
        i = next(
            (i for i, pair in enumerate(zip(g, w)) if pair[0] != pair[1]),
            min(len(g), len(w)),
        )
        message = f"line {i + 1} differs: {g[i:i + 1]} != {w[i:i + 1]}"
        pytest.fail(message, pytrace=False)
