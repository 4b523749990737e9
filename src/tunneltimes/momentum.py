"""In-barrier momentum spectrum and the kinematics derived from it.

The barrier-region wavefunction, restricted to [0, d] and Fourier transformed,

    amplitude(K) = (1/sqrt(2 pi)) * integral_0^d exp(-iKx) psi_barrier(x) dx,

has an elementary antiderivative, so the amplitude is evaluated in closed form;
quadrature of the defining integral survives only as a cross-check in the test
suite. |amplitude|^2, normalized over the window [-cutoff, cutoff], acts as a
probability distribution over the wavenumber K. Its root-mean-square defines a
tunneling velocity v_rms = hbar K_rms / m, a transit time t_eff = d / v_rms,
and a kinetic energy eps_eff = m v_rms^2 / 2.

Both window moments, the normalization and the integral of K^2 |amplitude|^2,
are exact integrals too. With w = kappa - iK and v = kappa + iK,

    sqrt(2 pi) amplitude(K) = P + Q e^{-iKd},
    P = -A/w + B/v,   Q = A e^{kappa d}/w - B e^{-kappa d}/v,

so |amplitude|^2 is a sum of the terms 1/(wv), 1/w^2, 1/v^2, each alone and
times e^{-iKd}, with constant coefficients. Over [-c, c] the plain terms
integrate to arctangents and rationals. The oscillating ones reduce to the
exponential integral at z = d (kappa + ic), through

    integral e^{iKd}/w dK =  i e^{kappa d} [E1(z) - E1(conj z)],
    integral e^{iKd}/v dK = -i e^{-kappa d} [Ei(z) - Ei(conj z)],

and to these by parts for 1/w^2 and 1/v^2. For the second moment,
K^2/(wv) = 1 - kappa^2/(wv) and K^2/w^2 = -1 + 2 kappa/w - kappa^2/w^2 (the
same with v). Only the bounded scaled forms e^z E1(z) and e^{-z} Ei(z) =
-e^{-z} E1(-z) + i pi e^{-z} appear, two scaled_e1() calls per spectrum, and
every term is real because E1(conj z) = conj E1(z). kinematics() is then
arithmetic on the stored moments.

The sum is exact but not always well conditioned. Where kappa d is small
(near the barrier top, or on a barrier much thinner than 1/kappa) its terms
grow like 1/kappa and cancel, and on a window narrower than about 1/d they
cancel at any kappa d. There the moments come from series
instead, built on the edge form of the wave, psi(d - y) = psi(d) [cosh(kappa
y) - ik sinh(kappa y)/kappa]. With s = Kd, the Taylor series
sqrt(2 pi) a(K) = d sum_j c_j s^j has

    c_j = psi(d) (-i)^j [T_{j+1} - ikd T_{j+2}],   T_p = sum_n (kappa d)^{2n} / (p + 2n)!,

all of positive terms, and its square integrates term by term over the
centre |s| <= 2 (or the whole window, if narrower). Past the centre, for
kappa d < 1/2 only, (kappa^2 + K^2) a(K) sqrt(2 pi) = -(psi'(0) + iK psi(0))
+ (psi'(d) + iK psi(d)) e^{-iKd} is bounded, and 1/(kappa^2 + K^2)^2 expands
in powers of (kappa/K)^2, which leaves integrals of s^{-m} e^{is}: the
exponential integral at -is for m = 1, and an upward recursion by parts
from it. Past kappa d = 64 the centre's T_p come from their closed form,
cosh or sinh of kappa d less its Taylor head, with psi(d)'s e^{-kappa d}
folded in, so a thick barrier under a narrow window needs bounded memory and
nothing overflows. Against a 40-digit oracle the series hold the moments to
3e-14 or better for kappa d from 1e-7 to 500 (2e-16 at 800), and the
exponential sum to 2e-15 on the paper's grid; the sum still loses digits
where the window is narrow against kappa, down to about 4e-11 at c d of 2
to 3 with kappa d near 700.

The window cutoff matters: the distribution has heavy tails, so K_rms (and
everything downstream of it) grows slowly but without bound as the window
widens. The cutoff is therefore an explicit field of BarrierProblem rather
than a buried constant.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .barrier import _SERIES_KAPPA_D, BarrierProblem, StationarySolution, stationary_solution
from .constants import CONSTANTS, SPEED_OF_LIGHT
from .errors import DomainError
from .numerics import POINT, scaled_e1

_M = CONSTANTS.electron_mass
_HBAR = CONSTANTS.hbar

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

#: Half-width, in s = Kd, of the centre of the window that the amplitude's
#: Taylor series covers.
_CENTRE = 2.0

#: Taylor terms of the amplitude in s; 2^30 / 30! is below 1e-23.
_TAYLOR_TERMS = 30

#: Up to this kappa d the series route sums T_p term by term; past it,
#: where the sum would need about 1.5 kappa d terms and overflow past 700,
#: it takes e^{-kappa d} T_p from the closed form of _decayed_sinh_tails().
_SUMMED_TAILS_KAPPA_D = 64.0

#: Terms of the tail's expansion in (kappa d / s)^2 <= 1/16.
_TAIL_TERMS = 16

_TAYLOR_ORDERS = np.arange(_TAYLOR_TERMS + 1)
_MINUS_I_POWERS = (-1j) ** _TAYLOR_ORDERS[:-1]
_INVERSE_FACTORIALS = 1.0 / np.cumprod(np.arange(1.0, _TAYLOR_TERMS + 2))
_EVEN_POWERS = np.arange(0, 2 * _TAYLOR_TERMS - 1, 2)
_TAIL_ORDERS = np.arange(_TAIL_TERMS)


def momentum_amplitude(sol: StationarySolution, wavenumber):
    """Closed-form momentum amplitude at wavenumber K (scalar or array).

    Evaluates the exact antiderivative of exp(-iKx) (A e^{kappa x} +
    B e^{-kappa x}) over [0, d] on the edge modes; see _amplitude().
    """
    karr = np.asarray(wavenumber, dtype=float)
    out = _amplitude(
        karr, sol.problem.thickness, sol.wavenumbers.kappa, sol.A, sol.B, *sol.edge_modes
    )
    return complex(out) if karr.ndim == 0 else out


def _amplitude(wavenumber, d, kappa, a, b, a_d, b_d):
    """P + Q e^{-iKd} of the module docstring, over sqrt(2 pi):

        (1/sqrt(2 pi)) * [ (A e^{kappa d} e^{-iKd} - A) / (kappa - iK)
                         + (B - B e^{-kappa d} e^{-iKd}) / (kappa + iK) ]

    A kernel of the wavenumber, the thickness, the decay constant and the
    coefficients A, B, A e^{kappa d}, B e^{-kappa d}, which broadcast against
    each other. The denominators cannot vanish since kappa > 0.
    """
    turn = np.exp(-1j * wavenumber * d)
    return (
        (a_d * turn - a) / (kappa - 1j * wavenumber)
        + (b - b_d * turn) / (kappa + 1j * wavenumber)
    ) / _SQRT_TWO_PI


@dataclass(frozen=True)
class EffectiveKinematics:
    """rms wavenumber and the velocity, transit time, and energy it implies."""

    k_rms: float  # 1/m
    v_rms: float  # m/s
    t_eff: float  # s
    eps_eff: float  # J

    def __post_init__(self):
        if min(self.k_rms, self.v_rms, self.t_eff, self.eps_eff) <= 0:
            raise DomainError("effective kinematics must be strictly positive")
        if self.v_rms >= SPEED_OF_LIGHT:
            raise DomainError(
                f"rms tunneling velocity {self.v_rms:.4e} m/s is superluminal; "
                "the momentum window is unphysically wide"
            )


@dataclass(frozen=True)
class MomentumSpectrum:
    """A solution plus the zeroth and second moments of its momentum density."""

    solution: StationarySolution
    normalization: float  # integral of |amplitude|^2 over the window, m
    second_moment: float  # integral of K^2 |amplitude|^2 over the window, 1/m

    def __post_init__(self):
        if not self.normalization > 0:
            raise DomainError("momentum-density normalization must be positive")
        if not self.second_moment > 0:
            raise DomainError("momentum-density second moment must be positive")

    @property
    def problem(self) -> BarrierProblem:
        return self.solution.problem

    def pdf(self, wavenumber):
        """Normalized momentum density (units m); requires |K| <= cutoff."""
        karr = np.asarray(wavenumber, dtype=float)
        if np.any(np.abs(karr) > self.problem.cutoff):
            raise DomainError("momentum density is only defined inside the window")
        out = np.abs(momentum_amplitude(self.solution, karr)) ** 2 / self.normalization
        return float(out) if karr.ndim == 0 else out

    def kinematics(self) -> EffectiveKinematics:
        """rms wavenumber of the density and the derived velocity/time/energy."""
        k_rms, v_rms, t_eff, eps_eff = _kinematics(
            self.normalization, self.second_moment, self.problem.thickness
        )
        return EffectiveKinematics(k_rms=k_rms, v_rms=v_rms, t_eff=t_eff, eps_eff=eps_eff)


def _kinematics(normalization, second_moment, d, f=POINT):
    """(K_rms, v_rms, t_eff, eps_eff) from the two window moments."""
    k_rms = f.sqrt(second_moment / normalization)
    v_rms = _HBAR * k_rms / _M
    return k_rms, v_rms, d / v_rms, 0.5 * _M * v_rms**2


def _exponential_moments(kappa, d, c, a, b, a_d, b_d, f, e1):
    """The normalization and the second moment, by the module docstring's sum.

    A kernel of the decay constant, the thickness, the cutoff and the
    coefficients A, B, A e^{kappa d}, B e^{-kappa d}; ``f`` holds the
    elementwise functions and ``e1`` the scaled exponential integral.
    """
    # |P + Q e^{-iKd}|^2 = plain/(wv) - 2 Re(cross/w^2)
    #     + 2 Re(e^{-iKd} (-osc/(wv) + osc_v2/v^2 + osc_w2/w^2))
    plain = abs(a) ** 2 + abs(b) ** 2 + abs(a_d) ** 2 + abs(b_d) ** 2
    cross = (a * b.conjugate() + a_d * b_d.conjugate()).real
    osc = (a.conjugate() * a_d + b.conjugate() * b_d).real
    osc_v2 = (a.conjugate() * b_d).real
    osc_w2 = (b.conjugate() * a_d).real

    # integrals over [-c, c] of 1/(wv), 1/w^2, and e^{iKd} times 1, 1/w,
    # 1/v, 1/(wv), 1/w^2, 1/v^2; all real
    arc = f.atan2(c, kappa)
    i_wv = 2.0 * arc / kappa
    i_w2 = 2.0 * c / (kappa**2 + c**2)
    sinc = 2.0 * f.sin(c * d) / d
    z = kappa * d + 1j * (c * d)
    turn = f.cexp(1j * c * d)
    j_w = -2.0 * (e1(z) / turn).imag
    j_v = 2.0 * (turn * (math.pi * 1j * f.cexp(-z) - e1(-z))).imag
    j_wv = (j_w + j_v) / (2.0 * kappa)
    l_w = 2.0 * (turn / (kappa - 1j * c)).imag - d * j_w
    l_v = -2.0 * (turn / (kappa + 1j * c)).imag + d * j_v

    def total(wv, w2, e_wv, e_w2, e_v2):
        # K -> -K swaps w and v, so e^{-iKd}/v^2 integrates like e^{iKd}/w^2
        mixed = -osc * e_wv + osc_v2 * e_w2 + osc_w2 * e_v2
        return (plain * wv - 2.0 * cross * w2 + 2.0 * mixed) / (2.0 * math.pi)

    normalization = total(i_wv, i_w2, j_wv, l_w, l_v)
    second_moment = total(
        2.0 * c - kappa**2 * i_wv,
        -2.0 * c + 4.0 * kappa * arc - kappa**2 * i_w2,
        sinc - kappa**2 * j_wv,
        -sinc + 2.0 * kappa * j_w - kappa**2 * l_w,
        -sinc + 2.0 * kappa * j_v - kappa**2 * l_v,
    )
    return normalization, second_moment


def _series_route(kappa_d, edge):
    """Whether the moments come from _series_moments(), at a point or
    elementwise: kappa d below _SERIES_KAPPA_D, or a window whose edge c d
    lies inside the centre. Elsewhere the exponential sum is well conditioned."""
    return (kappa_d < _SERIES_KAPPA_D) | (edge <= _CENTRE)


def _sinh_tails(kappa_d: float) -> np.ndarray:
    """T_p = sum_n (kappa d)^{2n} / (p + 2n)! for p = 1 .. _TAYLOR_TERMS + 1."""
    p = _TAYLOR_ORDERS + 1.0
    n = np.arange(20 + int(1.5 * kappa_d))[:, None]
    ratios = kappa_d**2 / ((p + 2.0 * n + 1.0) * (p + 2.0 * n + 2.0))
    return (1.0 + np.cumprod(ratios, axis=0).sum(axis=0)) * _INVERSE_FACTORIALS


def _decayed_sinh_tails(kappa_d: float) -> np.ndarray:
    """e^{-kappa d} T_p for p = 1 .. _TAYLOR_TERMS + 1, for kappa d past
    _SUMMED_TAILS_KAPPA_D.

    With x = kappa d, T_p = x^{-p} (cosh x, or sinh x for odd p, minus its
    Taylor terms of degree below p), so e^{-x} T_p = x^{-p} ((1 +/- e^{-2x})/2
    minus the Poisson weights e^{-x} x^m / m! of those degrees). Past 2
    _TAYLOR_TERMS the weights are a small part of the total, so nothing
    cancels; they underflow to 0 where e^{-x} does, which is their value.
    """
    steps = np.empty(_TAYLOR_TERMS + 1)
    steps[0] = math.exp(-kappa_d)
    steps[1:] = kappa_d / np.arange(1.0, _TAYLOR_TERMS + 1)
    weights = np.cumprod(steps)  # e^{-x} x^m / m!, m = 0 .. _TAYLOR_TERMS
    heads = np.zeros(_TAYLOR_TERMS + 2)  # sums over m < p of p's parity
    for p in range(2, _TAYLOR_TERMS + 2):
        heads[p] = heads[p - 2] + weights[p - 2]
    p = _TAYLOR_ORDERS + 1
    decayed = np.where(p % 2, -math.expm1(-2.0 * kappa_d), 1.0 + math.exp(-2.0 * kappa_d))
    return (0.5 * decayed - heads[1:]) * kappa_d ** -p.astype(float)


def _series_moments(sol: StationarySolution) -> tuple[float, float]:
    """The normalization and the second moment, by the module docstring's series."""
    k, kappa = sol.wavenumbers.k, sol.wavenumbers.kappa
    d = sol.problem.thickness
    lam, kd, edge = kappa * d, k * d, sol.problem.cutoff * d
    if lam <= _SUMMED_TAILS_KAPPA_D:
        psi_d, tails = sol.S * cmath.exp(1j * kd), _sinh_tails(lam)
    else:
        # psi(d) = t e^{ikd} e^{-kappa d}; the e^{-kappa d} goes into the tails
        psi_d, tails = sol.t * cmath.exp(1j * kd), _decayed_sinh_tails(lam)

    # centre: the square of sum_j c_j s^j over |s| <= s0, term by term;
    # only even powers of s survive the symmetric window
    s0 = min(edge, _CENTRE)
    c = psi_d * _MINUS_I_POWERS * (tails[:-1] - 1j * kd * tails[1:])
    square = np.convolve(c, c.conjugate()).real[::2]
    q = _EVEN_POWERS
    norm = d * float(np.dot(square, 2.0 * s0 ** (q + 1.0) / (q + 1.0)))
    second = float(np.dot(square, 2.0 * s0 ** (q + 3.0) / (q + 3.0))) / d

    if edge > s0:
        # psi and d psi/dx * d at both faces; the numerator of |a|^2, even
        # part, reads p0 + p2 s^2 - 2 (q0 + q2 s^2) cos s - 2 q1 s sin s
        shc = math.sinh(lam) / lam
        alpha = psi_d * (math.cosh(lam) - 1j * kd * shc)
        beta = psi_d * (1j * kd * math.cosh(lam) - lam * lam * shc)
        alpha_d, beta_d = psi_d, 1j * kd * psi_d
        p0 = abs(beta) ** 2 + abs(beta_d) ** 2
        p2 = abs(alpha) ** 2 + abs(alpha_d) ** 2
        q0 = (beta.conjugate() * beta_d).real
        q2 = (alpha.conjugate() * alpha_d).real
        q1 = (beta.conjugate() * alpha_d - alpha.conjugate() * beta_d).real

        # integrals over [s0, edge] of s^-m e^{is} (osc) and of s^-m (even m)
        top = 2 * _TAIL_TERMS + 3
        near, far = cmath.exp(1j * s0), cmath.exp(1j * edge)
        osc = np.empty(top, dtype=complex)
        osc[0] = -1j * (far - near)
        osc[1] = near * scaled_e1(-1j * s0) - far * scaled_e1(-1j * edge)
        for m in range(1, top - 1):
            osc[m + 1] = (near * s0**-m - far * edge**-m + 1j * osc[m]) / m
        m = np.arange(top) - 1.0
        m[1] = 1.0  # odd powers are never used
        plain = (s0**-m - edge**-m) / m

        def tail(shift):
            # 1/(lam^2 + s^2)^2 = sum_j (j + 1) (-lam^2)^j s^{-2j-4}
            e = 2 * _TAIL_ORDERS + 4 - shift
            terms = p0 * plain[e] + p2 * plain[e - 2]
            terms -= 2.0 * (q0 * osc[e].real + q2 * osc[e - 2].real)
            terms -= 2.0 * q1 * osc[e - 1].imag
            weights = (_TAIL_ORDERS + 1.0) * (-lam * lam) ** _TAIL_ORDERS
            return float(np.dot(weights, terms))

        norm += 2.0 * d * tail(0)
        second += 2.0 * tail(2) / d
    return norm / (2.0 * math.pi), second / (2.0 * math.pi)


def momentum_spectrum(
    problem: BarrierProblem,
    solution: StationarySolution | None = None,
) -> MomentumSpectrum:
    """Build the spectrum for a problem: both moments over its window, exactly."""
    sol = stationary_solution(problem) if solution is None else solution
    d = problem.thickness
    if _series_route(sol.wavenumbers.kappa * d, problem.cutoff * d):
        norm, second = _series_moments(sol)
    else:
        a_d, b_d = sol.edge_modes
        norm, second = _exponential_moments(
            sol.wavenumbers.kappa, d, problem.cutoff,
            sol.A, sol.B, a_d, b_d, POINT, scaled_e1,
        )
    return MomentumSpectrum(solution=sol, normalization=norm, second_moment=second)
