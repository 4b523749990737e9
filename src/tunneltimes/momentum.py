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
-e^{-z} E1(-z) + i pi e^{-z} appear: two scaled_e1() calls per spectrum at a
point, and on the sweep's array pass one scaled_e1_grid() call over z and -z of
every lane together. Every term is real because E1(conj z) = conj E1(z).
kinematics() is then arithmetic on the stored moments.

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
nothing overflows. The series route broadcasts over arrays of points, a lane
per point, so a sweep keeps its thin barriers and narrow windows on the array
pass; the tail's integrals depend on c d alone and are computed once per
window. Against a 40-digit oracle the series hold the moments to
3e-14 or better for kappa d from 1e-7 to 500 (2e-16 at 800), and the
exponential sum to 2e-15 on the paper's grid; the sum still loses digits
where the window is narrow against kappa, down to about 4e-11 at c d of 2
to 3 with kappa d near 700.

momentum_spectrum() builds a MomentumSpectrum at one problem, for the library.
The record kernel builds none: the point path and the sweep's array pass
(evaluation module) run _moments() and _kinematics() themselves, and the
point path fails a moment that is not positive with the spectrum's own check
and message (_moments_error()).

Importing this module loads no numpy, and neither does a point on the
exponential sum, which runs on math and cmath. The series route's constant
arrays are built by its first call (_series_tables()), which imports numpy,
as do the array pass and the amplitude kernel that fig1 draws (_amplitude()).

The window cutoff matters: the distribution has heavy tails, so K_rms (and
everything downstream of it) grows slowly but without bound as the window
widens. The cutoff is therefore an explicit field of BarrierProblem rather
than a buried constant.
"""

from __future__ import annotations

import cmath
import functools
import math
from types import SimpleNamespace

from .barrier import _SERIES_KAPPA_D, BarrierProblem, StationarySolution, stationary_solution
from .constants import ELECTRON_MASS as _M, HBAR as _HBAR, SPEED_OF_LIGHT
from .errors import DomainError
from .numerics import POINT, scaled_e1, scaled_e1_grid
from .records import _Value

TYPE_CHECKING = False  # true for a type checker only
if TYPE_CHECKING:
    import numpy as np

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

#: Lanes the series route takes at once, which bounds its summed tails' memory.
_SERIES_BLOCK = 256

#: Over arrays the exponential sum leaves a lane unsettled where kappa exceeds
#: this many times the cutoff: its second moment cancels by about
#: 3 (kappa / c)^2 there, so its digits depend on the rounding of each step.
_SUM_WELL_CONDITIONED_KAPPA_OVER_C = 4.0

#: Integrals of each kind _window_integrals() takes, of s^-m for m = 0 .. 34.
_TAIL_INTEGRALS = 2 * _TAIL_TERMS + 3


@functools.cache
def _series_tables() -> SimpleNamespace:
    """The series route's constant arrays, built by its first call, so that
    a point on the exponential sum loads no numpy."""
    import numpy as np

    taylor_orders = np.arange(_TAYLOR_TERMS + 1)
    tail_orders = np.arange(_TAIL_TERMS)
    # where every tail starts, s0 = _CENTRE: the powers m of s0^-m, and for
    # plain[m] the power m - 1 (1 for the unused odd m = 1)
    tail_powers = np.arange(_TAIL_INTEGRALS, dtype=float)
    plain_powers = np.where(tail_powers == 1, 1.0, tail_powers - 1.0)
    return SimpleNamespace(
        taylor_orders=taylor_orders,
        inverse_factorials=1.0 / np.cumprod(np.arange(1.0, _TAYLOR_TERMS + 2)),
        # The centre's quadratic forms in a_j s0^j and b_j s0^j, with a_j =
        # T_{j+1} and b_j = kd T_{j+2}: Re(c_i conj c_j) / |psi(d)|^2 is
        # (-1)^{i + q/2} (a_i a_j + b_i b_j) at even q = i + j (an odd q
        # integrates to 0), and s^q and s^{q+2} integrate to s0^{q+1} 2/(q+1)
        # and s0^{q+3} 2/(q+3) over |s| <= s0.
        centre_forms=np.array([
            [(q % 2 == 0) * (-1.0) ** (i + q // 2) * 2.0 / (q + r)
             for r in (1, 3) for q in range(i, i + _TAYLOR_TERMS)]
            for i in range(_TAYLOR_TERMS)
        ]),
        tail_orders=tail_orders,
        # For the normalization (e = 2j + 4) and the second moment (e = 2j +
        # 2), the places in _window_integrals() of plain[e], plain[e - 2],
        # -2 osc.real[e], -2 osc.real[e - 2] and -2 osc.imag[e - 1], which p0,
        # p2, q0, q2, q1 weigh.
        tail_basis=np.array([
            [e, e - 2, _TAIL_INTEGRALS + e, _TAIL_INTEGRALS + e - 2, 2 * _TAIL_INTEGRALS + e - 1]
            for e in (2 * tail_orders + 4, 2 * tail_orders + 2)
        ]),
        tail_powers=tail_powers,
        plain_powers=plain_powers,
        # e^{i s0} s0^-m, e^{i s0} e^{-i s0} E1(-i s0) and s0^{1-m} / (m - 1)
        near_ends=cmath.exp(1j * _CENTRE) * _CENTRE**-tail_powers,
        centre_e1=cmath.exp(1j * _CENTRE) * scaled_e1(-1j * _CENTRE),
        near_plain=_CENTRE**-plain_powers / plain_powers,
        # the powers of d that scale the normalization and the second moment,
        # and of s0 that finish the centre's
        d_powers=np.array([1.0, -1.0]),
        s0_powers=np.array([1.0, 3.0]),
    )


def _amplitude(wavenumber, d, kappa, a, b, a_d, b_d):
    """P + Q e^{-iKd} of the module docstring, over sqrt(2 pi):

        (1/sqrt(2 pi)) * [ (A e^{kappa d} e^{-iKd} - A) / (kappa - iK)
                         + (B - B e^{-kappa d} e^{-iKd}) / (kappa + iK) ]

    A kernel of the wavenumber, the thickness, the decay constant and the
    coefficients A, B, A e^{kappa d}, B e^{-kappa d}, which broadcast against
    each other. The denominators cannot vanish since kappa > 0.
    """
    import numpy as np

    turn = np.exp(-1j * wavenumber * d)
    return (
        (a_d * turn - a) / (kappa - 1j * wavenumber)
        + (b - b_d * turn) / (kappa + 1j * wavenumber)
    ) / _SQRT_TWO_PI


class EffectiveKinematics(_Value):
    """rms wavenumber and the velocity, transit time, and energy it implies."""

    def __init__(
        self,
        k_rms: float,  # 1/m
        v_rms: float,  # m/s
        t_eff: float,  # s
        eps_eff: float,  # J
    ):
        positive = not min(k_rms, v_rms, t_eff, eps_eff) <= 0
        if not positive or v_rms >= SPEED_OF_LIGHT:
            raise _kinematics_error(positive, v_rms)
        self.__dict__.update(k_rms=k_rms, v_rms=v_rms, t_eff=t_eff, eps_eff=eps_eff)


def _kinematics_error(positive, v_rms) -> DomainError:
    """The failure of EffectiveKinematics' checks, which a point's record
    quotes too (evaluation._failures): values not all ``positive``, or else a superluminal
    ``v_rms``."""
    if not positive:
        return DomainError("effective kinematics must be strictly positive")
    return DomainError(
        f"rms tunneling velocity {v_rms:.4e} m/s is superluminal; "
        "the momentum window is unphysically wide"
    )


class MomentumSpectrum(_Value):
    """A solution plus the zeroth and second moments of its momentum density."""

    def __init__(
        self,
        solution: StationarySolution,
        normalization: float,  # integral of |amplitude|^2 over the window, m
        second_moment: float,  # integral of K^2 |amplitude|^2 over the window, 1/m
    ):
        if exc := _moments_error(normalization, second_moment):
            raise exc
        self.__dict__.update(
            solution=solution, normalization=normalization, second_moment=second_moment
        )

    @property
    def problem(self) -> BarrierProblem:
        return self.solution.problem

    def kinematics(self) -> EffectiveKinematics:
        """rms wavenumber of the density and the derived velocity/time/energy."""
        k_rms, v_rms, t_eff, eps_eff = _kinematics(
            self.normalization, self.second_moment, self.problem.thickness
        )
        return EffectiveKinematics(k_rms=k_rms, v_rms=v_rms, t_eff=t_eff, eps_eff=eps_eff)


def _moments_error(normalization, second_moment) -> DomainError | None:
    """The failure of MomentumSpectrum's checks, which a point's record
    quotes too (evaluation._evaluate): a moment that is not positive, or None."""
    if not normalization > 0:
        return DomainError("momentum-density normalization must be positive")
    if not second_moment > 0:
        return DomainError("momentum-density second moment must be positive")
    return None


def _kinematics(normalization, second_moment, d, f=POINT):
    """(K_rms, v_rms, t_eff, eps_eff) from the two window moments."""
    k_rms = f.sqrt(second_moment / normalization)
    v_rms = _HBAR * k_rms / _M
    return k_rms, v_rms, d / v_rms, 0.5 * _M * v_rms**2


def _exponential_moments(kappa, d, c, a, b, a_d, b_d, f):
    """The normalization and the second moment, by the module docstring's sum.

    A kernel of the decay constant, the thickness, the cutoff and the
    coefficients A, B, A e^{kappa d}, B e^{-kappa d}; ``f`` holds the
    elementwise functions. At a point the scaled exponential integral takes
    z and -z in two scaled_e1() calls; over arrays one scaled_e1_grid() call
    takes both; each lane converges on its own, so the values are those of
    two calls.
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
    if f is POINT:
        e1_z, e1_minus_z = scaled_e1(z), scaled_e1(-z)
    else:
        import numpy as np

        e1_z, e1_minus_z = np.split(scaled_e1_grid(np.concatenate((z, -z))), 2)
    turn = f.cexp(1j * c * d)
    j_w = -2.0 * (e1_z / turn).imag
    j_v = 2.0 * (turn * (math.pi * 1j * f.cexp(-z) - e1_minus_z)).imag
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
    """Whether the moments take the series route, at a point or elementwise:
    kappa d below _SERIES_KAPPA_D, or a window whose edge c d lies inside the
    centre. Elsewhere the exponential sum is well conditioned."""
    return (kappa_d < _SERIES_KAPPA_D) | (edge <= _CENTRE)


def _moments(k, kappa, d, c, t, S, A, B, a_d, b_d, f=POINT):
    """The normalization and the second moment, each point by its own route:
    the series where _series_route() holds, the exponential sum elsewhere.

    At a point (``f`` is numerics.POINT) a failure raises. Over 1-D arrays of
    lanes (numerics.GRID, with a scalar cutoff) a lane the sum cannot settle
    is NaN: scaled_e1_grid() leaves its exponential integral unsettled, or
    kappa exceeds _SUM_WELL_CONDITIONED_KAPPA_OVER_C times the cutoff.
    """
    edge = c * d
    series = _series_route(kappa * d, edge)
    if f is POINT and not series:
        return _exponential_moments(kappa, d, c, A, B, a_d, b_d, POINT)
    decayed, tailed = kappa * d > _SUMMED_TAILS_KAPPA_D, edge > _CENTRE
    import numpy as np

    if f is POINT:
        # as on the sweep's array pass (evaluation._grid_pass): a point whose
        # series overflows ends non-finite and fails its checks, without a
        # warning
        with np.errstate(all="ignore"):
            norm, second = _series_moments(k, kappa, d, edge, t, S, decayed, tailed)
        return float(norm), float(second)
    moments = np.full((2, kappa.size), math.nan)
    lanes = np.flatnonzero(~series & (kappa <= _SUM_WELL_CONDITIONED_KAPPA_OVER_C * c))
    moments[:, lanes] = _exponential_moments(
        *(x[lanes] for x in (kappa, d)), c, *(x[lanes] for x in (A, B, a_d, b_d)), f
    )
    # a decayed lane's window ends inside the centre, so it has no tail
    for group in (series & ~decayed & ~tailed, series & ~decayed & tailed, series & decayed):
        lanes = np.flatnonzero(group)
        for start in range(0, lanes.size, _SERIES_BLOCK):
            block = lanes[start : start + _SERIES_BLOCK]
            moments[:, block] = _series_moments(
                *(x[block] for x in (k, kappa, d, edge, t, S)), decayed[block[0]], tailed[block[0]]
            )
    return moments


def _sinh_tails(kappa_d) -> np.ndarray:
    """T_p = sum_n (kappa d)^{2n} / (p + 2n)! for p = 1 .. _TAYLOR_TERMS + 1
    along a last axis, for a scalar or an array of kappa d, each the sum of its
    own 20 + int(1.5 kappa d) terms."""
    import numpy as np

    lam = np.asarray(kappa_d)[..., None]
    terms = 20 + (1.5 * lam).astype(int)
    n, steps = _term_steps(int(terms.max()))
    ratios = lam**2 / steps
    # zero past a row's own terms: its products there, and so what they
    # add to its sum, are exact zeros
    ratios *= n < terms
    tails = (1.0 + np.cumprod(ratios, axis=0, out=ratios).sum(axis=0)) * _series_tables().inverse_factorials
    return tails.reshape(np.shape(kappa_d) + (-1,))


@functools.cache
def _term_steps(count: int) -> tuple[np.ndarray, np.ndarray]:
    """n < count, and (p + 2n + 1) (p + 2n + 2), by which each term of T_p
    divides the one before it times (kappa d)^2, as (count, 1, p) arrays."""
    import numpy as np

    p = _series_tables().taylor_orders + 1.0
    n = np.arange(count)[:, None, None]
    return n, (p + 2.0 * n + 1.0) * (p + 2.0 * n + 2.0)


def _decayed_sinh_tails(kappa_d) -> np.ndarray:
    """e^{-kappa d} T_p for p = 1 .. _TAYLOR_TERMS + 1 along a last axis, for
    a scalar or an array of kappa d past _SUMMED_TAILS_KAPPA_D.

    With x = kappa d, T_p = x^{-p} (cosh x, or sinh x for odd p, minus its
    Taylor terms of degree below p), so e^{-x} T_p = x^{-p} ((1 +/- e^{-2x})/2
    minus the Poisson weights e^{-x} x^m / m! of those degrees), and past x = 64
    (1 +/- e^{-2x})/2 is 1/2 in doubles. Past 2 _TAYLOR_TERMS the weights are
    a small part of the total, so nothing cancels; they underflow to 0 where
    e^{-x} does, which is their value.
    """
    import numpy as np

    orders = _series_tables().taylor_orders
    lam = np.asarray(kappa_d)[..., None]
    steps = np.concatenate((np.exp(-lam), lam / orders[1:]), axis=-1)
    weights = np.cumprod(steps, axis=-1)  # e^{-x} x^m / m!, m = 0 .. _TAYLOR_TERMS
    # the sums over m < p of p's parity, for p = 2, 3, ..: running sums down
    # the pairs (e^{-x} x^{2r} / (2r)!, e^{-x} x^{2r+1} / (2r+1)!)
    pairs = weights[..., :-1].reshape(lam.shape[:-1] + (-1, 2))
    heads = np.cumsum(pairs, axis=-2).reshape(lam.shape[:-1] + (-1,))
    heads = np.concatenate((np.zeros_like(lam), heads), axis=-1)
    return (0.5 - heads) * lam ** -(orders + 1.0)


def _window_integrals(edge: float) -> np.ndarray:
    """plain, -2 osc.real and -2 osc.imag end to end, with plain and osc the
    integrals over [_CENTRE, edge] of s^-m (even m) and s^-m e^{is},
    m < _TAIL_INTEGRALS, for a window edge c d past the centre; -2 is the
    factor of q0, q2 and q1 in the numerator. They depend on c d alone: one
    set a thickness."""
    import numpy as np

    tables = _series_tables()
    far = cmath.exp(1j * edge)
    ends = (tables.near_ends - far * edge**-tables.tail_powers).tolist()
    osc = [-1j * (far - tables.near_ends[0]), tables.centre_e1 - far * scaled_e1(-1j * edge)]
    for j in range(1, _TAIL_INTEGRALS - 1):  # upward, by parts
        osc.append((ends[j] + 1j * osc[j]) / j)
    osc = -2.0 * np.array(osc)
    plain = tables.near_plain - edge**-tables.plain_powers / tables.plain_powers
    return np.concatenate((plain, osc.real, osc.imag))


def _series_moments(k, kappa, d, edge, t, S, decayed, tailed):
    """The normalization and the second moment by the module docstring's
    series: a kernel of a point's scalars, or of 1-D arrays of lanes that
    share the flags. ``decayed`` lanes have kappa d past _SUMMED_TAILS_KAPPA_D,
    ``tailed`` ones a window edge c d past the centre."""
    import numpy as np

    tables = _series_tables()
    lam, kd = np.multiply(kappa, d), np.multiply(k, d)
    tails = _decayed_sinh_tails(lam) if decayed else _sinh_tails(lam)
    # each term is |psi(d)|^2 times one of the unit edge wave; psi(d) = t
    # e^{ikd} e^{-kappa d}, and the decayed tails hold the e^{-kappa d}
    scale = np.power.outer(d, tables.d_powers) * np.abs(t if decayed else S)[..., None] ** 2

    # centre: the square of sum_j c_j s^j over |s| <= s0, term by term
    s0 = np.minimum(edge, _CENTRE)
    ab = np.array((tails[..., :-1], kd[..., None] * tails[..., 1:]))  # a_j, b_j
    ab *= np.power.outer(s0, tables.taylor_orders[:-1])
    # einsum, not matmul: its own loops need no BLAS work buffer
    forms = np.einsum("a...i,ij->a...j", ab, tables.centre_forms)
    moments = (forms.reshape(forms.shape[:-1] + (2, -1)) * ab[..., None, :]).sum(axis=(0, -1))
    moments *= np.power.outer(s0, tables.s0_powers)

    if tailed:  # kappa d < _SERIES_KAPPA_D
        # psi and d psi/dx * d at x = 0 over psi(d) are ch - i kd shc and
        # i kd ch - (kappa d)^2 shc, with ch = cosh(kappa d) and shc =
        # sinh(kappa d)/(kappa d), and at x = d 1 and i kd; the numerator of
        # |a|^2, even part, reads p0 + p2 s^2 - 2 (q0 + q2 s^2) cos s - 2 q1 s sin s
        ch, shc = np.cosh(lam), np.sinh(lam) / lam
        ch21, sh2, kd2, lam2 = ch * ch + 1.0, shc * shc, kd * kd, lam * lam
        coef = np.array((  # p0, p2, q0, q2, q1
            kd2 * ch21 + lam2 * lam2 * sh2, ch21 + kd2 * sh2, kd2 * ch, ch, shc * (kd2 - lam2),
        )).T
        edges = np.ravel(edge).tolist()
        sets = {e: _window_integrals(e) for e in set(edges)}
        integrals = np.array([sets[e] for e in edges]).reshape(np.shape(edge) + (-1,))
        integrals = integrals[..., tables.tail_basis]
        # 1/(lam^2 + s^2)^2 = sum_j (j + 1) (-lam^2)^j s^{-2j-4}
        orders = tables.tail_orders
        weights = (orders + 1.0) * np.power.outer(-lam2, orders)
        terms = (coef[..., None, :, None] * integrals).sum(axis=-2)
        moments += 2.0 * (weights[..., None, :] * terms).sum(axis=-1)
    return np.moveaxis(moments * scale, -1, 0) / (2.0 * math.pi)


def momentum_spectrum(problem: BarrierProblem) -> MomentumSpectrum:
    """Build the spectrum for a problem: both moments over its window, exactly."""
    sol = stationary_solution(problem)
    norm, second = _moments(
        sol.k, sol.kappa, problem.thickness, problem.cutoff,
        sol.t, sol.S, sol.A, sol.B, sol.a_d, sol.b_d,
    )
    return MomentumSpectrum(solution=sol, normalization=norm, second_moment=second)
