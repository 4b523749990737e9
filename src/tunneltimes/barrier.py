"""Stationary scattering solution for a one-dimensional rectangular barrier.

A unit-amplitude plane wave with kinetic energy E below the barrier height V0
comes in from the left of a barrier occupying 0 <= x <= d. The eigenfunction
splits into three regions:

    left of the barrier   exp(ikx) + R exp(-ikx),      k     = sqrt(2 m E) / hbar
    inside the barrier    A exp(kappa x) + B exp(-kappa x),
                                                       kappa = sqrt(2 m (V0 - E)) / hbar
    right of the barrier  S exp(ikx)

Everything is closed form, and held in the bounded e^{-kappa d}-scaled form
so that nothing overflows at any thickness. The solution is built from

    t = S e^{kappa d} = -4 i r e^{-ikd} / [(1 - r^2)(1 - e^{-2 kappa d})
                                          - 2 i r (1 + e^{-2 kappa d})],

r = k / kappa, the standard transmission amplitude with numerator and
denominator multiplied by 2 e^{-kappa d}. Matching value and slope at x = d
gives B = t e^{ikd} (1 - ir) / 2 and the edge mode A e^{kappa d} =
t e^{ikd} (1 + ir) e^{-kappa d} / 2; A, B e^{-kappa d} and S follow by
factors of e^{-kappa d}, and R = A + B - 1 from value continuity at x = 0.
Below kappa d = 1/2, where A and B grow like r and their sum cancels, R is
evaluated as the product i t e^{ikd} (r + 1/r) (e^{-2 kappa d} - 1) / 4.
The slope condition at x = 0 is not imposed separately: it holds
identically for this t, and the test suite certifies all four matching
conditions numerically (oracles.continuity_residual). The in-barrier wave is
evaluated on the edge mode, as A e^{kappa d} e^{kappa (x - d)} +
B e^{-kappa x}, whose exponents are never positive. The kernel
_transmission() takes the factors of t that depend on the energy alone
(_energy_factors()) and a thickness. So the phase time's energy stencil takes
t at two other energies without building a problem or solving for A, B and R:
it checks its two energies and forms their factors once, and evaluates only
the thickness's part of t at each thickness.

Where S, A or the edge modes fall below the smallest double (kappa d past
about 745) they are 0, which is their value to double precision; B and R
stay of order one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import CONSTANTS, energy_ev_to_si, length_nm_to_si
from .errors import DomainError
from .numerics import POINT

_M = CONSTANTS.electron_mass
_HBAR = CONSTANTS.hbar

#: Momentum-spectrum integration window, 1/m. The default matches the golden
#: reference data; rms-momentum quantities are sensitive to it because the
#: momentum distribution has heavy tails, so it stays user-settable.
DEFAULT_CUTOFF = 7.5e10

#: Below this energy gap to the barrier top (in eV) the decay constant is so
#: small that k/kappa ratios become ill-conditioned; refuse rather than
#: return digits that look meaningful.
NEAR_THRESHOLD_GAP_EV = 1e-6

#: Below this kappa d, A and B grow like k / kappa and terms built on them
#: cancel, so the momentum moments and the dwell integral take series of
#: positive terms on the edge form psi(d - y) (see the momentum module), and
#: R = A + B - 1 a product.
_SERIES_KAPPA_D = 0.5


def _check_tunneling(energy: float, height: float) -> None:
    """The tunneling regime: 0 < E, k > 0 and V0 - E >= NEAR_THRESHOLD_GAP_EV.

    k = sqrt(2 m E) / hbar underflows to 0 below E of about 2e-275 eV, where
    the closed forms would divide by it; it is positive exactly where 2 m E
    is, for the square root of the least double over hbar is about 2e-128.
    """
    if not energy > 0:
        raise DomainError("incident energy must be positive")
    if not 2.0 * _M * energy > 0:
        raise DomainError("incident energy is so small that its wavenumber k underflows to 0")
    if not energy < height:
        raise DomainError("tunneling requires E below the barrier height V0")
    if height - energy < energy_ev_to_si(NEAR_THRESHOLD_GAP_EV):
        raise DomainError(
            "energy closer than "
            f"{NEAR_THRESHOLD_GAP_EV} eV to the barrier top is ill-conditioned"
        )


def _check_barrier(height: float, thickness: float, cutoff: float) -> None:
    """BarrierProblem's rules that do not involve the energy."""
    if not thickness > 0:
        raise DomainError("barrier thickness must be positive")
    if not cutoff > 0:
        raise DomainError("momentum cutoff must be positive")
    g = 2.0 * _M * height / _HBAR**2  # k^2 + kappa^2
    top = math.sqrt(2.0 * _M * height) / _HBAR  # k, kappa < top below V0
    for name, value in (
        ("barrier height", height),
        ("barrier thickness", thickness),
        ("momentum cutoff", cutoff),
        ("barrier phase k d", top * thickness),
        ("window phase Kprime d", cutoff * thickness),
        ("barrier height's (2 m V0 / hbar^2)^2", g * g),
        ("momentum cutoff's Kprime^2", cutoff * cutoff),
    ):
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite")


@dataclass(frozen=True)
class BarrierProblem:
    """One tunneling problem: energy, barrier, and momentum-window cutoff.

    All fields are SI (joules, metres, 1/metres). Only the tunneling regime
    0 < E < V0 is representable; construction rejects anything else; an
    energy so small that its wavenumber k underflows to 0; a height or a
    cutoff so large that g^2 = (2 m V0 / hbar^2)^2 or Kprime^2, which the
    closed forms square, is not a finite double; and a thickness so large
    that the phase k d, for any wavenumber up to sqrt(2 m V0) / hbar, or the
    window's phase Kprime d is not a finite double.
    """

    energy: float
    height: float
    thickness: float
    cutoff: float = DEFAULT_CUTOFF

    def __post_init__(self):
        _check_tunneling(self.energy, self.height)
        _check_barrier(self.height, self.thickness, self.cutoff)

    @classmethod
    def from_ev_nm(
        cls,
        energy_ev: float,
        height_ev: float,
        thickness_nm: float,
        cutoff: float = DEFAULT_CUTOFF,
    ) -> "BarrierProblem":
        """Build a problem from eV / nm boundary units."""
        return cls(
            energy=energy_ev_to_si(energy_ev),
            height=energy_ev_to_si(height_ev),
            thickness=length_nm_to_si(thickness_nm),
            cutoff=cutoff,
        )

    @property
    def e_over_v0(self) -> float:
        return self.energy / self.height


@dataclass(frozen=True)
class Wavenumbers:
    """Propagating wavenumber k and in-barrier decay constant kappa (1/m)."""

    k: float
    kappa: float


@dataclass(frozen=True)
class StationarySolution:
    """The four complex coefficients of the matched eigenfunction.

    ``edge_modes`` is (A e^{kappa d}, B e^{-kappa d}), the two in-barrier
    modes at x = d. All of them are derived from the bounded t of the module
    docstring, so they stay finite at any thickness.
    """

    problem: BarrierProblem
    wavenumbers: Wavenumbers
    t: complex  # S e^{kappa d}
    S: complex  # transmitted amplitude
    A: complex  # growing in-barrier mode
    B: complex  # decaying in-barrier mode
    R: complex  # reflected amplitude
    edge_modes: tuple[complex, complex]

    @property
    def transmission(self) -> float:
        """Transmission probability |S|^2."""
        return abs(self.S) ** 2

    @property
    def reflection(self) -> float:
        """Reflection probability |R|^2."""
        return abs(self.R) ** 2

    def psi_barrier(self, x):
        """In-barrier wave A e^{kappa x} + B e^{-kappa x}; requires 0 <= x <= d.

        Evaluated as A e^{kappa d} e^{kappa (x - d)} + B e^{-kappa x}.
        """
        import numpy as np

        xarr = np.asarray(x, dtype=float)
        d = self.problem.thickness
        if np.any(xarr < 0.0) or np.any(xarr > d):
            raise DomainError("barrier wavefunction is only defined on 0 <= x <= d")
        out = _wave(xarr, d, self.wavenumbers.kappa, self.B, self.edge_modes[0])
        return complex(out) if xarr.ndim == 0 else out


def _wave(x, d, kappa, b, a_d):
    """The in-barrier wave at x, as A e^{kappa d} e^{kappa (x - d)} +
    B e^{-kappa x}: a kernel whose arguments broadcast against each other."""
    import numpy as np

    return a_d * np.exp(kappa * (x - d)) + b * np.exp(-kappa * x)


def _wavenumber_pair(energy, height, f=POINT):
    """(k, kappa) at ``energy`` below ``height``; ``f`` as in the numerics module."""
    k = f.sqrt(2.0 * _M * energy) / _HBAR
    kappa = f.sqrt(2.0 * _M * (height - energy)) / _HBAR
    return k, kappa


def wavenumbers(problem: BarrierProblem) -> Wavenumbers:
    """k = sqrt(2mE)/hbar and kappa = sqrt(2m(V0-E))/hbar for the problem."""
    return Wavenumbers(*_wavenumber_pair(problem.energy, problem.height))


def _energy_factors(k, kappa):
    """The factors of t that depend on the energy alone, for _transmission():
    1 - r^2, 2 i r, -4 i r, -i k and -2 kappa, with r = k / kappa."""
    ratio = k / kappa
    return 1.0 - ratio**2, 2j * ratio, -4j * ratio, -1j * k, -2.0 * kappa


def _transmission(factors, d, f=POINT):
    """t = S e^{kappa d} through a barrier of thickness d, from the energy's
    _energy_factors(); each factor is the left operand of its product, so t
    has the bits of the expression written out in full."""
    one_minus_r2, two_ir, minus_four_ir, minus_ik, minus_two_kappa = factors
    x = minus_two_kappa * d
    den = one_minus_r2 * -f.expm1(x) - two_ir * (1.0 + f.exp(x))
    return minus_four_ir * f.cexp(minus_ik * d) / den


def _coefficients(k, kappa, d, f=POINT):
    """(t, S, A, B, R, A e^{kappa d}, B e^{-kappa d}) by the module docstring."""
    ratio = k / kappa
    decay = f.exp(-kappa * d)
    t = _transmission(_energy_factors(k, kappa), d, f)
    # Value and slope continuity at x = d, solved for the in-barrier modes.
    half = 0.5 * t * f.cexp(1j * k * d)
    B = half * (1.0 - 1j * ratio)
    a_d = half * (1.0 + 1j * ratio) * decay
    A = a_d * decay
    # Value continuity at x = 0, R = A + B - 1; below _SERIES_KAPPA_D, where
    # A and B grow like r and their sum cancels, as the module docstring's product
    R, thin = A + B - 1.0, kappa * d < _SERIES_KAPPA_D
    if f is not POINT or thin:
        R = f.where(thin, 0.5j * half * (ratio + 1.0 / ratio) * f.expm1(-2.0 * kappa * d), R)
    return t, t * decay, A, B, R, a_d, B * decay


def stationary_solution(problem: BarrierProblem) -> StationarySolution:
    """Solve the matching conditions; see the module docstring for the route."""
    wn = wavenumbers(problem)
    t, S, A, B, R, a_d, b_d = _coefficients(wn.k, wn.kappa, problem.thickness)
    return StationarySolution(
        problem, wn, t=t, S=S, A=A, B=B, R=R, edge_modes=(a_d, b_d)
    )


def incident_flux(problem: BarrierProblem) -> float:
    """Probability flux of the unit incident wave: hbar k / m = sqrt(2E/m)."""
    return _flux(wavenumbers(problem).k)


def _flux(k):
    return _HBAR * k / _M

