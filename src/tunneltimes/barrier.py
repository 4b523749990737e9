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
factors of e^{-kappa d}, and R from value continuity at x = 0. The slope
condition at x = 0 is not imposed separately: it holds identically for this
t, and continuity_residual() certifies all four matching conditions
numerically. The in-barrier wave is evaluated on the edge mode, as
A e^{kappa d} e^{kappa (x - d)} + B e^{-kappa x}, whose exponents are never
positive. scaled_transmission() evaluates t at another energy over the same
barrier, for the phase time's energy stencil, without building a problem or
solving for A, B and R; it accepts the energies BarrierProblem does.

Where S, A or the edge modes fall below the smallest double (kappa d past
about 745) they are 0, which is their value to double precision; B and R
stay of order one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .constants import CONSTANTS, energy_ev_to_si, length_nm_to_si
from .errors import DomainError

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


def _check_tunneling(energy: float, height: float) -> None:
    """The tunneling regime: 0 < E and V0 - E >= NEAR_THRESHOLD_GAP_EV."""
    if not energy > 0:
        raise DomainError("incident energy must be positive")
    if not energy < height:
        raise DomainError("tunneling requires E below the barrier height V0")
    if height - energy < energy_ev_to_si(NEAR_THRESHOLD_GAP_EV):
        raise DomainError(
            "energy closer than "
            f"{NEAR_THRESHOLD_GAP_EV} eV to the barrier top is ill-conditioned"
        )


@dataclass(frozen=True)
class BarrierProblem:
    """One tunneling problem: energy, barrier, and momentum-window cutoff.

    All fields are SI (joules, metres, 1/metres). Only the tunneling regime
    0 < E < V0 is representable; construction rejects anything else, and a
    thickness so large that the phase k d, for any wavenumber up to
    sqrt(2 m V0) / hbar, or the window's phase Kprime d is not a finite
    double.
    """

    energy: float
    height: float
    thickness: float
    cutoff: float = DEFAULT_CUTOFF

    def __post_init__(self):
        _check_tunneling(self.energy, self.height)
        if not self.thickness > 0:
            raise DomainError("barrier thickness must be positive")
        if not self.cutoff > 0:
            raise DomainError("momentum cutoff must be positive")
        top = math.sqrt(2.0 * _M * self.height) / _HBAR  # k, kappa < top below V0
        for name, value in (
            ("barrier height", self.height),
            ("barrier thickness", self.thickness),
            ("momentum cutoff", self.cutoff),
            ("barrier phase k d", top * self.thickness),
            ("window phase Kprime d", self.cutoff * self.thickness),
        ):
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite")

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
        xarr = np.asarray(x, dtype=float)
        d = self.problem.thickness
        if np.any(xarr < 0.0) or np.any(xarr > d):
            raise DomainError("barrier wavefunction is only defined on 0 <= x <= d")
        kappa, a_d = self.wavenumbers.kappa, self.edge_modes[0]
        out = a_d * np.exp(kappa * (xarr - d)) + self.B * np.exp(-kappa * xarr)
        return complex(out) if xarr.ndim == 0 else out


def _wavenumbers(energy: float, height: float) -> Wavenumbers:
    k = math.sqrt(2.0 * _M * energy) / _HBAR
    kappa = math.sqrt(2.0 * _M * (height - energy)) / _HBAR
    return Wavenumbers(k=k, kappa=kappa)


def wavenumbers(problem: BarrierProblem) -> Wavenumbers:
    """k = sqrt(2mE)/hbar and kappa = sqrt(2m(V0-E))/hbar for the problem."""
    return _wavenumbers(problem.energy, problem.height)


def _transmission(wn: Wavenumbers, d: float) -> complex:
    """t = S e^{kappa d} for wavenumbers ``wn`` through a barrier of thickness ``d``."""
    ratio = wn.k / wn.kappa
    x = -2.0 * wn.kappa * d
    den = (1.0 - ratio**2) * -math.expm1(x) - 2j * ratio * (1.0 + math.exp(x))
    return -4j * ratio * cmath.exp(-1j * wn.k * d) / den


def scaled_transmission(problem: BarrierProblem, energy: float) -> complex:
    """t = S e^{kappa d} at incident ``energy`` over the problem's barrier.

    t is bounded at any thickness and has the phase of S. Raises DomainError
    for an energy BarrierProblem would refuse: not positive, or closer than
    NEAR_THRESHOLD_GAP_EV to the barrier top.
    """
    _check_tunneling(energy, problem.height)
    return _transmission(_wavenumbers(energy, problem.height), problem.thickness)


def stationary_solution(problem: BarrierProblem) -> StationarySolution:
    """Solve the matching conditions; see the module docstring for the route."""
    wn = wavenumbers(problem)
    k, kappa, d = wn.k, wn.kappa, problem.thickness
    ratio = k / kappa
    decay = math.exp(-kappa * d)

    t = _transmission(wn, d)
    # Value and slope continuity at x = d, solved for the in-barrier modes.
    half = 0.5 * t * cmath.exp(1j * k * d)
    B = half * (1.0 - 1j * ratio)
    a_d = half * (1.0 + 1j * ratio) * decay
    A = a_d * decay
    # Value continuity at x = 0.
    R = A + B - 1.0
    return StationarySolution(
        problem, wn, t=t, S=t * decay, A=A, B=B, R=R, edge_modes=(a_d, B * decay)
    )


def incident_flux(problem: BarrierProblem) -> float:
    """Probability flux of the unit incident wave: hbar k / m = sqrt(2E/m)."""
    return _HBAR * wavenumbers(problem).k / _M


def continuity_residual(sol: StationarySolution) -> tuple[float, float, float, float]:
    """Mismatch of the four matching conditions, slope residuals scaled by 1/k.

    Returns (|value mismatch at 0|, |slope mismatch at 0|/k,
    |value mismatch at d|, |slope mismatch at d|/k). All four are at rounding
    level for a solution built by stationary_solution(); a corrupted
    coefficient shows up orders of magnitude above that.
    """
    k = sol.wavenumbers.k
    kappa = sol.wavenumbers.kappa
    d = sol.problem.thickness

    psi1_0 = 1.0 + sol.R
    dpsi1_0 = 1j * k * (1.0 - sol.R)
    psi2_0 = sol.A + sol.B
    dpsi2_0 = kappa * (sol.A - sol.B)

    a_d, b_d = sol.edge_modes
    psi2_d = a_d + b_d
    dpsi2_d = kappa * (a_d - b_d)
    psi3_d = sol.S * cmath.exp(1j * k * d)
    dpsi3_d = 1j * k * psi3_d

    return (
        abs(psi1_0 - psi2_0),
        abs(dpsi1_0 - dpsi2_0) / k,
        abs(psi2_d - psi3_d),
        abs(dpsi2_d - dpsi3_d) / k,
    )
