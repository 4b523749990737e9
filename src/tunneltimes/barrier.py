"""Stationary scattering solution for a one-dimensional rectangular barrier.

A unit-amplitude plane wave with kinetic energy E below the barrier height V0
comes in from the left of a barrier occupying 0 <= x <= d. The eigenfunction
splits into three regions:

    left of the barrier   exp(ikx) + R exp(-ikx),      k     = sqrt(2 m E) / hbar
    inside the barrier    A exp(kappa x) + B exp(-kappa x),
                                                       kappa = sqrt(2 m (V0 - E)) / hbar
    right of the barrier  S exp(ikx)

Everything is closed form. S comes from the standard transmission-amplitude
expression; A and B follow from matching value and slope at x = d, and R from
value continuity at x = 0. The slope condition at x = 0 is not imposed
separately: it holds identically for this S, and continuity_residual()
certifies all four matching conditions numerically. transmission_amplitude()
evaluates the same S expression at another energy over the same barrier, for
the phase time's energy stencil, without building a problem or solving for
A, B and R; it accepts the energies BarrierProblem does.

Nothing here is scaled, and BarrierProblem accepts any thickness, so thick
barriers overflow. The closed-form phase and dwell times square sinh(kappa d),
which raises OverflowError once kappa*d exceeds about 355: `tunneltimes times
--E-eV 5 --d-nm 40` (kappa*d of about 458) exits 3, and a sweep that reaches
such a point aborts. A little below that, their products with (2 m V0 /
hbar^2)^2 already reach infinity and the times come out NaN, which the CSV
writers refuse. The bare exp(kappa d), sinh and cosh factors of S, A and B
overflow at kappa*d of about 709. ROADMAP item 3 plans the exp(-kappa d)-scaled
reformulation that removes these limits.
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
#: small that sinh/cosh ratios become ill-conditioned; refuse rather than
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
    0 < E < V0 is representable; construction rejects anything else.
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
        for name, value in (
            ("barrier height", self.height),
            ("barrier thickness", self.thickness),
            ("momentum cutoff", self.cutoff),
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
    """The four complex coefficients of the matched eigenfunction."""

    problem: BarrierProblem
    wavenumbers: Wavenumbers
    S: complex  # transmitted amplitude
    A: complex  # growing in-barrier mode
    B: complex  # decaying in-barrier mode
    R: complex  # reflected amplitude

    @property
    def transmission(self) -> float:
        """Transmission probability |S|^2."""
        return abs(self.S) ** 2

    @property
    def reflection(self) -> float:
        """Reflection probability |R|^2."""
        return abs(self.R) ** 2

    @property
    def edge_modes(self) -> tuple[complex, complex]:
        """(A e^{kappa d}, B e^{-kappa d}), the two in-barrier modes at x = d.

        Taken from S as S e^{ikd} (1 +/- ik/kappa) / 2, so they stay bounded
        at any thickness.
        """
        wn = self.wavenumbers
        half = 0.5 * self.S * cmath.exp(1j * wn.k * self.problem.thickness)
        ratio = wn.k / wn.kappa
        return half * (1.0 + 1j * ratio), half * (1.0 - 1j * ratio)

    def psi_barrier(self, x):
        """In-barrier wave A e^{kappa x} + B e^{-kappa x}; requires 0 <= x <= d."""
        xarr = np.asarray(x, dtype=float)
        if np.any(xarr < 0.0) or np.any(xarr > self.problem.thickness):
            raise DomainError("barrier wavefunction is only defined on 0 <= x <= d")
        kappa = self.wavenumbers.kappa
        out = self.A * np.exp(kappa * xarr) + self.B * np.exp(-kappa * xarr)
        return complex(out) if xarr.ndim == 0 else out


def _wavenumbers(energy: float, height: float) -> Wavenumbers:
    k = math.sqrt(2.0 * _M * energy) / _HBAR
    kappa = math.sqrt(2.0 * _M * (height - energy)) / _HBAR
    return Wavenumbers(k=k, kappa=kappa)


def wavenumbers(problem: BarrierProblem) -> Wavenumbers:
    """k = sqrt(2mE)/hbar and kappa = sqrt(2m(V0-E))/hbar for the problem."""
    return _wavenumbers(problem.energy, problem.height)


def _transmission(wn: Wavenumbers, d: float) -> complex:
    """S for wavenumbers ``wn`` through a barrier of thickness ``d``."""
    ratio = wn.k / wn.kappa
    kd = wn.kappa * d
    return (
        -2j
        * ratio
        * cmath.exp(-1j * wn.k * d)
        / ((1.0 - ratio**2) * math.sinh(kd) - 2j * ratio * math.cosh(kd))
    )


def transmission_amplitude(problem: BarrierProblem, energy: float) -> complex:
    """S at incident ``energy`` over the problem's barrier.

    Raises DomainError for an energy BarrierProblem would refuse: not
    positive, or closer than NEAR_THRESHOLD_GAP_EV to the barrier top.
    """
    _check_tunneling(energy, problem.height)
    return _transmission(_wavenumbers(energy, problem.height), problem.thickness)


def stationary_solution(problem: BarrierProblem) -> StationarySolution:
    """Solve the matching conditions; see the module docstring for the route."""
    wn = wavenumbers(problem)
    k, kappa, d = wn.k, wn.kappa, problem.thickness
    ratio = k / kappa
    kd = kappa * d

    S = _transmission(wn, d)
    # Value and slope continuity at x = d, solved for the in-barrier modes.
    half = 0.5 * S * cmath.exp(1j * k * d)
    A = half * (1.0 + 1j * ratio) * math.exp(-kd)
    B = half * (1.0 - 1j * ratio) * math.exp(kd)
    # Value continuity at x = 0.
    R = A + B - 1.0
    return StationarySolution(problem=problem, wavenumbers=wn, S=S, A=A, B=B, R=R)


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

    grow = cmath.exp(kappa * d)
    psi2_d = sol.A * grow + sol.B / grow
    dpsi2_d = kappa * (sol.A * grow - sol.B / grow)
    psi3_d = sol.S * cmath.exp(1j * k * d)
    dpsi3_d = 1j * k * psi3_d

    return (
        abs(psi1_0 - psi2_0),
        abs(dpsi1_0 - dpsi2_0) / k,
        abs(psi2_d - psi3_d),
        abs(dpsi2_d - dpsi3_d) / k,
    )
