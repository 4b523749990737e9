"""In-barrier momentum spectrum and the kinematics derived from it.

The barrier-region wavefunction, restricted to [0, d] and Fourier transformed,

    amplitude(K) = (1/sqrt(2 pi)) * integral_0^d exp(-iKx) psi_barrier(x) dx,

has an elementary antiderivative, so the amplitude is evaluated in closed form;
quadrature of the defining integral survives only as a cross-check in the test
suite. |amplitude|^2, normalized over the window [-cutoff, cutoff], acts as a
probability distribution over the wavenumber K. Its root-mean-square defines a
tunneling velocity v_rms = hbar K_rms / m, a transit time t_eff = d / v_rms,
and a kinetic energy eps_eff = m v_rms^2 / 2.

The normalization and the second moment come from one quadrature: each node
samples |amplitude|^2 once, and the two moments are integrated as two rows of
one integrand, each converging on its own. kinematics() is then arithmetic
on the stored moments.

The window cutoff matters: the distribution has heavy tails, so K_rms (and
everything downstream of it) grows slowly but without bound as the window
widens. The cutoff is therefore an explicit field of BarrierProblem rather
than a buried constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .barrier import BarrierProblem, StationarySolution, stationary_solution
from .constants import CONSTANTS, SPEED_OF_LIGHT
from .errors import DomainError
from .numerics import DEFAULT_QUADRATURE, QuadratureSpec, integrate

_M = CONSTANTS.electron_mass
_HBAR = CONSTANTS.hbar

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def momentum_amplitude(sol: StationarySolution, wavenumber):
    """Closed-form momentum amplitude at wavenumber K (scalar or array).

    Evaluates the exact antiderivative of exp(-iKx) (A e^{kappa x} +
    B e^{-kappa x}) over [0, d]:

        (1/sqrt(2 pi)) * [ A (e^{(kappa - iK) d} - 1) / (kappa - iK)
                         + B (1 - e^{-(kappa + iK) d}) / (kappa + iK) ]

    The denominators cannot vanish since kappa > 0.
    """
    karr = np.asarray(wavenumber, dtype=float)
    kappa = sol.wavenumbers.kappa
    d = sol.problem.thickness
    grow = kappa - 1j * karr
    decay = kappa + 1j * karr
    out = (
        sol.A * (np.exp(grow * d) - 1.0) / grow
        + sol.B * (1.0 - np.exp(-decay * d)) / decay
    ) / _SQRT_TWO_PI
    return complex(out) if karr.ndim == 0 else out


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
        k_rms = math.sqrt(self.second_moment / self.normalization)
        v_rms = _HBAR * k_rms / _M
        return EffectiveKinematics(
            k_rms=k_rms,
            v_rms=v_rms,
            t_eff=self.problem.thickness / v_rms,
            eps_eff=0.5 * _M * v_rms**2,
        )


def momentum_spectrum(
    problem: BarrierProblem,
    quadrature: QuadratureSpec = DEFAULT_QUADRATURE,
    solution: StationarySolution | None = None,
) -> MomentumSpectrum:
    """Build the spectrum for a problem: both moments over its window."""
    sol = stationary_solution(problem) if solution is None else solution

    def moments(wavenumber):
        density = np.abs(momentum_amplitude(sol, wavenumber)) ** 2
        return np.stack((density, wavenumber**2 * density))

    cut = problem.cutoff
    norm, second = integrate(moments, -cut, cut, quadrature)
    return MomentumSpectrum(solution=sol, normalization=norm, second_moment=second)
