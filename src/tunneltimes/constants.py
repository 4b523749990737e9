"""Physical constants and the unit conversions used at the API boundaries.

Everything downstream computes in SI; electron volts and nanometres only
appear at function and CLI boundaries, through the converters below. The
constant values are deliberately truncated rather than full-precision
CODATA: the golden reference data the acceptance suite reproduces digit
for digit were computed with exactly these truncations, and reproducing
them beats metrological accuracy here. They must not be redefined
anywhere else in the package.
"""

from __future__ import annotations

from .records import _Value


class PhysicalConstants(_Value):
    """Electron mass, reduced Planck constant, and the electron volt (SI)."""

    def __init__(
        self,
        electron_mass: float = 9.1095e-31,  # kg
        hbar: float = 1.055e-34,  # J*s
        ev_to_joule: float = 1.6022e-19,  # J per eV
    ):
        if not (electron_mass > 0 and hbar > 0 and ev_to_joule > 0):
            raise ValueError("physical constants must be strictly positive")
        self.__dict__.update(electron_mass=electron_mass, hbar=hbar, ev_to_joule=ev_to_joule)


CONSTANTS = PhysicalConstants()

#: Vacuum speed of light in m/s; used only as the superluminality guard.
SPEED_OF_LIGHT = 2.9979e8


def energy_ev_to_si(energy_ev: float) -> float:
    """Convert an energy from eV to joules."""
    return energy_ev * CONSTANTS.ev_to_joule


def energy_si_to_ev(energy_j: float) -> float:
    """Convert an energy from joules to eV."""
    return energy_j / CONSTANTS.ev_to_joule


def length_nm_to_si(length_nm: float) -> float:
    """Convert a length from nanometres to metres."""
    return length_nm * 1e-9


def length_si_to_nm(length_m: float) -> float:
    """Convert a length from metres to nanometres."""
    return length_m * 1e9
