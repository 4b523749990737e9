"""Physical constants and the unit conversions used at the API boundaries.

Everything downstream computes in SI; electron volts and nanometres only
appear at function and CLI boundaries, through the converters below. The
electron mass, the reduced Planck constant and the electron volt are
deliberately truncated rather than full-precision CODATA: the golden
reference data the acceptance suite reproduces digit for digit were computed
with exactly these truncations, and reproducing them beats metrological
accuracy here. They are plain module constants, defined here and nowhere
else in the package; this module imports nothing.
"""

#: Electron mass, kg.
ELECTRON_MASS = 9.1095e-31
#: Reduced Planck constant, J*s.
HBAR = 1.055e-34
#: Joules per electron volt.
EV_TO_JOULE = 1.6022e-19

#: Vacuum speed of light in m/s; used only as the superluminality guard.
SPEED_OF_LIGHT = 2.9979e8


def energy_ev_to_si(energy_ev: float) -> float:
    """Convert an energy from eV to joules."""
    return energy_ev * EV_TO_JOULE


def energy_si_to_ev(energy_j: float) -> float:
    """Convert an energy from joules to eV."""
    return energy_j / EV_TO_JOULE


def length_nm_to_si(length_nm: float) -> float:
    """Convert a length from nanometres to metres."""
    return length_nm * 1e-9


def length_si_to_nm(length_m: float) -> float:
    """Convert a length from metres to nanometres."""
    return length_m * 1e9
