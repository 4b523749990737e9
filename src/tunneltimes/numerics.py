"""The elementwise function sets of the closed forms, and the scaled
exponential integral e^z E1(z) behind the spectrum moments.

A closed form is written once, as a kernel that takes the elementwise
functions it calls: POINT (math and cmath) evaluates it at one point, GRID
(numpy) over arrays of points. Their ``finite`` takes a list of values, one
per quantity, and gives the finiteness of each: a bool at a point, a row of
a mask over arrays. scaled_e1() is the point form of the exponential
integral; scaled_e1_grid() runs the same continued fraction over an array,
each element to its own convergence.

Importing this module loads no numpy: GRID is built on its first access, by
the module's __getattr__, and scaled_e1_grid() imports numpy when it runs.
"""

from __future__ import annotations

import cmath
import math
from types import SimpleNamespace

from .errors import DomainError, NoConvergence

TYPE_CHECKING = False  # true for a type checker only
if TYPE_CHECKING:
    import numpy as np

#: The elementwise functions of a kernel evaluated at one point.
POINT = SimpleNamespace(
    exp=math.exp,
    expm1=math.expm1,
    log=math.log,
    sqrt=math.sqrt,
    sin=math.sin,
    atan2=math.atan2,
    cexp=cmath.exp,
    where=lambda cond, x, y: x if cond else y,
    finite=lambda values: list(map(math.isfinite, values)),
)


def __getattr__(name: str):
    """GRID, the same functions over numpy arrays for kernels evaluated on a
    grid, built on first access and then kept as a module global."""
    if name != "GRID":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import numpy as np

    global GRID
    GRID = SimpleNamespace(
        exp=np.exp,
        expm1=np.expm1,
        log=np.log,
        sqrt=np.sqrt,
        sin=np.sin,
        atan2=np.arctan2,
        cexp=np.exp,
        where=np.where,
        finite=np.isfinite,
    )
    return GRID


_EULER_GAMMA = 0.5772156649015329

#: Series terms or continued-fraction levels scaled_e1() takes before giving up.
_MAX_TERMS = 4000

#: Stopping tolerance of both expansions: the machine epsilon of a double.
_EPS = 2.0**-52

#: Stand-in for a vanishing denominator in the modified Lentz recurrence.
_TINY = 1e-300

#: Largest |z| the series takes: its terms reach about e^{|z|}, which is not
#: a double past |z| of about 709.
_SERIES_MAX_ABS = 700.0

#: Relative margin by which scaled_e1_grid() widens the series domain: numpy's
#: complex abs may differ from the C library's in the last bit.
_E1_DOMAIN_MARGIN = 1e-12


def _series_domain(z, margin=0.0):
    """Whether scaled_e1() sums the series at z, at a point or elementwise:
    |z| + Re z <= 2 (small |z|, or close to the negative real axis, where the
    series terms hardly cancel) and |z| <= _SERIES_MAX_ABS, each bound widened
    by the relative ``margin``."""
    size = abs(z)
    return (size + z.real <= 2.0 + margin * size) & (size <= _SERIES_MAX_ABS * (1.0 + margin))


#: Least |Re z| at which the continued fraction's ``b += 2`` can round back to
#: b: the spacing of doubles there is 4.
_ASYMPTOTIC_MIN_ABS_RE = 2.0**54


def _asymptotic_domain(z):
    """Whether scaled_e1() takes the two-term asymptotic series (1/z)(1 - 1/z)
    at z, at a point or elementwise: |Re z| >= _ASYMPTOTIC_MIN_ABS_RE, where
    the continued fraction stalls and the next term, 2/z^2 relative, is below
    2^-107."""
    return abs(z.real) >= _ASYMPTOTIC_MIN_ABS_RE


def scaled_e1(z: complex) -> complex:
    """exp(z) * E1(z), the principal branch, for z off the cut (-inf, 0].

    Both expansions follow Abramowitz & Stegun section 5.1. In
    _series_domain() it sums the series 5.1.11; in _asymptotic_domain() it
    takes the first two terms of the asymptotic series 5.1.51; elsewhere it
    evaluates the continued fraction 5.1.22, in its even contraction
    1/(z+1 - 1/(z+3 - 4/(z+5 - ...))), by the modified Lentz method. Past |z|
    of about 700 the fraction converges near the cut too, where e^z, the jump
    across it, is below the double epsilon. The scaled form stays bounded
    (about 1/z for large |z|) where E1 itself overflows or underflows.

    Raises DomainError on the cut and NoConvergence when _MAX_TERMS terms do
    not settle the value.
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0:
        raise DomainError(f"E1 is not defined on its branch cut, got z = {z}")
    if _series_domain(z):
        total = 0j
        term = 1.0 + 0j
        for n in range(1, _MAX_TERMS):
            term *= -z / n
            total += term / n
            if abs(term) <= _EPS * n * abs(total):
                return cmath.exp(z) * (-_EULER_GAMMA - cmath.log(z) - total)
    elif _asymptotic_domain(z):
        inverse = 1.0 / z
        return inverse * (1.0 - inverse)
    else:
        b = z + 1.0
        c = 1.0 / _TINY
        d = 1.0 / b
        value = d
        for n in range(1, _MAX_TERMS):
            an = -float(n * n)
            b += 2.0
            d = an * d + b
            d = 1.0 / (d if d != 0 else _TINY)
            c = b + an / c
            c = c if c != 0 else _TINY
            step = c * d
            value *= step
            if abs(step - 1.0) <= _EPS:
                return value
    raise NoConvergence(
        f"exponential integral at z = {z} unsettled after {_MAX_TERMS} terms"
    )


def scaled_e1_grid(z: np.ndarray) -> np.ndarray:
    """e^z E1(z) over a 1-D complex array, each element by scaled_e1()'s route
    outside its series domain.

    Each element in _asymptotic_domain() takes scaled_e1()'s asymptotic
    series. Each other element outside the series domain, widened by
    _E1_DOMAIN_MARGIN, runs the modified Lentz recurrence until its own step is
    within _EPS of 1, at most _MAX_TERMS levels, as scaled_e1() does. The
    elements that do not settle, series-domain elements among them, hold NaN,
    which every value computed from them carries.
    """
    import numpy as np

    out = np.full(z.shape, complex(math.nan, math.nan))
    asymptotic = _asymptotic_domain(z)
    inverse = 1.0 / z[asymptotic]
    out[asymptotic] = inverse * (1.0 - inverse)
    active = np.flatnonzero(~(asymptotic | _series_domain(z, _E1_DOMAIN_MARGIN)))
    if not active.size:
        return out
    b = z[active] + 1.0
    c = np.full(active.shape, 1.0 / _TINY, dtype=complex)
    d = 1.0 / b
    value = d
    for n in range(1, _MAX_TERMS):
        an = -float(n * n)
        b = b + 2.0
        d = an * d + b
        d = 1.0 / np.where(d != 0, d, _TINY)
        c = b + an / c
        c = np.where(c != 0, c, _TINY)
        step = c * d
        value = value * step
        done = np.abs(step - 1.0) <= _EPS
        if done.any():
            out[active[done]] = value[done]
            keep = ~done
            if not keep.any():
                break
            active, b, c, d, value = active[keep], b[keep], c[keep], d[keep], value[keep]
    return out
