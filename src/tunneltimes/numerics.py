"""The scaled exponential integral e^z E1(z) behind the spectrum moments.

A pure function of its argument.
"""

from __future__ import annotations

import cmath

from .errors import DomainError, NoConvergence

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


def scaled_e1(z: complex) -> complex:
    """exp(z) * E1(z), the principal branch, for z off the cut (-inf, 0].

    Both expansions follow Abramowitz & Stegun section 5.1. Where
    |z| + Re z <= 2 (small |z|, or close to the negative real axis, where
    the series terms hardly cancel) and |z| <= _SERIES_MAX_ABS it sums the
    series 5.1.11; elsewhere it evaluates the continued fraction 5.1.22, in
    its even contraction 1/(z+1 - 1/(z+3 - 4/(z+5 - ...))), by the modified
    Lentz method. Past |z| of about 700 the fraction converges near the cut
    too, where e^z, the jump across it, is below the double epsilon. The
    scaled form stays bounded (about 1/z for large |z|) where E1 itself
    overflows or underflows.

    Raises DomainError on the cut and NoConvergence when _MAX_TERMS terms do
    not settle the value.
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0:
        raise DomainError(f"E1 is not defined on its branch cut, got z = {z}")
    if abs(z) + z.real <= 2.0 and abs(z) <= _SERIES_MAX_ABS:
        total = 0j
        term = 1.0 + 0j
        for n in range(1, _MAX_TERMS):
            term *= -z / n
            total += term / n
            if abs(term) <= _EPS * n * abs(total):
                return cmath.exp(z) * (-_EULER_GAMMA - cmath.log(z) - total)
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

