"""Shared numerical kernels: a scaled exponential integral, phase differentiation.

All routines are pure functions of their arguments.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable

from .errors import DomainError, NoConvergence

TWO_PI = 2.0 * math.pi

_EULER_GAMMA = 0.5772156649015329

#: Series terms or continued-fraction levels scaled_e1() takes before giving up.
_MAX_TERMS = 4000

#: Stopping tolerance of both expansions: the machine epsilon of a double.
_EPS = 2.0**-52

#: Stand-in for a vanishing denominator in the modified Lentz recurrence.
_TINY = 1e-300


def scaled_e1(z: complex) -> complex:
    """exp(z) * E1(z), the principal branch, for z off the cut (-inf, 0].

    Both expansions follow Abramowitz & Stegun section 5.1. Where
    |z| + Re z <= 2 (small |z|, or close to the negative real axis, where
    the series terms hardly cancel) it sums the series 5.1.11; elsewhere it
    evaluates the continued fraction 5.1.22, in its even contraction
    1/(z+1 - 1/(z+3 - 4/(z+5 - ...))), by the modified Lentz method. The
    scaled form stays bounded (about 1/z for large |z|) where E1 itself
    overflows or underflows.

    Raises DomainError on the cut and NoConvergence when _MAX_TERMS terms do
    not settle the value.
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0:
        raise DomainError(f"E1 is not defined on its branch cut, got z = {z}")
    if abs(z) + z.real <= 2.0:
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


def differentiate_phase(
    g: Callable[[float], complex],
    e0: float,
    h: float,
    domain: tuple[float, float] | None = None,
) -> float:
    """Central difference of the unwrapped argument of ``g`` at ``e0``.

    The raw difference arg g(e0+h) - arg g(e0-h) is shifted by the multiple of
    2*pi that lands it in (-pi, pi] before dividing by 2h, so branch-cut
    crossings of the principal argument do not corrupt the derivative. The
    result is invariant under scaling ``g`` by any nonzero complex constant.

    ``domain``, when given, bounds where the stencil may sample; a stencil
    point outside it raises DomainError.
    """
    if not h > 0:
        raise DomainError("phase-derivative step h must be positive")
    if domain is not None:
        lo, hi = domain
        if not (lo < e0 - h and e0 + h < hi):
            raise DomainError(
                f"stencil [{e0 - h}, {e0 + h}] leaves the valid domain ({lo}, {hi})"
            )
    gp = complex(g(e0 + h))
    gm = complex(g(e0 - h))
    if gp == 0 or gm == 0:
        raise DomainError("g vanishes at a stencil point; its phase is undefined")
    if not (math.isfinite(abs(gp)) and math.isfinite(abs(gm))):
        raise DomainError("g returned non-finite values at the stencil points")
    delta = math.atan2(gp.imag, gp.real) - math.atan2(gm.imag, gm.real)
    delta -= TWO_PI * math.ceil((delta - math.pi) / TWO_PI)  # wrap into (-pi, pi]
    return delta / (2.0 * h)
