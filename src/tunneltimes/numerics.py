"""Shared numerical kernels: adaptive quadrature and phase differentiation.

All routines are pure functions of their arguments. Integrands are expected to
accept a 1-D numpy array of n points and return n values (numpy-style
broadcasting), or an (m, n) array holding m integrands on the same points,
which are then integrated together from one set of samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DomainError, NoConvergence, ValidationError

COMPOSITE_SIMPSON = "composite-simpson"
GAUSS_LEGENDRE = "gauss-legendre"
_METHODS = (COMPOSITE_SIMPSON, GAUSS_LEGENDRE)

#: Doublings attempted before integrate() gives up.
_MAX_REFINEMENTS = 8

#: Successive-refinement differences at this fraction of the integrand scale
#: are double-precision noise; refining further cannot help.
_NOISE_FLOOR = 1e-14

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class QuadratureSpec:
    """Quadrature scheme selector.

    ``panels_or_nodes`` counts panels for the composite Simpson rule (nodes =
    panels + 1, so the default 4000 panels place 4001 nodes) and nodes for the
    Gauss-Legendre rule. It is the *starting* resolution; integrate() doubles
    it until the successive-refinement comparison meets ``rel_tol``.
    """

    method: str = COMPOSITE_SIMPSON
    panels_or_nodes: int = 4000
    rel_tol: float = 1e-9

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValidationError(
                f"quadrature method must be one of {_METHODS}, got {self.method!r}"
            )
        if self.panels_or_nodes < 8:
            raise ValidationError("quadrature panels_or_nodes must be at least 8")
        if self.method == COMPOSITE_SIMPSON and self.panels_or_nodes % 2:
            raise ValidationError("composite-simpson needs an even panel count")
        if not 0.0 < self.rel_tol <= 1e-3:
            raise ValidationError("quadrature rel_tol must lie in (0, 1e-3]")


DEFAULT_QUADRATURE = QuadratureSpec()


def _sample(f: Callable, xs: np.ndarray) -> np.ndarray:
    fx = np.asarray(f(xs), dtype=float)
    if fx.ndim not in (1, 2) or fx.shape[-1:] != xs.shape:
        raise DomainError(
            "integrand must map an array of points to like-shaped values "
            "or to rows of like-shaped values"
        )
    if not np.all(np.isfinite(fx)):
        raise DomainError("function returned non-finite values on the interval")
    return fx


def _sample_rows(f: Callable, xs: np.ndarray, rows: int) -> np.ndarray:
    fx = np.atleast_2d(_sample(f, xs))
    if fx.shape[0] != rows:
        raise DomainError("integrand changed its number of rows between passes")
    return fx


@lru_cache(maxsize=32)
def _gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def _rule(a: float, b: float, n: int, method: str) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of one quadrature pass."""
    if method == COMPOSITE_SIMPSON:
        xs = np.linspace(a, b, n + 1)
        w = np.ones(n + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        w *= (b - a) / (3.0 * n)
    else:
        x, wref = _gauss_rule(n)
        xs = 0.5 * (b - a) * x + 0.5 * (a + b)
        w = 0.5 * (b - a) * wref
    return xs, w


def integrate(
    f: Callable,
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float | tuple[float, ...]:
    """Definite integral of ``f`` over [a, b] to relative tolerance spec.rel_tol.

    ``f`` maps an array of n points to n values, or to an (m, n) array holding
    m integrands on the same points; the call then returns a tuple of m
    floats. Each row converges on its own: its value is the estimate of the
    first refinement at which it met the tolerance, and refinement continues
    until every row has, so each row comes out bit-identical to integrating
    it alone.

    The error estimate is the plain difference between successive refinements
    (each pass doubles the resolution), so the quoted tolerance is
    conservative for smooth integrands. Convergence is declared when that
    difference drops below ``rel_tol`` relative to the current value, or below
    the double-precision noise floor of the integrand scale, whichever is
    hit first. Composite Simpson grids are nested, so each refinement samples
    only the new midpoints; Gauss-Legendre resamples every node.

    Raises NoConvergence if the refinement cap is reached, and DomainError for
    an empty interval or a non-finite integrand.
    """
    if not a < b:
        raise DomainError(f"integration interval requires a < b, got [{a}, {b}]")
    n = spec.panels_or_nodes
    xs, w = _rule(a, b, n, spec.method)
    first = _sample(f, xs)
    fx = np.atleast_2d(first)
    rows = fx.shape[0]
    prev = [float(np.dot(w, row)) for row in fx]
    done: list[float | None] = [None] * rows
    for _ in range(_MAX_REFINEMENTS):
        n *= 2
        xs, w = _rule(a, b, n, spec.method)
        if spec.method == COMPOSITE_SIMPSON:
            # linspace(a, b, 2n + 1)[::2] is the previous grid bit for bit
            coarse, fx = fx, np.empty((rows, n + 1))
            fx[:, ::2] = coarse
            fx[:, 1::2] = _sample_rows(f, xs[1::2].copy(), rows)
        else:
            fx = _sample_rows(f, xs, rows)
        err = 0.0
        for i, row in enumerate(fx):
            if done[i] is not None:
                continue
            cur = float(np.dot(w, row))
            step = abs(cur - prev[i])
            scale = (b - a) * float(np.max(np.abs(row)))
            if step <= spec.rel_tol * abs(cur) or step <= _NOISE_FLOOR * scale:
                done[i] = cur
            else:
                prev[i] = cur
                err = max(err, step)
        if None not in done:
            return done[0] if first.ndim == 1 else tuple(done)
    raise NoConvergence(
        f"quadrature stalled at {n} {spec.method} panels/nodes "
        f"(last refinement changed the value by {err:.3e})"
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
