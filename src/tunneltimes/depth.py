"""Penetration depth and the energy-time uncertainty coefficient.

The in-barrier density relative to its value at the entry face,

    D(x) = |psi_barrier(x)|^2 / |psi_barrier(0)|^2,

starts at exactly 1 and decays roughly exponentially. It is the curve of
fig4, drawn by the kernel _relative_density() over each record's in-barrier
wave (sweep.emit_figure_data); the depth needs only its closed form below.
The penetration depth s is the first x where D falls to exp(-2); thin barriers
may never get there, in which case the depth is absent (None), not zero and
not an error. The time spent reaching that depth, tau_eff = s / v_rms,
combines with the effective kinetic energy into the dimensionless uncertainty
coefficient

    xi = 2 * eps_eff * tau_eff / hbar,

i.e. eps_eff * tau_eff = xi * hbar / 2.

The exp(-2) threshold is kept at full double precision; 0.135 is only its
display rounding. The depth has a closed form. With u = exp(2 kappa x),

    |psi_barrier(x)|^2 = |A|^2 u + |B|^2 / u + 2 Re(A B*),

and rho = A / B = exp(-2 kappa d) (1 + i r) / (1 - i r) with r = k / kappa.
Multiplying |psi_barrier(x)|^2 = exp(-2) |psi_barrier(0)|^2 by u / |B|^2
gives the quadratic

    exp(-4 kappa d) u^2 + (2 Re rho - exp(-2) |1 + rho|^2) u + 1 = 0.

As a function of u the density is convex with its minimum at u = exp(2 kappa d),
i.e. at x = d, so it falls monotonically on [0, d] and the first crossing is
the smaller root. Only exp(-2 kappa d) appears, so nothing overflows however
thick the barrier: for exp(-4 kappa d) below the smallest double the root
reduces to the linear one.
"""

from __future__ import annotations

import math

from .barrier import BarrierProblem, wavenumbers
from .errors import DomainError
from .numerics import POINT

#: Relative-density threshold defining the penetration depth.
DEPTH_LEVEL = math.exp(-2.0)


def _relative_density(psi, entry_psi):
    """D(x) = |psi|^2 / |entry_psi|^2 for psi = psi_barrier(x) and entry_psi =
    psi_barrier(0), elementwise with broadcasting. np.square squares a scalar
    as it does an array, so a point and a row of a curve get the same bits."""
    import numpy as np

    entry = np.square(np.abs(entry_psi))
    if not np.all(entry > 0.0):
        raise DomainError("entry density vanished; the solution is corrupt")
    return np.square(np.abs(psi)) / entry


def penetration_depth(problem: BarrierProblem) -> float | None:
    """First x in (0, d] where the relative density reaches exp(-2), or None."""
    wn = wavenumbers(problem)
    depth, crosses = _depth(wn.k, wn.kappa, problem.thickness)
    return depth if crosses else None


def _depth(k, kappa, d, f=POINT):
    """(x, whether x is a crossing in (0, d]) for the smaller root of the
    module docstring's quadratic in u, taken by the cancellation-free form
    2 / (sqrt(b^2 - 4a) - b); ``f`` holds the elementwise functions."""
    r2 = (k / kappa) ** 2
    decay = f.exp(-2.0 * kappa * d)
    a = decay * decay  # |rho|^2
    re_rho = decay * (1.0 - r2) / (1.0 + r2)
    b = 2.0 * re_rho - DEPTH_LEVEL * (1.0 + 2.0 * re_rho + a)  # |1 + rho|^2 expanded
    disc = b * b - 4.0 * a
    root = (b < 0.0) & (disc >= 0.0)  # a root with u > 0
    # where there is none, stand-ins keep sqrt and log on their domains
    x = f.log(2.0 / (f.sqrt(f.where(root, disc, 0.0)) - f.where(root, b, -1.0))) / (2.0 * kappa)
    return x, root & (x > 0.0) & (x <= d)
