"""Classical in-fall time scales of the colliding pair.

Starting at rest at the Condon radius R_C, energy conservation on the
attractive -C3/R^3 curve gives the total in-fall time to R = 0

    t0(delta) = g0 * sqrt(mu/(2*C3)) * (C3/(hbar*|delta|))^(5/6)

and the fraction of it spent inside the resonant region R_e < R < R_C

    f = (1/g0) * integral_r^1 du / sqrt(u^-3 - 1),   r = R_e/R_C,

with g0 = B(5/6, 1/2)/3 = Gamma(5/6) Gamma(1/2) / (3 Gamma(4/3)) = 0.7468342
the r -> 0 value of the integral, which normalizes f to one.

The integrand has an integrable singularity at u = 1, and the integral
is evaluated in two forms, each a fixed polynomial (Trefethen,
*Approximation Theory and Approximation Practice*, SIAM 2013):

    r >= 1/2:  sqrt(y) * P(y),              y = 1 - r <= 1/2,
    r <  1/2:  g0 - r*r*sqrt(r) * Q(r^3),   r^3 < 1/8,

where u = 1 - y*t^2 (tail) and u = r*t^2 (head) turn P and Q into
integrals over 0 <= t <= 1 of functions analytic in y and r^3.  P is
singular at y = 1 (r = 0) and Q at r = 1, so each form serves the half
of [0, 1] away from its singularity.  P (degree 15) and Q (degree 9) are
near-minimax Chebyshev fits within 2e-17 of their functions, written as
literals by ``scripts/infall_coefficients.py``.  Horner's rule evaluates
them with ``+``, ``*`` and ``sqrt`` alone, each correctly rounded by
every numpy kernel, so the result is within ~4e-16 absolute of the
integral for every r in [0, 1] and its bits do not depend on numpy's CPU
dispatch.  Every time scale here, and the time bundle of
:func:`collision_times`, is elementwise over detunings (see
:mod:`cavloss.grid`).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .constants import HBAR, PhysicalParams
from .grid import as_grid, like, red_detuning
from .potential import ResonanceGeometry, escape_ratio, resonance_geometry

#: closed-form normalization B(5/6, 1/2)/3 of the in-fall integral
_G0 = math.gamma(5.0 / 6.0) * math.gamma(0.5) / (3.0 * math.gamma(4.0 / 3.0))

# the two fits of the module docstring, as scripts/infall_coefficients.py
# prints them
#: P(y) on 0 <= y <= 0.5, degree 15, highest power first
_TAIL = (0.001959504401982224, -0.0054750284384157116, 0.007615014469875167,
         -0.006270436653651016, 0.003675236226316145, -0.0012573093833364226,
         0.0007425183955978003, 0.0006161029957716316, 0.0014382724881588282,
         0.0026715683213718727, 0.004373964045112365, 0.005345831143051738,
         1.3421666711987682e-10, -0.03849001794798751, -0.38490017945973864,
         1.1547005383792515)
#: Q(w) on 0 <= w <= 0.125, degree 9, highest power first
_HEAD = (0.011058697269755882, 0.006006304603631226, 0.009130835819994715,
         0.010984325392075915, 0.014063613314394026, 0.018857720876936605,
         0.027173913775378176, 0.04411764705163836, 0.0909090909091182,
         0.39999999999999997)


class CollisionTimes(NamedTuple):
    """Time scales of a collision, as floats or as one array each.

    With ``t_prime`` zero (the shipped presets), ``t_total = t_resonant +
    t_escape_region`` holds exactly where ``frac_resonant >= 1/2``, since
    ``t_total - t_resonant`` is then exact (Sterbenz's lemma); below 1/2
    that difference rounds, and the sum may miss by an ulp.  ``geometry``
    may be None for synthetic bundles used in property checks.
    """

    t_total: float              # s, R_C -> 0
    frac_resonant: float        # dimensionless fraction in [0, 1]
    t_resonant: float           # s, R_e(R') -> R_C
    t_escape_region: float      # s, 0 -> R_e
    t_prime: float = 0.0        # s, R_e -> R' (0 in all presets)
    geometry: Optional[ResonanceGeometry] = None


def _horner(coefficients: tuple, x):
    # in place: one pass per operation, and no temporary array after the first
    total = coefficients[0] * x
    for c in coefficients[1:-1]:
        total += c
        total *= x
    total += coefficients[-1]
    return total


def _infall_integral(r_ratio):
    """integral_r^1 du/sqrt(u^-3 - 1), elementwise."""
    r = as_grid(r_ratio)
    y = 1.0 - r
    value = np.sqrt(y) * _horner(_TAIL, y)
    head = r < 0.5
    if np.count_nonzero(head):
        r = r[head]
        r2 = r * r
        # _G0, not g0_constant(), so that validate catches a replaced accessor
        value[head] = _G0 - r2 * np.sqrt(r) * _horner(_HEAD, r2 * r)
    return like(value, r_ratio)


def g0_constant() -> float:
    """Normalization integral over the full range (r -> 0), 0.7468342."""
    return _G0


def fraction_f(delta, omega_tilde):
    """Fraction of the in-fall time spent in the resonant region, in [0, 1]."""
    return _infall_integral(escape_ratio(delta, omega_tilde)) / g0_constant()


def total_time(delta, params: PhysicalParams):
    """In-fall time t0 from R_C to R = 0 (s); scales as |delta|^(-5/6)."""
    grid = red_detuning(delta)
    # numpy, not math, so that float_range sees an overflow of mu/(2*C3)
    return like(g0_constant()
                * np.sqrt(np.float64(params.mu) / (2.0 * params.c3))
                * (params.c3 / (HBAR * np.abs(grid))) ** (5.0 / 6.0), delta)


def collision_times(delta, omega_tilde,
                    params: PhysicalParams) -> CollisionTimes:
    """Assemble the full time bundle (t_prime = 0), elementwise over detunings."""
    geometry = resonance_geometry(delta, omega_tilde, params)
    t0 = total_time(delta, params)
    # fraction_f, without computing the escape ratio a second time
    frac = _infall_integral(geometry.r_ratio) / g0_constant()
    t_c = t0 * frac
    return CollisionTimes(
        t_total=t0,
        frac_resonant=frac,
        t_resonant=t_c,
        t_escape_region=t0 - t_c,
        t_prime=0.0,
        geometry=geometry,
    )
