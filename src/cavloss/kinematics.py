"""Classical in-fall time scales of the colliding pair.

Starting at rest at the Condon radius R_C, energy conservation on the
attractive -C3/R^3 curve gives the total in-fall time to R = 0

    t0(delta) = g0 * sqrt(mu/(2*C3)) * (C3/(hbar*|delta|))^(5/6)

and the fraction of it spent inside the resonant region R_e < R < R_C

    f = (1/g0) * integral_r^1 du / sqrt(u^-3 - 1),   r = R_e/R_C,

with g0 = B(5/6, 1/2)/3 = Gamma(5/6) Gamma(1/2) / (3 Gamma(4/3)) = 0.7468342
the r -> 0 value of the integral, which normalizes f to one.

The integrand has an integrable singularity at u = 1.  For r >= 1/2,
u = 1 - s^2 removes it exactly,

    du / sqrt(u^-3 - 1) = 2*(1 - s^2)^(3/2) / sqrt(3 - 3*s^2 + s^4) ds,

analytic on 0 <= s <= sqrt(1 - r).  For r < 1/2 that range would reach
the branch point at s = 1, so the integral is g0 minus the head
integral_0^r, which u = t^2 turns into 2*t^4 / sqrt(1 - t^6) dt on
0 <= t <= sqrt(r).  Each form takes one fixed 14-node Gauss-Legendre rule
(Golub & Welsch, Math. Comp. 23, 1969), exact to rounding (~3e-16
absolute) for every r in [0, 1].  The rule evaluates its integrand on
blocks of nodes times a whole grid of r, as many nodes per numpy call as
fit a fixed element budget (all 14 for a short grid, one for a long
one), and adds the weighted values in node order, so every element gets
the same bits whatever the grid size.  Every time scale here, and the
time bundle of :func:`collision_times`, is elementwise over detunings
(see :mod:`cavloss.grid`).
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

#: 14-node Gauss-Legendre nodes and weights on [-1, 1], numpy's leggauss(14)
#: to the bit, then mapped to [0, 1]; 13 nodes leave 2e-15
_NODES = np.array([
    -0.9862838086968124, -0.9284348836635735, -0.827201315069765,
    -0.6872929048116855, -0.5152486363581541, -0.31911236892788974,
    -0.10805494870734367, 0.10805494870734367, 0.31911236892788974,
    0.5152486363581541, 0.6872929048116855, 0.827201315069765,
    0.9284348836635735, 0.9862838086968124])
_WEIGHTS = np.array([
    0.03511946033175175, 0.08015808715975999, 0.12151857068790331,
    0.15720316715819363, 0.18553839747793788, 0.20519846372129572,
    0.21526385346315793, 0.21526385346315793, 0.20519846372129572,
    0.18553839747793788, 0.15720316715819363, 0.12151857068790331,
    0.08015808715975999, 0.03511946033175175])
_NODES, _WEIGHTS = 0.5 * (_NODES + 1.0), 0.5 * _WEIGHTS

#: integrand values per numpy call: a grid of up to 292 points takes all
#: 14 nodes in one block, one of more than 2 048 points one node per block
_BLOCK_ELEMENTS = 4096


class CollisionTimes(NamedTuple):
    """Time scales of a collision, as floats or as one array each.

    ``t_total = t_resonant + t_escape_region`` holds exactly whenever
    ``t_prime`` is zero (the shipped presets); ``geometry`` may be None
    for synthetic bundles used in property checks.
    """

    t_total: float              # s, R_C -> 0
    frac_resonant: float        # dimensionless fraction in [0, 1]
    t_resonant: float           # s, R_e(R') -> R_C
    t_escape_region: float      # s, 0 -> R_e
    t_prime: float = 0.0        # s, R_e -> R' (0 in all presets)
    geometry: Optional[ResonanceGeometry] = None


def _regular_integrand(s: np.ndarray) -> np.ndarray:
    # integrand after u = 1 - s^2; analytic on [0, 1)
    s2 = s * s
    return 2.0 * (1.0 - s2) ** 1.5 / np.sqrt(3.0 - 3.0 * s2 + s2 * s2)


def _head_integrand(t: np.ndarray) -> np.ndarray:
    # integrand after u = t^2; analytic on [0, 1)
    t2 = t * t
    return 2.0 * t2 * t2 / np.sqrt(1.0 - t2 * t2 * t2)


def _gauss_legendre(integrand, upper: np.ndarray) -> np.ndarray:
    # The weighted values are added one node at a time in node order, as
    # with one node per block: a matmul or an axis sum would reorder the
    # additions and move the last bit, and a grid row would then differ
    # from the same detuning computed alone.
    step = max(1, _BLOCK_ELEMENTS // max(1, len(upper)))
    total = 0.0
    for start in range(0, len(_NODES), step):
        nodes = slice(start, start + step)
        for value in (_WEIGHTS[nodes, None]
                      * integrand(_NODES[nodes, None] * upper)):
            total = total + value
    return upper * total


def _infall_integral(r_ratio):
    """integral_r^1 du/sqrt(u^-3 - 1), elementwise."""
    grid = as_grid(r_ratio)
    r = grid.ravel()
    # the tail form is finite on all of [0, 1]; r < 1/2 takes the head form
    value = _gauss_legendre(_regular_integrand, np.sqrt(1.0 - r))
    head = r < 0.5
    if np.count_nonzero(head):
        # _G0, not g0_constant(), so that validate catches a replaced accessor
        value[head] = _G0 - _gauss_legendre(_head_integrand, np.sqrt(r[head]))
    return like(value.reshape(grid.shape), r_ratio)


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
