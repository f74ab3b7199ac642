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
absolute) for every r in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from numpy.polynomial.legendre import leggauss

from .constants import HBAR, PhysicalParams
from .errors import DomainError
from .potential import ResonanceGeometry, resonance_geometry

#: closed-form normalization B(5/6, 1/2)/3 of the in-fall integral
_G0 = math.gamma(5.0 / 6.0) * math.gamma(0.5) / (3.0 * math.gamma(4.0 / 3.0))

#: 14-node Gauss-Legendre (node, weight) pairs on [0, 1]; 13 nodes leave 2e-15
_NODES, _WEIGHTS = leggauss(14)
_RULE = list(zip((0.5 * (_NODES + 1.0)).tolist(), (0.5 * _WEIGHTS).tolist()))


@dataclass(frozen=True)
class CollisionTimes:
    """Time scales of one collision at a fixed detuning.

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


def _regular_integrand(s: float) -> float:
    # integrand after u = 1 - s^2; analytic on [0, 1)
    s2 = s * s
    return 2.0 * (1.0 - s2) ** 1.5 / math.sqrt(3.0 - 3.0 * s2 + s2 * s2)


def _head_integrand(t: float) -> float:
    # integrand after u = t^2; analytic on [0, 1)
    t2 = t * t
    return 2.0 * t2 * t2 / math.sqrt(1.0 - t2 * t2 * t2)


def _gauss_legendre(integrand, upper: float) -> float:
    return upper * sum(w * integrand(upper * x) for x, w in _RULE)


def _infall_integral(r_ratio: float) -> float:
    """integral_r^1 du/sqrt(u^-3 - 1)."""
    if r_ratio >= 0.5:
        return _gauss_legendre(_regular_integrand, math.sqrt(1.0 - r_ratio))
    # _G0, not g0_constant(), so that validate catches a replaced accessor
    return _G0 - _gauss_legendre(_head_integrand, math.sqrt(r_ratio))


def g0_constant() -> float:
    """Normalization integral over the full range (r -> 0), 0.7468342."""
    return _G0


def _ratio_escape(delta: float, omega_tilde: float) -> float:
    if delta >= 0.0:
        raise DomainError(f"red detuning required, got delta={delta!r}")
    if omega_tilde < 0.0:
        raise DomainError(
            f"collective Rabi frequency must be >= 0, got {omega_tilde!r}")
    return (1.0 + omega_tilde / abs(delta)) ** (-1.0 / 3.0)


def fraction_f(delta: float, omega_tilde: float) -> float:
    """Fraction of the in-fall time spent in the resonant region, in [0, 1]."""
    return _infall_integral(_ratio_escape(delta, omega_tilde)) / g0_constant()


def total_time(delta: float, params: PhysicalParams) -> float:
    """In-fall time t0 from R_C to R = 0 (s); scales as |delta|^(-5/6)."""
    if delta >= 0.0:
        raise DomainError(f"red detuning required, got delta={delta!r}")
    return (g0_constant()
            * math.sqrt(params.mu / (2.0 * params.c3))
            * (params.c3 / (HBAR * abs(delta))) ** (5.0 / 6.0))


def collision_times(delta: float, omega_tilde: float,
                    params: PhysicalParams) -> CollisionTimes:
    """Assemble the full time bundle at one detuning (t_prime = 0)."""
    geometry = resonance_geometry(delta, omega_tilde, params)
    t0 = total_time(delta, params)
    frac = fraction_f(delta, omega_tilde)
    t_c = t0 * frac
    return CollisionTimes(
        t_total=t0,
        frac_resonant=frac,
        t_resonant=t_c,
        t_escape_region=t0 - t_c,
        t_prime=0.0,
        geometry=geometry,
    )


def phase_exceeds_single_cycle(phase: float, margin: float = 0.0) -> bool:
    """Audit flag: does omega_tilde * t_c exceed one Rabi cycle?

    The semiclassical treatment assumes the resonant passage completes
    at most a single cycle; exceeding 2*pi*(1 + margin) is reported as
    a flag, never a failure (the shipped preset itself reaches 2.3 pi
    at the smallest |delta|).
    """
    return phase > 2.0 * math.pi * (1.0 + margin)
