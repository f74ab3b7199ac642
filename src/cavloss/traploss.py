"""Trap-loss probabilities with and without the cavity mode.

A pair excited at the Condon radius is lost if it decays inside the
escape radius.  One passage through the escape region contributes

    l_1 = p(t_c) * exp(-t'*G) * (1 - exp(-2*t_e*G)),

the product of surviving the resonant region excited, surviving the
walk-off interval t', and decaying during the 2*t_e spent below the
escape radius (in and out).  The pair can vibrate through the well and
re-enter, giving a geometric series with ratio

    q = exp(-2*(t' + t_e)*G) * p(2*t_c)

whose sum has the closed form

    L_c = p(t_c) * sinh(G*t_e)
          / ((exp((t'+t_e)*G) - p(2*t_c)*exp(-(t'+t_e)*G)) / 2).

Substituting pure decay exp(-G*t) for the survival kernel p collapses
L_c to the no-cavity loss L_o = sinh(G*t_e)/sinh(G*(t_c+t_e)) of
independently colliding pairs.  Scanning the detuning sweeps the phase
omega_tilde*t_c through several half-cycles, which is what imprints
minima and maxima on L_c while L_o stays smooth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

from .cavity import CavityConfig, collective_rabi
from .constants import PhysicalParams
from .dynamics import p_omega_analytic, p_omega_approx
from .errors import ConfigError, DivergenceError, DomainError
from .kinematics import CollisionTimes, collision_times

#: detuning window (MHz) inside which the semiclassical model is trusted
DEFAULT_WINDOW_MHZ = (-1000.0, -350.0)

#: survival-kernel callable signature: (t, omega_tilde, gamma) -> probability
PModel = Callable[[float, float, float], float]

P_MODELS: dict[str, PModel] = {
    "analytic": p_omega_analytic,
    "approx": p_omega_approx,
}

SERIES_MAX_TERMS = 10_000
SERIES_REL_CUTOFF = 1.0e-15


@dataclass(frozen=True)
class LossPoint:
    """One record of the detuning scan."""

    delta: float             # rad/s
    omega_tilde: float       # rad/s
    n_pairs: float
    times: CollisionTimes
    phase: float             # omega_tilde * t_c, rad
    loss_cavity: float
    loss_free: float


def _resolve_p_model(p_model: Union[str, PModel]) -> PModel:
    if callable(p_model):
        return p_model
    try:
        return P_MODELS[p_model]
    except KeyError:
        raise ConfigError(
            f"p_model must be one of {sorted(P_MODELS)} or a callable, "
            f"got {p_model!r}") from None


def single_passage_loss(times: CollisionTimes, omega_tilde: float,
                        gamma: float, p_model: Union[str, PModel]) -> float:
    """Loss probability of the first passage through the escape region."""
    p = _resolve_p_model(p_model)
    return (p(times.t_resonant, omega_tilde, gamma)
            * math.exp(-times.t_prime * gamma)
            * -math.expm1(-2.0 * times.t_escape_region * gamma))


def _series_ratio(times: CollisionTimes, omega_tilde: float, gamma: float,
                  p: PModel) -> float:
    return (math.exp(-2.0 * (times.t_prime + times.t_escape_region) * gamma)
            * p(2.0 * times.t_resonant, omega_tilde, gamma))


def loss_series(times: CollisionTimes, omega_tilde: float, gamma: float,
                p_model: Union[str, PModel],
                max_terms: int = SERIES_MAX_TERMS) -> tuple[float, int]:
    """Multiple-passage loss by direct summation; returns (value, terms).

    The per-passage factors form a geometric series; summation stops
    once a term falls below SERIES_REL_CUTOFF of the partial sum or
    ``max_terms`` is reached.
    """
    p = _resolve_p_model(p_model)
    ratio = _series_ratio(times, omega_tilde, gamma, p)
    if ratio >= 1.0:
        raise DivergenceError(
            "multiple-passage sum diverges: lossless passage with full "
            f"revival (ratio={ratio!r})")
    term = single_passage_loss(times, omega_tilde, gamma, p)
    total = 0.0
    terms_used = 0
    for _ in range(max_terms):
        total += term
        terms_used += 1
        term *= ratio
        if term < SERIES_REL_CUTOFF * total:
            break
    return total, terms_used


def loss_closed_form(times: CollisionTimes, omega_tilde: float, gamma: float,
                     p_model: Union[str, PModel]) -> float:
    """Multiple-passage loss in closed form (requires gamma > 0)."""
    if gamma <= 0.0:
        raise DomainError(
            f"decay rate must be positive for the closed form, got {gamma!r}")
    p = _resolve_p_model(p_model)
    g_te = gamma * times.t_escape_region
    g_off = gamma * (times.t_prime + times.t_escape_region)
    p_return = p(2.0 * times.t_resonant, omega_tilde, gamma)
    return (p(times.t_resonant, omega_tilde, gamma) * math.sinh(g_te)
            / (0.5 * (math.exp(g_off) - p_return * math.exp(-g_off))))


def loss_no_cavity(times: CollisionTimes, gamma: float) -> float:
    """Free-space loss sinh(G*t_e)/sinh(G*(t_c+t_e)) of independent pairs."""
    if gamma <= 0.0:
        raise DomainError(
            f"decay rate must be positive, got {gamma!r}")
    return (math.sinh(gamma * times.t_escape_region)
            / math.sinh(gamma * (times.t_resonant + times.t_escape_region)))


def loss_point(delta: float, cavity: CavityConfig, params: PhysicalParams,
               p_model: Union[str, PModel] = "approx") -> LossPoint:
    """Everything the scan reports, for a single detuning."""
    coupling = collective_rabi(delta, cavity, params)
    times = collision_times(delta, coupling.omega_tilde, params)
    gamma = params.gamma_mol
    cavity_loss = loss_closed_form(times, coupling.omega_tilde, gamma, p_model)
    return LossPoint(
        delta=delta,
        omega_tilde=coupling.omega_tilde,
        n_pairs=coupling.n_pairs,
        times=times,
        phase=coupling.omega_tilde * times.t_resonant,
        loss_cavity=cavity_loss,
        loss_free=loss_no_cavity(times, gamma),
    )


def in_default_window(delta: float) -> bool:
    """True if the detuning lies in the trusted semiclassical window."""
    lo = 2.0 * math.pi * DEFAULT_WINDOW_MHZ[0] * 1.0e6
    hi = 2.0 * math.pi * DEFAULT_WINDOW_MHZ[1] * 1.0e6
    return lo * (1.0 + 1.0e-12) <= delta <= hi * (1.0 - 1.0e-12)


def scan_detuning(deltas: Sequence[float], cavity: CavityConfig,
                  params: PhysicalParams,
                  p_model: Union[str, PModel] = "approx", *,
                  allow_out_of_window: bool = False) -> list[LossPoint]:
    """Compute loss points over a detuning grid, ordered by ascending delta.

    Detunings outside the default window are rejected unless
    ``allow_out_of_window`` is set.
    """
    if len(deltas) < 2:
        raise ConfigError(f"scan needs at least 2 points, got {len(deltas)}")
    for delta in deltas:
        if delta >= 0.0:
            raise ConfigError(
                f"scan detunings must be negative, got {delta!r}")
        if not allow_out_of_window and not in_default_window(delta):
            raise ConfigError(
                f"detuning {delta / (2.0e6 * math.pi):.6g} MHz is outside the "
                f"validity window {DEFAULT_WINDOW_MHZ} MHz; pass "
                f"allow_out_of_window=True to override")
    return [loss_point(d, cavity, params, p_model) for d in sorted(deltas)]
