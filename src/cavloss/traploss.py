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

:func:`loss_series` sums the series by doubling, the check on the
closed form.  Like every loss function here it is elementwise over
arrays; it returns each element's sum and the number of terms it took.

:func:`loss_grid` computes the whole chain, coupling
(:func:`~cavloss.cavity.coupling`) -> radii and times
(:func:`~cavloss.kinematics.collision_times`) -> kernel -> losses, as one
:class:`LossPoint` of arrays over an array of detunings, or of floats at
one detuning as :func:`loss_point` calls it (see :mod:`cavloss.grid`).
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Union

import numpy as np

from .cavity import CavityConfig, atomic_dipole, coupling
from .constants import PhysicalParams
from .dynamics import p_omega_analytic, p_omega_approx
from .errors import ConfigError, DivergenceError
from .grid import as_grid, float_range, like, refuse
from .kinematics import CollisionTimes, collision_times

#: detuning window (MHz) inside which the semiclassical model is trusted
DEFAULT_WINDOW_MHZ = (-1000.0, -350.0)

#: survival-kernel callable signature: (t, omega_tilde, gamma) -> probability;
#: :func:`loss_grid` calls it with numbers or arrays of t and omega_tilde
PModel = Callable[[float, float, float], float]

P_MODELS: dict[str, PModel] = {
    "analytic": p_omega_analytic,
    "approx": p_omega_approx,
}

SERIES_REL_CUTOFF = 1.0e-15


class LossPoint(NamedTuple):
    """The scan at one detuning as floats, or at a grid as one array each."""

    delta: float             # rad/s
    omega_tilde: float       # rad/s
    n_pairs: float
    times: CollisionTimes    # the bundle collision_times returned
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


def single_passage_loss(times: CollisionTimes, omega_tilde, gamma: float,
                        p_model: Union[str, PModel]):
    """Loss probability of the first passage through the escape region.

    Elementwise when the times and omega_tilde are arrays.
    """
    p = _resolve_p_model(p_model)
    loss = (p(times.t_resonant, omega_tilde, gamma)
            * np.exp(-times.t_prime * gamma)
            * -np.expm1(-2.0 * times.t_escape_region * gamma))
    return like(loss, times.t_resonant, omega_tilde)


def loss_series(times: CollisionTimes, omega_tilde, gamma: float,
                p_model: Union[str, PModel]):
    """Multiple-passage loss by direct summation; returns (values, terms).

    Elementwise when the times and omega_tilde are arrays.  The
    per-passage factors form a geometric series with ratio q, summed by
    doubling, S_2n = S_n + q^n*S_n, until the block an element would add
    is 0 or below SERIES_REL_CUTOFF of its sum; ``terms`` is a power of
    two, reached within about 60 doublings for any q < 1.
    DivergenceError names the ratio of the first element with q >= 1.
    """
    p = _resolve_p_model(p_model)
    ratio = as_grid(
        np.exp(-2.0 * (times.t_prime + times.t_escape_region) * gamma)
        * p(2.0 * times.t_resonant, omega_tilde, gamma))
    diverging = ratio >= 1.0
    if diverging.any():
        raise DivergenceError(
            "multiple-passage sum diverges: lossless passage with full "
            f"revival (ratio={float(ratio[diverging][0])!r})")
    total = as_grid(single_passage_loss(times, omega_tilde, gamma, p))
    terms = np.ones(total.shape, dtype=int)
    live = np.ones(total.shape, dtype=bool)
    power = ratio   # q^terms
    while True:
        block = power * total
        live &= (block >= SERIES_REL_CUTOFF * total) & (block > 0.0)
        if not live.any():
            break
        np.add(total, block, out=total, where=live)
        terms <<= live
        power = power * power
    return (like(total, times.t_resonant, omega_tilde),
            like(terms, times.t_resonant, omega_tilde))


def loss_closed_form(times: CollisionTimes, omega_tilde, gamma,
                     p_model: Union[str, PModel]):
    """Multiple-passage loss in closed form (requires gamma > 0).

    Elementwise when the times, omega_tilde or gamma are arrays.
    """
    decay = as_grid(gamma)
    refuse(decay <= 0.0, decay,
           "decay rate must be positive for the closed form, got {!r}")
    p = _resolve_p_model(p_model)
    g_te = gamma * times.t_escape_region
    g_off = gamma * (times.t_prime + times.t_escape_region)
    p_return = p(2.0 * times.t_resonant, omega_tilde, gamma)
    loss = (p(times.t_resonant, omega_tilde, gamma) * np.sinh(g_te)
            / (0.5 * (np.exp(g_off) - p_return * np.exp(-g_off))))
    return like(loss, times.t_resonant, omega_tilde, gamma)


def loss_no_cavity(times: CollisionTimes, gamma):
    """Free-space loss sinh(G*t_e)/sinh(G*(t_c+t_e)) of independent pairs."""
    decay = as_grid(gamma)
    refuse(decay <= 0.0, decay, "decay rate must be positive, got {!r}")
    loss = (np.sinh(gamma * times.t_escape_region)
            / np.sinh(gamma * (times.t_resonant + times.t_escape_region)))
    return like(loss, times.t_resonant, gamma)


def loss_grid(deltas, cavity: CavityConfig, params: PhysicalParams,
              p_model: Union[str, PModel] = "approx") -> LossPoint:
    """Everything the scan reports, at every detuning at once, in given order.

    A number gives a LossPoint of floats.  Coupling refuses a detuning
    that is not red; a floating-point overflow or invalid operation
    anywhere in the chain raises DomainError instead of writing inf or NaN.
    """
    delta = float(deltas) if np.ndim(deltas) == 0 else as_grid(deltas)
    gamma = params.gamma_mol
    with float_range("the loss chain"):
        point = coupling(delta, cavity, params)
        omega_tilde = point.omega_tilde
        times = collision_times(delta, omega_tilde, params)
        loss_cavity = loss_closed_form(times, omega_tilde, gamma, p_model)
        loss_free = loss_no_cavity(times, gamma)
    n_pairs = as_grid(point.n_pairs)   # inf where Omega underflows to 0
    unbounded = np.isinf(n_pairs)
    if np.count_nonzero(unbounded):   # name the key that zeroed Omega
        refuse(unbounded, n_pairs, "the resonant pair count is {!r}: " + (
            "the pair dipole is 0 as species.gamma_a_mhz is too small"
            if atomic_dipole(params) == 0.0 else
            "the field per photon is 0 as cavity.length_cm is too large"))
    return LossPoint(delta=delta, omega_tilde=omega_tilde,
                     n_pairs=point.n_pairs, times=times,
                     phase=omega_tilde * times.t_resonant,
                     loss_cavity=loss_cavity, loss_free=loss_free)


def loss_point(delta: float, cavity: CavityConfig, params: PhysicalParams,
               p_model: Union[str, PModel] = "approx") -> LossPoint:
    """Everything the scan reports, for a single detuning."""
    return loss_grid(float(delta), cavity, params, p_model)


def in_default_window(delta):
    """True if the detuning lies in the trusted semiclassical window."""
    lo = 2.0 * math.pi * DEFAULT_WINDOW_MHZ[0] * 1.0e6
    hi = 2.0 * math.pi * DEFAULT_WINDOW_MHZ[1] * 1.0e6
    return (lo * (1.0 + 1.0e-12) <= delta) & (delta <= hi * (1.0 - 1.0e-12))
