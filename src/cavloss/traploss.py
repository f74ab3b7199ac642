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

:func:`loss_grid` computes the whole chain, coupling -> radii and times
(:func:`~cavloss.kinematics.collision_times`) -> kernel -> losses, over
an array of detunings at once; :func:`loss_point` and
:func:`scan_detuning` are views of it (see :mod:`cavloss.grid`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .cavity import CavityConfig, coupling
from .constants import PhysicalParams
from .dynamics import p_omega_analytic, p_omega_approx
from .errors import ConfigError, DivergenceError, DomainError
from .grid import as_grid, float_range, like
from .kinematics import CollisionTimes, collision_times
from .potential import ResonanceGeometry

#: detuning window (MHz) inside which the semiclassical model is trusted
DEFAULT_WINDOW_MHZ = (-1000.0, -350.0)

#: survival-kernel callable signature: (t, omega_tilde, gamma) -> probability;
#: :func:`loss_grid` calls it with arrays of t and omega_tilde
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


@dataclass(frozen=True)
class LossGrid:
    """The detuning scan as columns: one array per quantity of LossPoint."""

    delta: np.ndarray            # rad/s
    omega_tilde: np.ndarray      # rad/s
    n_pairs: np.ndarray
    r_condon: np.ndarray         # cm
    r_escape: np.ndarray         # cm
    r_ratio: np.ndarray
    t_total: np.ndarray          # s
    frac_resonant: np.ndarray
    t_resonant: np.ndarray       # s
    t_escape_region: np.ndarray  # s
    phase: np.ndarray            # omega_tilde * t_c, rad
    loss_cavity: np.ndarray
    loss_free: np.ndarray

    def points(self) -> list[LossPoint]:
        """One LossPoint of builtin floats per detuning."""
        columns = (self.delta, self.omega_tilde, self.n_pairs, self.r_condon,
                   self.r_escape, self.r_ratio, self.t_total,
                   self.frac_resonant, self.t_resonant, self.t_escape_region,
                   self.phase, self.loss_cavity, self.loss_free)
        return [
            LossPoint(delta=d, omega_tilde=w, n_pairs=n, times=CollisionTimes(
                t_total=t0, frac_resonant=f, t_resonant=t_c,
                t_escape_region=t_e, t_prime=0.0,
                geometry=ResonanceGeometry(detuning=d, r_condon=r_c,
                                           r_escape=r_e, r_ratio=ratio)),
                      phase=phase, loss_cavity=l_c, loss_free=l_o)
            for d, w, n, r_c, r_e, ratio, t0, f, t_c, t_e, phase, l_c, l_o
            in zip(*(column.tolist() for column in columns))]


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


def loss_closed_form(times: CollisionTimes, omega_tilde, gamma: float,
                     p_model: Union[str, PModel]):
    """Multiple-passage loss in closed form (requires gamma > 0).

    Elementwise when the times and omega_tilde are arrays.
    """
    if gamma <= 0.0:
        raise DomainError(
            f"decay rate must be positive for the closed form, got {gamma!r}")
    p = _resolve_p_model(p_model)
    g_te = gamma * times.t_escape_region
    g_off = gamma * (times.t_prime + times.t_escape_region)
    p_return = p(2.0 * times.t_resonant, omega_tilde, gamma)
    loss = (p(times.t_resonant, omega_tilde, gamma) * np.sinh(g_te)
            / (0.5 * (np.exp(g_off) - p_return * np.exp(-g_off))))
    return like(loss, times.t_resonant, omega_tilde)


def loss_no_cavity(times: CollisionTimes, gamma: float):
    """Free-space loss sinh(G*t_e)/sinh(G*(t_c+t_e)) of independent pairs."""
    if gamma <= 0.0:
        raise DomainError(
            f"decay rate must be positive, got {gamma!r}")
    loss = (np.sinh(gamma * times.t_escape_region)
            / np.sinh(gamma * (times.t_resonant + times.t_escape_region)))
    return like(loss, times.t_resonant)


def loss_grid(deltas, cavity: CavityConfig, params: PhysicalParams,
              p_model: Union[str, PModel] = "approx") -> LossGrid:
    """Everything the scan reports, at every detuning at once, in given order.

    A floating-point overflow or invalid operation anywhere in the chain
    raises DomainError instead of writing inf or NaN.
    """
    delta = as_grid(deltas)   # coupling refuses a detuning that is not red
    gamma = params.gamma_mol
    with float_range("the loss chain"):
        _, n_pairs, omega_tilde = coupling(delta, cavity, params)
        times = collision_times(delta, omega_tilde, params)
        loss_cavity = loss_closed_form(times, omega_tilde, gamma, p_model)
        loss_free = loss_no_cavity(times, gamma)
    geometry = times.geometry
    return LossGrid(delta=delta, omega_tilde=omega_tilde, n_pairs=n_pairs,
                    r_condon=geometry.r_condon, r_escape=geometry.r_escape,
                    r_ratio=geometry.r_ratio, t_total=times.t_total,
                    frac_resonant=times.frac_resonant,
                    t_resonant=times.t_resonant,
                    t_escape_region=times.t_escape_region,
                    phase=omega_tilde * times.t_resonant,
                    loss_cavity=loss_cavity, loss_free=loss_free)


def loss_point(delta: float, cavity: CavityConfig, params: PhysicalParams,
               p_model: Union[str, PModel] = "approx") -> LossPoint:
    """Everything the scan reports, for a single detuning."""
    return loss_grid([delta], cavity, params, p_model).points()[0]


def in_default_window(delta):
    """True if the detuning lies in the trusted semiclassical window."""
    lo = 2.0 * math.pi * DEFAULT_WINDOW_MHZ[0] * 1.0e6
    hi = 2.0 * math.pi * DEFAULT_WINDOW_MHZ[1] * 1.0e6
    return (lo * (1.0 + 1.0e-12) <= delta) & (delta <= hi * (1.0 - 1.0e-12))


def scan_grid(deltas: Sequence[float], cavity: CavityConfig,
              params: PhysicalParams,
              p_model: Union[str, PModel] = "approx", *,
              allow_out_of_window: bool = False) -> LossGrid:
    """The loss over a detuning grid as columns, ordered by ascending delta.

    Detunings outside the default window are rejected unless
    ``allow_out_of_window`` is set; the error names the first offending
    detuning in input order.
    """
    if len(deltas) < 2:
        raise ConfigError(f"scan needs at least 2 points, got {len(deltas)}")
    grid = np.asarray(deltas, dtype=float)
    bad = grid >= 0.0
    if not allow_out_of_window:
        bad |= ~in_default_window(grid)
    if bad.any():
        delta = float(grid[bad][0])
        if delta >= 0.0:
            raise ConfigError(
                f"scan detunings must be negative, got {delta!r}")
        raise ConfigError(
            f"detuning {delta / (2.0e6 * math.pi):.6g} MHz is outside the "
            f"validity window {DEFAULT_WINDOW_MHZ} MHz; pass "
            f"allow_out_of_window=True to override")
    return loss_grid(np.sort(grid), cavity, params, p_model)


def scan_detuning(deltas: Sequence[float], cavity: CavityConfig,
                  params: PhysicalParams,
                  p_model: Union[str, PModel] = "approx", *,
                  allow_out_of_window: bool = False) -> list[LossPoint]:
    """:func:`scan_grid` as one LossPoint per detuning."""
    return scan_grid(deltas, cavity, params, p_model,
                     allow_out_of_window=allow_out_of_window).points()
