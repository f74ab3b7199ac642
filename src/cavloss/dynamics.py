"""Dissipative dynamics of the one-excitation subspace.

The collective excited state, the one-photon ground state, and the
vacuum state span a closed subspace.  In the interaction representation
their populations (p_e, p_g, p_v) and coherences (c_eg, c_ev, c_gv)
obey six coupled linear equations:

    dp_e/dt = -G*p_e + i*W*(c_eg - conj(c_eg))
    dp_g/dt =        - i*W*(c_eg - conj(c_eg))
    dp_v/dt =  G*p_e
    dc_eg/dt = -(G/2)*c_eg + i*W*(p_e - p_g)
    dc_ev/dt = -(G/2)*c_ev - i*W*c_gv
    dc_gv/dt =             - i*W*c_ev

with W the collective Rabi frequency and G the pair decay rate.  The
free phases are already removed, so neither transition frequency enters.
Starting from the excited state, p_e(t) has the closed form

    p(t) = exp(-G*t/2) * (cos(b*t) - (G/(4*b))*sin(b*t))^2,
    b = sqrt(W^2 - (G/4)^2),

with the damping regime set by the sign of b^2: oscillatory above
W = G/4, hyperbolic below, and the squared-Taylor limit
exp(-G*t/2)*(1 - G*t/4)^2 exactly at the boundary.  The implementation
evaluates the (G/(4*b))*sin term through sinc-style kernels that are
analytic in b^2, so the value crosses the boundary continuously and no
0/0 arises anywhere.

The two survival kernels take plain numbers or numpy arrays.  An array
is computed by numpy, each damping branch on its own elements; plain
numbers are computed by :mod:`math`, so a scalar call, and with it every
``dynamics`` CSV row, reproduces libm to the last bit.

Numerical integration is classical fixed-step RK4: the system is linear
with known stiffest rate max(b, G), so adaptivity buys nothing and
fixed steps keep runs bit-for-bit reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, StepSizeError
from .grid import refuse

#: relative half-width of the band reported as critically damped
CRITICAL_BAND = 1.0e-6

#: minimum number of steps per fastest cycle enforced by default
STEPS_PER_CYCLE = 200

#: most steps one integration may take; every step is kept as a sample
MAX_STEPS = 1_000_000


@dataclass(frozen=True)
class ReducedState:
    """Populations and coherences of the three-state subspace."""

    p_e: float
    p_g: float
    p_v: float
    c_eg: complex = 0.0 + 0.0j
    c_ev: complex = 0.0 + 0.0j
    c_gv: complex = 0.0 + 0.0j

    @property
    def trace(self) -> float:
        return self.p_e + self.p_g + self.p_v


#: the system prepared in the collective excited state
EXCITED_STATE = ReducedState(p_e=1.0, p_g=0.0, p_v=0.0)


@dataclass(frozen=True)
class RabiRegime:
    """Damping classification at given coupling and decay rate."""

    beta: float    # |W^2 - (G/4)^2|^(1/2), rad/s
    regime: str    # "underdamped" | "critical" | "overdamped"


def rabi_regime(omega_tilde: float, gamma: float) -> RabiRegime:
    """Classify the damping regime; oscillations require W > G/4."""
    quarter = 0.25 * gamma
    beta = math.sqrt(abs(omega_tilde**2 - quarter**2))
    if abs(omega_tilde - quarter) < CRITICAL_BAND * gamma:
        return RabiRegime(beta=beta, regime="critical")
    if omega_tilde > quarter:
        return RabiRegime(beta=beta, regime="underdamped")
    return RabiRegime(beta=beta, regime="overdamped")


def master_rhs(state: ReducedState, omega_tilde: float,
               gamma: float) -> ReducedState:
    """Time derivative of the reduced state (same container type)."""
    drive = 1j * omega_tilde * (state.c_eg - state.c_eg.conjugate())
    return ReducedState(
        p_e=-gamma * state.p_e + drive.real,
        p_g=-drive.real,
        p_v=gamma * state.p_e,
        c_eg=-0.5 * gamma * state.c_eg + 1j * omega_tilde * (state.p_e - state.p_g),
        c_ev=-0.5 * gamma * state.c_ev - 1j * omega_tilde * state.c_gv,
        c_gv=-1j * omega_tilde * state.c_ev,
    )


def max_stable_dt(omega_tilde: float, gamma: float) -> float:
    """Default step-size ceiling: 1/STEPS_PER_CYCLE of the fastest cycle."""
    regime = rabi_regime(omega_tilde, gamma)
    rate = max(regime.beta if regime.regime == "underdamped" else 0.0, gamma)
    if rate == 0.0:
        return math.inf
    return 2.0 * math.pi / rate / STEPS_PER_CYCLE


def default_run(omega_tilde: float, gamma: float,
                t_end: Optional[float] = None,
                dt: Optional[float] = None) -> tuple[float, float]:
    """The (t_end, dt) of a run from the excited state; given values are kept.

    The default span is 5/gamma, or five Rabi cycles when gamma = 0; the
    default step is a tenth of :func:`max_stable_dt`.
    """
    if t_end is None:
        if gamma > 0.0:
            t_end = 5.0 / gamma
        elif omega_tilde > 0.0:
            t_end = 5.0 * 2.0 * math.pi / omega_tilde
        else:
            raise DomainError("t_end must be given when both rates are zero")
    if dt is None:
        dt_max = max_stable_dt(omega_tilde, gamma)
        if not math.isfinite(dt_max):
            raise DomainError("dt must be given when both rates are zero")
        dt = dt_max / 10.0
    return t_end, dt


def integrate_master(initial: ReducedState, omega_tilde: float, gamma: float,
                     t_end: float, dt: float, *, record_every: int = 1,
                     allow_coarse_dt: bool = False
                     ) -> list[tuple[float, ReducedState]]:
    """Fixed-step RK4 integration; returns sampled (t, state) pairs.

    The step is shrunk slightly so an integer number of steps lands
    exactly on ``t_end``.  Steps coarser than :func:`max_stable_dt` are
    rejected unless ``allow_coarse_dt`` is set; a run of more than
    :data:`MAX_STEPS` steps is always rejected.
    """
    if not dt > 0.0:   # NaN fails too
        raise DomainError(f"dt must be positive, got {dt!r}")
    if not t_end >= 0.0:
        raise DomainError(f"t_end must be >= 0, got {t_end!r}")
    dt_max = max_stable_dt(omega_tilde, gamma)
    if dt > dt_max and not allow_coarse_dt:
        raise StepSizeError(
            f"dt={dt:.6e} exceeds the enforced ceiling {dt_max:.6e} s "
            f"({STEPS_PER_CYCLE} steps per fastest cycle); pass "
            f"allow_coarse_dt=True to override")
    steps = t_end / dt
    if steps - 1.0e-9 > MAX_STEPS:   # before any sample is stored
        raise DomainError(
            f"t_end/dt = {steps:.6g} steps exceeds the cap of {MAX_STEPS}")

    y = (complex(initial.p_e), complex(initial.p_g), complex(initial.p_v),
         complex(initial.c_eg), complex(initial.c_ev), complex(initial.c_gv))
    samples = [(0.0, initial)]
    if t_end == 0.0:
        return samples

    n_steps = max(1, math.ceil(steps - 1.0e-9))
    h = t_end / n_steps
    half_g = 0.5 * gamma
    i_w = 1j * omega_tilde

    def rhs(s):
        pe, pg, pv, ceg, cev, cgv = s
        drive = i_w * (ceg - ceg.conjugate())
        return (-gamma * pe + drive,
                -drive,
                gamma * pe,
                -half_g * ceg + i_w * (pe - pg),
                -half_g * cev - i_w * cgv,
                -i_w * cev)

    for step in range(1, n_steps + 1):
        k1 = rhs(y)
        k2 = rhs(tuple(a + 0.5 * h * b for a, b in zip(y, k1)))
        k3 = rhs(tuple(a + 0.5 * h * b for a, b in zip(y, k2)))
        k4 = rhs(tuple(a + h * b for a, b in zip(y, k3)))
        y = tuple(a + (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                  for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4))
        if step % record_every == 0 or step == n_steps:
            samples.append((step * h, ReducedState(
                p_e=y[0].real, p_g=y[1].real, p_v=y[2].real,
                c_eg=y[3], c_ev=y[4], c_gv=y[5])))
    return samples


def _require_nonnegative(t, gamma=0.0, omega_tilde=0.0) -> None:
    """Raise DomainError naming the first negative time, rate or coupling."""
    for value, what in ((t, "time"), (gamma, "decay rate"),
                        (omega_tilde, "collective Rabi frequency")):
        if isinstance(value, np.ndarray):
            refuse(value < 0.0, value, what + " must be >= 0, got {!r}")
        elif value < 0.0:
            raise DomainError(f"{what} must be >= 0, got {value!r}")


def _sinc(x, xp):
    # sin(x)/x, analytic through x = 0
    if xp is math and abs(x) >= 1.0e-4:
        return math.sin(x) / x
    x2 = x * x
    series = 1.0 - x2 / 6.0 * (1.0 - x2 / 20.0)
    if xp is math:
        return series
    small = np.abs(x) < 1.0e-4
    return np.where(small, series, np.sin(x) / np.where(small, 1.0, x))


def _sinhc(x, xp):
    # sinh(x)/x, analytic through x = 0
    if xp is math and abs(x) >= 1.0e-4:
        return math.sinh(x) / x
    x2 = x * x
    series = 1.0 + x2 / 6.0 * (1.0 + x2 / 20.0)
    if xp is math:
        return series
    small = np.abs(x) < 1.0e-4
    return np.where(small, series, np.sinh(x) / np.where(small, 1.0, x))


def _decoupled(t, omega_tilde, gamma, xp):
    return xp.exp(-gamma * t)


def _oscillating(t, omega_tilde, gamma, xp):
    quarter = 0.25 * gamma
    x = xp.sqrt(omega_tilde**2 - quarter**2) * t
    bracket = xp.cos(x) - quarter * t * _sinc(x, xp)
    return xp.exp(-0.5 * gamma * t) * bracket**2


def _hyperbolic_near(t, omega_tilde, gamma, xp):
    quarter = 0.25 * gamma
    x = xp.sqrt(-(omega_tilde**2 - quarter**2)) * t
    bracket = xp.cosh(x) - quarter * t * _sinhc(x, xp)
    return xp.exp(-0.5 * gamma * t) * bracket**2


def _hyperbolic_far(t, omega_tilde, gamma, xp):
    # fold the exp(-gamma*t/4) prefactor into the exponentials so
    # cosh - sinh never cancels catastrophically
    quarter = 0.25 * gamma
    b = xp.sqrt(-(omega_tilde**2 - quarter**2))
    x = b * t
    a = quarter / b
    w = 0.5 * ((1.0 - a) * xp.exp(x - quarter * t)
               + (1.0 + a) * xp.exp(-x - quarter * t))
    return w * w


#: the forms of p(t), indexed by :func:`_branch`
_BRANCHES = (_decoupled, _oscillating, _hyperbolic_near, _hyperbolic_far)


def _branch(t, omega_tilde, gamma, xp):
    """Index into _BRANCHES: no coupling, W >= G/4, else b*t <= 1 or beyond."""
    beta_sq = omega_tilde**2 - (0.25 * gamma)**2
    if xp is math:
        if omega_tilde == 0.0:
            return 0
        if beta_sq >= 0.0:
            return 1
        return 2 if math.sqrt(-beta_sq) * t <= 1.0 else 3
    hyperbolic = beta_sq < 0.0
    far = hyperbolic & (np.sqrt(np.abs(beta_sq)) * t > 1.0)
    return (omega_tilde != 0.0) * (1 + hyperbolic + far)


def p_omega_analytic(t, omega_tilde, gamma: float):
    """Closed-form excited-state survival probability p(t).

    Covers all damping regimes continuously; the decoupled limit
    omega_tilde = 0 returns exp(-gamma*t) exactly.
    """
    if not (isinstance(t, np.ndarray) or isinstance(omega_tilde, np.ndarray)):
        if t < 0.0 or gamma < 0.0 or omega_tilde < 0.0:
            _require_nonnegative(t, gamma, omega_tilde)
        return _BRANCHES[_branch(t, omega_tilde, gamma, math)](
            t, omega_tilde, gamma, math)
    _require_nonnegative(t, gamma, omega_tilde)
    t, omega_tilde = np.broadcast_arrays(np.asarray(t, dtype=float),
                                         np.asarray(omega_tilde, dtype=float))
    branch = _branch(t, omega_tilde, gamma, np)
    value = np.empty(t.shape)
    for index, form in enumerate(_BRANCHES):
        rows = branch == index
        if rows.any():
            value[rows] = form(t[rows], omega_tilde[rows], gamma, np)
    return value


def p_omega_approx(t, omega_tilde, gamma: float):
    """Simplified survival probability exp(-gamma*t/2)*cos^2(omega_tilde*t).

    Drops the sine correction and replaces the oscillation rate by
    omega_tilde itself; intended for omega_tilde >> gamma/4, where it
    deviates from the full form by order gamma/(4*omega_tilde).
    """
    grid = isinstance(t, np.ndarray) or isinstance(omega_tilde, np.ndarray)
    if grid or t < 0.0:
        _require_nonnegative(t)
    xp = np if grid else math
    return xp.exp(-0.5 * gamma * t) * xp.cos(omega_tilde * t) ** 2
