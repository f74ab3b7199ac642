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

The two survival kernels are elementwise over grids (see
:mod:`cavloss.grid`) and refuse a negative time, coupling or decay rate
alike.  The analytic one has four forms: decoupled, oscillating, and
hyperbolic with b*t <= 1 or beyond.  One classification gives each
element its form, whatever the layout of the arguments: the rates alone
pick among the first three, and b*t is formed only when some pair is
hyperbolic.  A grid whose elements share one form takes it whole, a
mixed grid takes each form on its own elements.  The rates stay arrays
throughout, so every square is numpy's and a float call equals the same
element of any grid bit for bit.  The ``dynamics`` CSV takes one pair
over all its samples at once.

Re c_eg, c_ev and c_gv are fed by nothing but themselves (the drive
i*W*(p_e - p_g) of c_eg is imaginary), so from a start where they are 0,
such as the excited state, they stay exactly 0 and are left out.  The
state is the real 4-vector

    y = (p_e, p_g, p_v, Im c_eg),

on which the equations read dy/dt = A*y with a constant 4x4 generator A.
Numerical integration is classical fixed-step RK4: the system is linear
with known stiffest rate max(b, G), so adaptivity buys nothing and
fixed steps keep runs bit-for-bit reproducible.  One RK4 step of size h
is exactly y <- M*y with

    M = R(h*A),   R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24,

RK4's stability polynomial.  Sample n is M^n*y0.  The samples come from
blocked powers (Higham, Functions of Matrices, SIAM 2008, ch. 4): with
a block length B near sqrt(n), the stack M^j for j < B and the block
starts (M^B)^b*y0 are built by about 2*sqrt(n) small products, and one
matrix product, of the block starts with the stacked rows of every M^j,
gives every sample M^(b*B + j)*y0.  The method, its step and its fourth
order are those of the step-by-step loop; only the rounding differs, and
no Python loop runs per step.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import DomainError, StepSizeError
from .grid import as_grid, like, refuse

#: minimum number of steps per fastest cycle, always enforced
STEPS_PER_CYCLE = 200

#: most steps one integration may take; every step is kept as a sample
MAX_STEPS = 1_000_000

#: the system prepared in the collective excited state, read-only
EXCITED_STATE = np.array([1.0, 0.0, 0.0, 0.0])
EXCITED_STATE.flags.writeable = False


def generator(omega_tilde: float, gamma: float) -> np.ndarray:
    """Real 4x4 generator A: the state y obeys dy/dt = A @ y."""
    w, g = omega_tilde, gamma
    return np.array([[-g, 0.0, 0.0, -2.0 * w],        # p_e
                     [0.0, 0.0, 0.0, 2.0 * w],        # p_g
                     [g, 0.0, 0.0, 0.0],              # p_v
                     [w, -w, 0.0, -0.5 * g]])         # Im c_eg


def max_stable_dt(omega_tilde: float, gamma: float) -> float:
    """Step-size ceiling: 1/STEPS_PER_CYCLE of the fastest cycle.

    The fastest rate is max(b, G), with b = sqrt(W^2 - (G/4)^2) counted only
    where the motion oscillates (b^2 > 0); it depends on W only through W^2.
    """
    beta_sq = omega_tilde**2 - (0.25 * gamma)**2
    rate = max(math.sqrt(beta_sq) if beta_sq > 0.0 else 0.0, gamma)
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


def _rk4_matrix(a: np.ndarray, h: float) -> np.ndarray:
    """One classical RK4 step of dy/dt = A @ y as a matrix: R(hA).

    R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, evaluated by Horner's rule.
    """
    eye = np.eye(len(a))
    z = h * a
    m = eye + z / 4.0
    for k in (3.0, 2.0, 1.0):
        m = eye + (z / k) @ m
    return m


def _orbit(m: np.ndarray, first: np.ndarray, count: int) -> np.ndarray:
    """The stack first, M @ first, ..., M^(count-1) @ first, for one M or a
    stack of them (with ``first`` stacked alike)."""
    stack = np.empty((count,) + np.shape(first))
    stack[0] = first
    for j in range(1, count):
        np.matmul(m, stack[j - 1], out=stack[j])
    return stack


def integrate_grid(initial: np.ndarray, omega_tilde: float, gamma: float,
                   t_end: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 over [0, t_end] from the state ``initial``.

    Returns ``(times, states)`` with ``times = arange(n + 1) * h`` and
    ``states[k]`` the state (p_e, p_g, p_v, Im c_eg) after k steps, one
    row per sample.  The step h is ``dt`` shrunk slightly so an integer
    number n of steps lands exactly on ``t_end``.  A start state other
    than 4 reals is refused, not cast; so are a negative or NaN decay
    rate, a coupling that is not finite, steps coarser than
    :func:`max_stable_dt` and a run of more than :data:`MAX_STEPS` steps,
    before anything is allocated.
    """
    start = np.asarray(initial)
    if start.shape != (4,) or start.dtype.kind not in "fiu":
        raise DomainError(f"initial state must be 4 reals, got a "
                          f"{start.dtype} array of shape {start.shape}")
    if not dt > 0.0:   # NaN fails too
        raise DomainError(f"dt must be positive, got {dt!r}")
    if not t_end >= 0.0:
        raise DomainError(f"t_end must be >= 0, got {t_end!r}")
    if not gamma >= 0.0:
        raise DomainError(f"decay rate must be >= 0, got {gamma!r}")
    if not math.isfinite(omega_tilde):   # a negative one is the same motion
        raise DomainError(
            f"collective Rabi frequency must be finite, got {omega_tilde!r}")
    dt_max = max_stable_dt(omega_tilde, gamma)
    if dt > dt_max:
        raise StepSizeError(
            f"dt={dt:.6e} exceeds the enforced ceiling {dt_max:.6e} s "
            f"({STEPS_PER_CYCLE} steps per fastest cycle)")
    steps = t_end / dt
    if steps - 1.0e-9 > MAX_STEPS:   # before anything is allocated
        raise DomainError(
            f"t_end/dt = {steps:.6g} steps exceeds the cap of {MAX_STEPS}")

    n_steps = max(1, math.ceil(steps - 1.0e-9)) if t_end > 0.0 else 0
    h = t_end / n_steps if n_steps else 0.0
    step = _rk4_matrix(generator(omega_tilde, gamma), h)
    # sample k = b*block + j is M^j @ (M^block)^b @ y0
    block = math.isqrt(n_steps) + 1   # block**2 >= n_steps + 1 samples
    count = -(-(n_steps + 1) // block)
    inner = _orbit(step, np.eye(4), block)
    bases = _orbit(inner[-1] @ step, start, count)
    # row b of the product is inner[j] @ bases[b] for every j in turn
    states = (bases @ inner.reshape(block * 4, 4).T).reshape(-1, 4)
    return np.arange(n_steps + 1) * h, states[:n_steps + 1]


def _over_x(f, x, sign):
    # f(x)/x for f = sin (sign -1) or sinh (sign +1), analytic through
    # x = 0: its series 1 + sign*x^2/6*(1 + sign*x^2/20) where |x| < 1e-4
    small = np.abs(x) < 1.0e-4
    value = f(x) / np.where(small, 1.0, x)
    if small.any():
        x2 = sign * np.square(x[small])
        value[small] = 1.0 + x2 / 6.0 * (1.0 + x2 / 20.0)
    return value


def _decoupled(t, omega_tilde, gamma):
    return np.exp(-gamma * t)


def _oscillating(t, omega_tilde, gamma):
    quarter = 0.25 * gamma
    x = np.sqrt(omega_tilde**2 - quarter**2) * t
    bracket = np.cos(x) - quarter * t * _over_x(np.sin, x, -1.0)
    return np.exp(-0.5 * gamma * t) * bracket**2


def _near(t, omega_tilde, gamma):
    # hyperbolic with b*t <= 1: cosh and sinh(x)/x
    quarter = 0.25 * gamma
    x = np.sqrt(quarter**2 - omega_tilde**2) * t
    bracket = np.cosh(x) - quarter * t * _over_x(np.sinh, x, 1.0)
    return np.exp(-0.5 * gamma * t) * bracket**2


def _far(t, omega_tilde, gamma):
    # hyperbolic with b*t > 1: the exp(-gamma*t/4) prefactor is folded into
    # the exponentials so cosh - sinh never cancels catastrophically
    quarter = 0.25 * gamma
    b = np.sqrt(quarter**2 - omega_tilde**2)
    x = b * t
    a = quarter / b
    w = 0.5 * ((1.0 - a) * np.exp(x - quarter * t)
               + (1.0 + a) * np.exp(-x - quarter * t))
    return w * w


#: the forms of p(t), indexed by :func:`_form`
_FORMS = (_decoupled, _oscillating, _near, _far)


def _form(t, omega_tilde, gamma):
    """Index into _FORMS of each element: no coupling, W >= G/4, else
    hyperbolic with b*t <= 1 or beyond.  The rates alone set the first
    three; b*t is formed only when some pair is hyperbolic."""
    omega_sq, quarter_sq = omega_tilde**2, (0.25 * gamma)**2
    form = (omega_tilde != 0.0) * (1 + (omega_sq < quarter_sq))
    hyperbolic = form == 2
    if np.count_nonzero(hyperbolic):   # faster than .any() on small grids
        far = np.sqrt(np.abs(quarter_sq - omega_sq)) * t > 1.0
        form = form + (hyperbolic & far)
    return form


def _kernel_arguments(t, omega_tilde, gamma):
    """The arguments of a survival kernel as grids, a negative element refused."""
    time, omega, decay = as_grid(t), as_grid(omega_tilde), as_grid(gamma)
    refuse(time < 0.0, time, "time must be >= 0, got {!r}")
    refuse(decay < 0.0, decay, "decay rate must be >= 0, got {!r}")
    refuse(omega < 0.0, omega,
           "collective Rabi frequency must be >= 0, got {!r}")
    return time, omega, decay


def p_omega_analytic(t, omega_tilde, gamma):
    """Closed-form excited-state survival probability p(t).

    Covers all damping regimes continuously; the decoupled limit
    omega_tilde = 0 returns exp(-gamma*t) exactly.  Elementwise in all
    three arguments.
    """
    time, omega, decay = _kernel_arguments(t, omega_tilde, gamma)
    shape = np.broadcast(time, omega, decay).shape
    if time.shape != shape:   # a time for every element of the result
        time = np.broadcast_to(time, shape)
    form = _form(time, omega, decay)
    counts = np.bincount(form.ravel(), minlength=len(_FORMS)).tolist()
    if form.size in counts:   # one form for every pair: no gather
        value = _FORMS[counts.index(form.size)](time, omega, decay)
        return like(value, t, omega_tilde, gamma)
    if form.shape != shape:
        form = np.broadcast_to(form, shape)
    value = np.empty(shape)
    for index, evaluate in enumerate(_FORMS):
        if counts[index]:
            rows = form == index
            # a one-element rate is shared by every row, so it goes whole
            value[rows] = evaluate(time[rows], *[
                rate.reshape(1) if rate.size == 1
                else np.broadcast_to(rate, shape)[rows]
                for rate in (omega, decay)])
    return like(value, t, omega_tilde, gamma)


def p_omega_approx(t, omega_tilde, gamma):
    """Simplified survival probability exp(-gamma*t/2)*cos^2(omega_tilde*t).

    Drops the sine correction and replaces the oscillation rate by
    omega_tilde itself; intended for omega_tilde >> gamma/4, where it
    deviates from the full form by order gamma/(4*omega_tilde).  Refuses
    what :func:`p_omega_analytic` refuses.
    """
    time, omega, decay = _kernel_arguments(t, omega_tilde, gamma)
    return like(np.exp(-0.5 * decay * time) * np.cos(omega * time) ** 2,
                t, omega_tilde, gamma)
