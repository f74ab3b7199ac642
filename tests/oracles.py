"""Independent brute-force oracles used by the test suite.

Everything here is deliberately written from the defining expressions,
not from the production code paths: the quadrature oracle is composite
Simpson on the raw transformed integrand, the time-scale oracle chains
the closed formulas with its own constant literals, the in-fall
reference takes 8 panels of a 14-node Gauss-Legendre rule of the
integral's two forms, the damped oscillation reference evaluates the
textbook form naively, the master-equation reference takes RK4 steps one
at a time in complex arithmetic, and the CSV reference formats every row
with ``%``.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

# constant literals owned by the tests
HBAR = 1.0545718176461565e-27   # erg*s
C_LIGHT = 2.99792458e10         # cm/s
AMU = 1.66053906660e-24         # g

TWO_PI_MHZ = 2.0 * math.pi * 1.0e6


def infall_integral_oracle(r_ratio: float, panels: int = 1_000_000) -> float:
    """integral_r^1 du/sqrt(u^-3 - 1) by composite Simpson.

    Uses the substitution u = 1 - s^2 and integrates the *unsimplified*
    quotient 2*s/sqrt((1-s^2)^-3 - 1); only the two endpoint limits
    (2/sqrt(3) at s=0, 0 at s=1) are filled in by hand.
    """
    if panels % 2:
        panels += 1
    s_max = math.sqrt(1.0 - r_ratio)
    if s_max == 0.0:
        return 0.0
    s = np.linspace(0.0, s_max, panels + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        y = 2.0 * s / np.sqrt((1.0 - s * s) ** -3 - 1.0)
    y[0] = 2.0 / math.sqrt(3.0)
    if r_ratio == 0.0:
        y[-1] = 0.0
    h = s_max / panels
    return h / 3.0 * (y[0] + y[-1]
                      + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())


def infall_integral_reference(r_ratio: np.ndarray) -> np.ndarray:
    """integral_r^1 du/sqrt(u^-3 - 1) by a composite Gauss-Legendre rule.

    For r >= 1/2 the rule takes 2*(1 - s^2)^(3/2)/sqrt(3 - 3*s^2 + s^4) on
    0 <= s <= sqrt(1 - r) (u = 1 - s^2); for r < 1/2 it takes
    B(5/6, 1/2)/3 minus 2*t^4/sqrt(1 - t^6) on 0 <= t <= sqrt(r) (u = t^2).
    Each form is analytic on its range.  The rule is numpy's 14-node one
    on each of 8 equal panels: numpy's 40-node nodes are not exact to
    rounding and leave ~7e-16.  The weighted nodes are summed by a matrix
    product.
    """
    nodes, weights = leggauss(14)
    nodes = ((nodes[None, :] + 1.0) / 16.0
             + np.arange(8)[:, None] / 8.0).ravel()
    weights = np.tile(weights / 16.0, 8)

    def rule(integrand, upper):
        return upper * (integrand(np.outer(upper, nodes)) @ weights)

    value = rule(lambda s: 2.0 * (1.0 - s * s) ** 1.5
                 / np.sqrt(3.0 - 3.0 * s * s + s**4), np.sqrt(1.0 - r_ratio))
    head = r_ratio < 0.5
    g0 = math.gamma(5.0 / 6.0) * math.gamma(0.5) / (3.0 * math.gamma(4.0 / 3.0))
    value[head] = g0 - rule(lambda t: 2.0 * t**4 / np.sqrt(1.0 - t**6),
                            np.sqrt(r_ratio[head]))
    return value


def g0_oracle(panels: int = 1_000_000) -> float:
    return infall_integral_oracle(0.0, panels)


def fraction_oracle(delta: float, omega_tilde: float,
                    panels: int = 1_000_000) -> float:
    """Resonant-region time fraction from the Simpson oracle."""
    r_ratio = (1.0 + omega_tilde / abs(delta)) ** (-1.0 / 3.0)
    return infall_integral_oracle(r_ratio, panels) / g0_oracle(panels)


class DenseFractionOracle:
    """Fast fraction evaluation for dense detuning grids.

    Precomputes the cumulative trapezoid integral of the transformed
    integrand on a very fine s grid (error ~ h^2 ~ 6e-14), then reads
    arbitrary upper limits off by linear interpolation.
    """

    def __init__(self, nodes: int = 2**22):
        s = np.linspace(0.0, 1.0, nodes + 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            y = 2.0 * s / np.sqrt((1.0 - s * s) ** -3 - 1.0)
        y[0] = 2.0 / math.sqrt(3.0)
        y[-1] = 0.0
        h = 1.0 / nodes
        cumulative = np.concatenate(
            ([0.0], np.cumsum(0.5 * h * (y[1:] + y[:-1]))))
        self._s = s
        self._cumulative = cumulative
        self.g0 = cumulative[-1]

    def fraction(self, r_ratio: np.ndarray) -> np.ndarray:
        s_max = np.sqrt(1.0 - np.asarray(r_ratio))
        return np.interp(s_max, self._s, self._cumulative) / self.g0


def total_time_oracle(delta: float, mass_amu: float, c3_erg_cm3: float,
                      g0: float) -> float:
    """In-fall time from the closed formula, chained by hand."""
    mu = 0.5 * mass_amu * AMU
    return (g0 * math.sqrt(mu / (2.0 * c3_erg_cm3))
            * (c3_erg_cm3 / (HBAR * abs(delta))) ** (5.0 / 6.0))


def p_underdamped_reference(t: float, omega_tilde: float,
                            gamma: float) -> float:
    """Damped-oscillation survival probability, naive textbook evaluation.

    Valid for omega_tilde > gamma/4 only; used as a cross-check away
    from the critical boundary.
    """
    beta = math.sqrt(omega_tilde**2 - (gamma / 4.0) ** 2)
    bracket = math.cos(beta * t) - gamma / (4.0 * beta) * math.sin(beta * t)
    return math.exp(-gamma * t / 2.0) * bracket**2


def loss_series_reference(p_tc: float, p_2tc: float, gamma: float,
                          t_e: float, t_prime: float,
                          n_terms: int = 200_000) -> float:
    """Multiple-passage loss summed term by term from the probabilities."""
    total = 0.0
    for n in range(n_terms):
        total += (p_tc
                  * (math.exp(-2.0 * (t_prime + t_e) * gamma) * p_2tc) ** n
                  * math.exp(-t_prime * gamma)
                  * (1.0 - math.exp(-2.0 * t_e * gamma)))
    return total


def loss_series_per_point(times, omega_tilde: float, gamma: float, p,
                          cutoff: float = 1.0e-15,
                          max_terms: int = 10_000) -> tuple[float, int]:
    """Multiple-passage loss of one point summed in ``math``; (value, terms).

    The reference for the elementwise ``loss_series``: first term and
    ratio from ``math.exp``, one term at a time, stopping once a term
    falls below ``cutoff`` of the partial sum or after ``max_terms``
    terms.  ``p`` is the survival kernel, called on floats.
    """
    t_c, t_e, t_p = times.t_resonant, times.t_escape_region, times.t_prime
    ratio = math.exp(-2.0 * (t_p + t_e) * gamma) * p(2.0 * t_c, omega_tilde,
                                                     gamma)
    term = (p(t_c, omega_tilde, gamma) * math.exp(-t_p * gamma)
            * -math.expm1(-2.0 * t_e * gamma))
    total = 0.0
    for terms in range(1, max_terms + 1):
        total += term
        term *= ratio
        if term < cutoff * total:
            break
    return total, terms


def rk4_master_oracle(initial: tuple, omega_tilde: float, gamma: float,
                      t_end: float, n_steps: int) -> tuple:
    """Classical RK4 on the six complex master equations, step by step.

    ``initial`` is (p_e, p_g, p_v, c_eg, c_ev, c_gv).  Each of the
    ``n_steps`` equal steps of t_end/n_steps is taken in complex
    arithmetic straight from the equations; returns the sample times and
    an (n_steps + 1) x 9 array of p_e, p_g, p_v and the real and
    imaginary parts of c_eg, c_ev and c_gv.
    """
    h = t_end / n_steps if n_steps else 0.0
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

    def row(s):
        pe, pg, pv, ceg, cev, cgv = s
        return [pe.real, pg.real, pv.real, ceg.real, ceg.imag,
                cev.real, cev.imag, cgv.real, cgv.imag]

    y = tuple(complex(v) for v in initial)
    rows = [row(y)]
    for _ in range(n_steps):
        k1 = rhs(y)
        k2 = rhs(tuple(a + 0.5 * h * b for a, b in zip(y, k1)))
        k3 = rhs(tuple(a + 0.5 * h * b for a, b in zip(y, k2)))
        k4 = rhs(tuple(a + h * b for a, b in zip(y, k3)))
        y = tuple(a + (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                  for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4))
        rows.append(row(y))
    return [k * h for k in range(n_steps + 1)], np.array(rows)


def percent_csv_oracle(header: list, columns: list, precision: int) -> str:
    """CSV text with every row formatted by ``%``, one row at a time.

    Float columns are written as ``%.{precision-1}e`` and integer or
    boolean columns as ``%d``; the header line comes first and every line
    ends with a newline.
    """
    columns = [np.asarray(column) for column in columns]
    row_format = ",".join("%d" if column.dtype.kind in "biu"
                          else f"%.{precision - 1}e" for column in columns)
    lines = [",".join(header)]
    lines.extend(row_format % row
                 for row in zip(*(column.tolist() for column in columns)))
    return "\n".join(lines) + "\n"
