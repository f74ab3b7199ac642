"""Print the two polynomial fits that evaluate the in-fall integral.

Usage, from the repository root::

    python3 scripts/infall_coefficients.py          # print the literals
    python3 scripts/infall_coefficients.py --check  # and compare them

:mod:`cavloss.kinematics` writes the in-fall integral
I(r) = integral_r^1 du/sqrt(u^-3 - 1) in two forms,

    tail, r >= 1/2:  I(r) = sqrt(y) * P(y),                   y = 1 - r,
    head, r <  1/2:  I(r) = g0 - r*r*sqrt(r) * Q(w),          w = r^3,

where both P and Q are analytic and are given as integrals over [0, 1]
with smooth integrands (u = 1 - y*t^2 for P, u = r*t^2 for Q):

    P(y) = integral_0^1 2*(1 - y*t^2)^(3/2) / sqrt(3 - 3*y*t^2 + y^2*t^4) dt,
    Q(w) = integral_0^1 2*t^4 / sqrt(1 - w*t^6) dt.

This script fits P on 0 <= y <= 1/2 and Q on 0 <= w <= 1/8 by Chebyshev
interpolation (near-minimax, Trefethen, *Approximation Theory and
Approximation Practice*, SIAM 2013), converts each fit to monomial
coefficients, highest power first, and prints them as the literal tuples
``_TAIL`` and ``_HEAD`` of :mod:`cavloss.kinematics`.

With mpmath (40 digits, ``mpmath.chebyfit`` on ``mpmath.quad``) the output
is the literals to the bit, and ``--check`` exits 1 if they differ.
Without mpmath (it is not a dependency of cavloss) the fit is made in
float64 with numpy alone: the integrands on 8 panels of numpy's 14-node
Gauss-Legendre rule, interpolation at the Chebyshev points, and an exact
change to monomials.  Those polynomials agree with the literals to about
1e-15 on their intervals, but their leading coefficients do not: T_15(4y - 1)
has a lead of 2^44, so a 1e-16 change in the fit moves them by ~1e-3.
"""

from __future__ import annotations

import argparse
import sys
import textwrap
from pathlib import Path

import numpy as np

KINEMATICS = Path(__file__).resolve().parent.parent / "src" / "cavloss" \
    / "kinematics.py"

#: (name, what is fitted, interval upper end, degree); every interval starts at 0
FITS = (("_TAIL", "P(y)", 0.5, 15),
        ("_HEAD", "Q(w)", 0.125, 9))


def _tail_integrand(x, t):
    s2 = x * t * t
    return 2.0 * (1.0 - s2) ** 1.5 / (3.0 - 3.0 * s2 + s2 * s2) ** 0.5


def _head_integrand(x, t):
    t2 = t * t
    return 2.0 * t2 * t2 / (1.0 - x * t2 * t2 * t2) ** 0.5


INTEGRANDS = {"_TAIL": _tail_integrand, "_HEAD": _head_integrand}


def fit_mpmath(name: str, upper: float, degree: int) -> list:
    import mpmath

    mpmath.mp.dps = 40
    integrand = INTEGRANDS[name]
    coefficients, _ = mpmath.chebyfit(
        lambda x: mpmath.quad(lambda t: integrand(x, t), [0, 1]),
        [0, mpmath.mpf(upper)], degree + 1, error=True)
    return [float(c) for c in coefficients]


def fit_numpy(name: str, upper: float, degree: int) -> list:
    from fractions import Fraction

    from numpy.polynomial.legendre import leggauss

    # 8 panels of 14 nodes: numpy's leggauss(40) nodes leave ~2e-15
    nodes, weights = leggauss(14)
    t = ((nodes[None, :] + 1.0) / 16.0 + np.arange(8)[:, None] / 8.0).ravel()
    w = np.tile(weights / 16.0, 8)
    # interpolate at the n Chebyshev points z_j = cos(pi*(2j+1)/(2n)); each
    # cos(pi*k*(2j+1)/(2n)) is taken once, from its angle modulo 2*pi, as a
    # recurrence for T_k (numpy's chebvander) leaves ~1e-14 in c_13
    n = degree + 1
    odd = 2 * np.arange(n) + 1
    z = np.cos(np.pi * odd / (2 * n))
    values = INTEGRANDS[name](0.5 * upper * (z[:, None] + 1.0), t) @ w
    turns = np.arange(n)[:, None] * odd % (4 * n)
    coef = (2.0 / n) * (np.cos(np.pi * turns / (2 * n)) @ values)
    coef[0] /= 2.0
    # the change to monomials is made in exact arithmetic and rounded once:
    # in float64 it would cost ~1e-14, T_15(4y - 1) having a 2^44 lead
    shift = [Fraction(-1), 2 / Fraction(upper)]   # z = 2*x/upper - 1
    basis = [[Fraction(1)], shift]
    while len(basis) <= degree:   # T_(k+1) = 2*z*T_k - T_(k-1)
        last, before = basis[-1], basis[-2]
        step = [2 * shift[0] * a for a in last] + [Fraction(0)]
        for k, a in enumerate(last):
            step[k + 1] += 2 * shift[1] * a
        for k, a in enumerate(before):
            step[k] -= a
        basis.append(step)
    total = [Fraction(0)] * (degree + 1)
    for c, chebyshev in zip(coef.tolist(), basis):
        for k, a in enumerate(chebyshev):
            total[k] += Fraction(c) * a
    return [float(c) for c in reversed(total)]


def literal(name: str, what: str, upper: float, degree: int,
            coefficients: list) -> str:
    comment = (f"#: {what} on 0 <= {what[2]} <= {upper}, degree {degree}, "
               "highest power first")
    body = textwrap.fill(", ".join(map(repr, coefficients)) + ")", width=79,
                         initial_indent=f"{name} = (",
                         subsequent_indent=" " * len(f"{name} = ("))
    return f"{comment}\n{body}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless the output is found verbatim in "
                             "src/cavloss/kinematics.py")
    args = parser.parse_args()
    try:
        import mpmath  # noqa: F401
        fit = fit_mpmath
    except ImportError:
        fit = fit_numpy
    text = "\n".join(literal(name, what, upper, degree,
                             fit(name, upper, degree))
                     for name, what, upper, degree in FITS)
    print(text)
    if args.check and text not in KINEMATICS.read_text(encoding="utf-8"):
        print(f"differs from the literals in {KINEMATICS}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
