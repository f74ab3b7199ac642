"""Excited-state dipole-dipole potential and the resonance geometry.

The attractive pair potential is U(R) = -C3/R^3.  A red-detuned cavity
mode at omega_c = omega_a + delta (delta < 0) is resonant with the
R-dependent pair splitting at the Condon radius R_C, where
C3/R_C^3 = hbar*|delta|.  The coupling stays effective until the
splitting has walked off resonance by the collective Rabi frequency,
which defines the escape radius R_e = R_C * (1 + Omega~/|delta|)^(-1/3).

The potential, the radii, the slope and the resonance geometry are
elementwise over detunings and radii (see :mod:`cavloss.grid`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import HBAR, PhysicalParams
from .grid import as_grid, like, red_detuning, refuse


@dataclass(frozen=True)
class ResonanceGeometry:
    """Radii bracketing the resonant region, floats or one array each."""

    detuning: float    # rad/s, negative
    r_condon: float    # cm
    r_escape: float    # cm
    r_ratio: float     # r_escape / r_condon, in (0, 1]


def u_dd(r, params: PhysicalParams):
    """Dipole-dipole potential -C3/r^3 (erg, negative)."""
    grid = as_grid(r)
    refuse(grid <= 0.0, grid,
           "internuclear distance must be positive, got {!r}")
    return like(-params.c3 / grid**3, r)


def condon_radius(delta, params: PhysicalParams):
    """Radius where the mode is resonant: (C3/(hbar*|delta|))^(1/3) (cm)."""
    grid = red_detuning(delta)
    return like((params.c3 / (HBAR * np.abs(grid))) ** (1.0 / 3.0), delta)


def escape_ratio(delta, omega_tilde):
    """R_e/R_C = (1 + omega_tilde/|delta|)^(-1/3); omega_tilde = 0 gives 1."""
    grid = red_detuning(delta)
    omega = as_grid(omega_tilde)
    refuse(omega < 0.0, omega,
           "collective Rabi frequency must be >= 0, got {!r}")
    return like((1.0 + omega / np.abs(grid)) ** (-1.0 / 3.0),
                delta, omega_tilde)


def potential_slope(r, params: PhysicalParams):
    """|U'(r)| = 3*C3/r^4 (erg/cm); equals 3*hbar*|delta|/R_C at r = R_C."""
    grid = as_grid(r)
    refuse(grid <= 0.0, grid,
           "internuclear distance must be positive, got {!r}")
    return like(3.0 * params.c3 / grid**4, r)


def resonance_geometry(delta, omega_tilde,
                       params: PhysicalParams) -> ResonanceGeometry:
    """Bundle Condon and escape radii, elementwise over detunings."""
    r_condon = condon_radius(delta, params)
    ratio = escape_ratio(delta, omega_tilde)
    r_escape = r_condon * ratio
    radius = as_grid(r_escape)   # NaN is refused too
    refuse(~((0.0 < radius) & (radius <= r_condon)), radius,
           "requires 0 < r_escape <= r_condon, got r_escape={!r} cm")
    return ResonanceGeometry(detuning=delta, r_condon=r_condon,
                             r_escape=r_escape, r_ratio=ratio)
