"""Coupling chain from resonator geometry to the collective Rabi frequency.

mode geometry -> field per photon -> molecular dipole -> single
quasimolecule Rabi frequency Omega -> resonant pair count N(delta) ->
collective coupling Omega~(delta) = Omega * sqrt(N), plus the
Landau-Zener estimate of the excitation probability at the crossing.

Two coupling modes are supported:

* ``anchored`` (default): Omega~(delta) = ref * |delta_ref/delta|, pinned
  to a reference point.  This is the 1/|delta| scaling that sqrt(N)
  implies, anchored so the trap-depth resonance condition holds at the
  reference detuning.
* ``microscopic``: Omega~ built from the geometry and gas parameters as
  Omega * sqrt(N(delta)); used for consistency checks.

The mode frequency is not configured: it tracks the scan point as
omega_c = omega_a + delta.  Every quantity that depends on the detuning
or the mode frequency is elementwise over grids (see :mod:`cavloss.grid`);
:func:`coupling` returns Omega, N and Omega~ as one :class:`CouplingPoint`
of floats or arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .constants import C_LIGHT, HBAR, PhysicalParams
from .errors import ConfigError, DomainError
from .grid import as_grid, like, red_detuning, refuse
from .potential import condon_radius, potential_slope

#: fixed orientation/mode-profile average <|f_c|^2><|eps.e|^2> = 1/6
ORIENTATION_AVERAGE = 1.0 / 6.0

COUPLING_MODES = ("anchored", "microscopic")


@dataclass(frozen=True)
class CavityConfig:
    """Resonator geometry, gas parameters, and the coupling model."""

    length: float                        # mirror separation, cm
    n_atoms_total: float                 # N_A
    density: float                       # n_A, cm^-3
    coupling_mode: str = "anchored"
    omega_tilde_ref: Optional[float] = None   # rad/s, anchored mode
    delta_ref: Optional[float] = None         # rad/s (< 0), anchored mode

    def __post_init__(self):
        for name, value in (("length_cm", self.length),
                            ("n_atoms", self.n_atoms_total),
                            ("density_cm3", self.density)):
            if not value > 0.0:   # NaN too
                raise ConfigError(
                    f"cavity.{name} must be positive, got {value!r}")
        # the mode volume is pi*c*length^2/omega_c
        if not 0.0 < self.length * self.length < math.inf:
            raise ConfigError("cavity.length_cm squared leaves the "
                              f"floating-point range, got {self.length!r}")
        if math.isinf(self.n_atoms_total * self.density):
            raise ConfigError(
                "cavity.n_atoms * cavity.density_cm3 leaves the floating-point "
                f"range, got {self.n_atoms_total!r} * {self.density!r}")
        if self.coupling_mode not in COUPLING_MODES:
            raise ConfigError(
                f"coupling.mode must be one of {COUPLING_MODES}, "
                f"got {self.coupling_mode!r}")
        if self.coupling_mode == "anchored":
            for name, value, sign in (
                    ("omega_tilde_ref_mhz", self.omega_tilde_ref, 1.0),
                    ("delta_ref_mhz", self.delta_ref, -1.0)):
                if value is None or not 0.0 < sign * value < math.inf:
                    raise ConfigError(
                        f"coupling.{name} must be finite and "
                        f"{'positive' if sign > 0.0 else 'negative'} in "
                        f"anchored mode, got {value!r} rad/s")


class CouplingPoint(NamedTuple):
    """Coupling quantities, as floats or as one array each."""

    omega_single: float   # averaged single quasimolecule Rabi frequency, rad/s
    n_pairs: float        # resonant pair count N
    omega_tilde: float    # collective Rabi frequency, rad/s


def mode_geometry(omega_c, config: CavityConfig):
    """Gaussian mode waist w0 = sqrt(c*l/omega_c) (cm) and volume pi*w0^2*l (cm^3)."""
    omega = as_grid(omega_c)
    # omega_c tracks the detuning, so a detuning past the transition lands here
    refuse(omega <= 0.0, omega,
           "detuning past the atomic transition: the mode frequency "
           "omega_a + delta must be positive, got {!r} rad/s")
    waist = np.sqrt(C_LIGHT * config.length / omega)
    volume = math.pi * waist**2 * config.length
    return like(waist, omega_c), like(volume, omega_c)


def field_per_photon(omega, volume):
    """Vacuum field amplitude (2*pi*hbar*omega/V)^(1/2), (erg/cm^3)^(1/2)."""
    omega_grid, volume_grid = as_grid(omega), as_grid(volume)
    refuse(omega_grid <= 0.0, omega_grid,
           "mode frequency must be positive, got {!r} rad/s")
    refuse(volume_grid <= 0.0, volume_grid,
           "mode volume must be positive, got {!r} cm^3")
    return like(np.sqrt(2.0 * math.pi * HBAR * omega_grid / volume_grid),
                omega, volume)


def atomic_dipole(params: PhysicalParams) -> float:
    """Atomic dipole moment from the decay rate, esu*cm.

    Inverts Gamma_A = 4*d_A^2*omega_a^3/(3*hbar*c^3); the pair transition
    dipole is sqrt(2) times this.
    """
    return math.sqrt(3.0 * HBAR * C_LIGHT**3 * params.gamma_a
                     / (4.0 * params.omega_a**3))


def molecular_dipole(params: PhysicalParams) -> float:
    """Pair transition dipole sqrt(2)*d_A, esu*cm."""
    return math.sqrt(2.0) * atomic_dipole(params)


def single_rabi(omega_c, config: CavityConfig, params: PhysicalParams):
    """Orientation-averaged single quasimolecule Rabi frequency (rad/s)."""
    _, volume = mode_geometry(omega_c, config)
    field = field_per_photon(omega_c, volume)
    return (field * molecular_dipole(params)
            * math.sqrt(ORIENTATION_AVERAGE) / HBAR)


def pair_count(delta, config: CavityConfig, params: PhysicalParams):
    """Number of pairs resonant within a linewidth of the Condon radius.

    N(delta) = N_A * n_A * (2*pi*C3 / (3*hbar*Gamma)) * (Gamma/delta)^2,
    an order-of-magnitude count that scales as delta^-2.  It diverges
    without decay, so a decay-free species is refused.
    """
    grid = red_detuning(delta)
    gamma = params.gamma_mol
    if gamma <= 0.0:
        raise ConfigError(
            "species.gamma_a_mhz must be positive with coupling.mode "
            "'microscopic': the resonant pair count scales as 1/Gamma_mol")
    return like(config.n_atoms_total * config.density
                * (2.0 * math.pi * params.c3 / (3.0 * HBAR * gamma))
                * (gamma / grid) ** 2, delta)


def coupling(delta, config: CavityConfig,
             params: PhysicalParams) -> CouplingPoint:
    """The collective coupling, elementwise over detunings.

    The mode frequency tracks the scan point: omega_c = omega_a + delta.
    In anchored mode the pair count N is back-filled from omega_tilde.
    """
    grid = red_detuning(delta)
    omega_single = single_rabi(params.omega_a + grid, config, params)
    if config.coupling_mode == "microscopic":
        n_pairs = pair_count(grid, config, params)
        omega_tilde = omega_single * np.sqrt(n_pairs)
    else:
        omega_tilde = config.omega_tilde_ref * np.abs(config.delta_ref / grid)
        # dipole (and Omega) vanish in the decay-free limit; the implied
        # pair count is then unbounded rather than an error
        n_pairs = np.divide(omega_tilde, omega_single,
                            where=omega_single > 0.0,
                            out=np.full_like(omega_tilde, math.inf)) ** 2
    return CouplingPoint(omega_single=like(omega_single, delta),
                         n_pairs=like(n_pairs, delta),
                         omega_tilde=like(omega_tilde, delta))


def landau_zener(delta, omega_tilde, v_inf: float, params: PhysicalParams):
    """Excitation probability 1 - exp(-2*pi*Dt) at the Condon crossing.

    Dt = hbar*omega_tilde^2 / (v_inf * |U'(R_C)|).  With the shipped
    couplings Dt >> 1 and the probability saturates near one; it is
    reported separately and never multiplied into the loss curves.
    """
    if v_inf <= 0.0:
        raise DomainError(f"asymptotic velocity must be positive, got {v_inf!r}")
    omega = as_grid(omega_tilde)
    refuse(omega < 0.0, omega,
           "collective Rabi frequency must be >= 0, got {!r}")
    slope = potential_slope(condon_radius(delta, params), params)
    adiabaticity = HBAR * omega**2 / (v_inf * slope)
    return like(-np.expm1(-2.0 * math.pi * adiabaticity), delta, omega_tilde)
