"""Physical constant table, unit conversions, and parameter resolution.

The internal unit system is CGS-Gaussian (erg, cm, s, g, esu, rad/s):
the field-per-photon expression (2*pi*hbar*omega/V)^(1/2) and the
dipole-dipole coefficient are Gaussian quantities, so no unit juggling
happens downstream.  All user-facing input is in lab units (nm, MHz,
amu, erg*Angstrom^3, mK) and is converted here exactly once.

Constant table (all values to at least 10 significant digits):

    C_LIGHT   2.99792458e10    cm/s      exact (SI definition)
    PLANCK_H  6.62607015e-27   erg*s     exact (SI definition, 1 J = 1e7 erg)
    HBAR      1.054571817e-27  erg*s     PLANCK_H / 2 pi
    AMU_G     1.66053906660e-24 g        CODATA 2018
    KB_ERG    1.380649e-16     erg/K     exact (SI definition)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import ConfigError

C_LIGHT = 2.99792458e10            # cm/s
PLANCK_H = 6.62607015e-27          # erg*s
HBAR = PLANCK_H / (2.0 * math.pi)  # 1.0545718176461565e-27 erg*s
AMU_G = 1.66053906660e-24          # g
KB_ERG = 1.380649e-16              # erg/K

ANG3_CM3 = 1.0e-24                 # cm^3 per Angstrom^3

#: Rb-85 atomic mass in amu; a documented default, overridable in config.
RB85_MASS_AMU = 84.911789738


@dataclass(frozen=True)
class HumanUnitsConfig:
    """Species input in lab units (the `species` config section).

    Exactly one of ``trap_depth_mk`` (temperature) or ``trap_depth_mhz``
    (the resonance-condition frequency 2*V0/h) must be given.
    """

    lambda_nm: float = 795.0
    gamma_a_mhz: float = 6.0       # Gamma_A / 2 pi
    mass_amu: float = RB85_MASS_AMU
    c3_erg_ang3: float = 1.1e-10
    trap_depth_mk: Optional[float] = 5.0
    trap_depth_mhz: Optional[float] = None   # 2*V0/h in MHz


@dataclass(frozen=True)
class PhysicalParams:
    """Resolved atomic and potential constants in CGS-Gaussian units.

    Immutable after construction; safe to share across threads.
    """

    omega_a: float      # atomic S -> P transition, rad/s
    gamma_a: float      # atomic decay rate, rad/s
    gamma_mol: float    # pair decay rate, exactly 2 * gamma_a
    mass_atom: float    # g
    mu: float           # reduced mass of the identical pair, exactly mass/2
    c3: float           # erg*cm^3
    trap_depth: float   # erg


def _require_positive(name: str, value: Optional[float], *,
                      allow_zero: bool = False) -> float:
    if value is None:
        raise ConfigError(f"{name} is missing")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    value = float(value)   # inf and NaN are refused once converted
    if value < 0.0 or (value == 0.0 and not allow_zero):
        raise ConfigError(f"{name} must be positive, got {value!r}")
    return value


def resolve_params(config: HumanUnitsConfig, *,
                   allow_zero_gamma: bool = False) -> PhysicalParams:
    """Convert lab-unit species input to internal CGS values.

    ``allow_zero_gamma`` admits gamma_a_mhz = 0 for decay-free dynamics
    runs and self-validation; all else must be finite and > 0, in CGS too.
    """
    lambda_nm = _require_positive("species.lambda_nm", config.lambda_nm)
    gamma_a_mhz = _require_positive("species.gamma_a_mhz", config.gamma_a_mhz,
                                    allow_zero=allow_zero_gamma)
    mass_amu = _require_positive("species.mass_amu", config.mass_amu)
    c3_erg_ang3 = _require_positive("species.c3_erg_ang3", config.c3_erg_ang3)

    if config.trap_depth_mk is not None and config.trap_depth_mhz is not None:
        raise ConfigError(
            "species.trap_depth_mk and species.trap_depth_mhz are exclusive")
    if config.trap_depth_mk is not None:
        trap_key = "species.trap_depth_mk"
        trap_given = _require_positive(trap_key, config.trap_depth_mk)
        trap_depth = trap_given * 1.0e-3 * KB_ERG
    else:
        trap_key = "species.trap_depth_mhz"
        trap_given = _require_positive(trap_key, config.trap_depth_mhz)
        # stored value is V0; the input is the frequency 2*V0/h
        trap_depth = 0.5 * PLANCK_H * trap_given * 1.0e6

    lambda_cm = lambda_nm * 1.0e-7
    gamma_a = 2.0 * math.pi * gamma_a_mhz * 1.0e6
    mass_atom = mass_amu * AMU_G
    params = PhysicalParams(
        omega_a=2.0 * math.pi * C_LIGHT / lambda_cm if lambda_cm else math.inf,
        gamma_a=gamma_a, gamma_mol=2.0 * gamma_a, mass_atom=mass_atom,
        mu=mass_atom / 2.0, c3=c3_erg_ang3 * ANG3_CM3, trap_depth=trap_depth)
    # a lab-unit value can leave the float range in CGS (1e-320 nm is 0 cm);
    # only a gamma_a_mhz of 0, admitted above, may resolve to 0
    for key, given, value in (
            ("species.lambda_nm", lambda_nm, params.omega_a),
            ("species.gamma_a_mhz", gamma_a_mhz, params.gamma_mol),
            ("species.mass_amu", mass_amu, params.mu),
            ("species.c3_erg_ang3", c3_erg_ang3, params.c3),
            (trap_key, trap_given, trap_depth)):
        if not (0.0 < value < math.inf or value == given == 0.0):
            raise ConfigError(f"{key} must be finite and stay in the "
                              f"floating-point range in CGS units, got "
                              f"{given!r}")
    return params


def to_human_units(params: PhysicalParams) -> HumanUnitsConfig:
    """Invert :func:`resolve_params`; round-trips to 12 significant digits."""
    return HumanUnitsConfig(
        lambda_nm=2.0 * math.pi * C_LIGHT / params.omega_a / 1.0e-7,
        gamma_a_mhz=params.gamma_a / (2.0 * math.pi * 1.0e6),
        mass_amu=params.mass_atom / AMU_G,
        c3_erg_ang3=params.c3 / ANG3_CM3,
        trap_depth_mk=params.trap_depth / (1.0e-3 * KB_ERG),
        trap_depth_mhz=None,
    )
