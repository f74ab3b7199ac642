"""Collective Rabi oscillations in cold-collision trap loss.

Computes the detuning-resolved trap-loss probability of cold atom pairs
colliding inside a high-Q optical resonator, together with every
intermediate quantity: Condon and escape radii, classical in-fall time
scales, the collective coupling, the dissipative three-state dynamics,
and the multiple-passage loss with and without the cavity mode.
"""

from .cavity import (CavityConfig, CouplingPoint, atomic_dipole, coupling,
                     field_per_photon, landau_zener, mode_geometry,
                     molecular_dipole, pair_count, single_rabi)
from .constants import (HBAR, HumanUnitsConfig, PhysicalParams,
                        resolve_params, to_human_units)
from .dynamics import (EXCITED_STATE, integrate_grid, max_stable_dt,
                       p_omega_analytic, p_omega_approx)
from .errors import (CavlossError, ConfigError, DivergenceError, DomainError,
                     StepSizeError)
from .kinematics import (CollisionTimes, collision_times, fraction_f,
                         g0_constant, total_time)
from .potential import (ResonanceGeometry, condon_radius, escape_ratio,
                        potential_slope, resonance_geometry, u_dd)
from .traploss import (DEFAULT_WINDOW_MHZ, LossPoint, P_MODELS,
                       in_default_window, loss_closed_form, loss_grid,
                       loss_no_cavity, loss_point, loss_series,
                       single_passage_loss)

__version__ = "0.1.0"

__all__ = [
    "CavityConfig", "CavlossError", "CollisionTimes", "ConfigError",
    "CouplingPoint", "DEFAULT_WINDOW_MHZ", "DivergenceError", "DomainError",
    "EXCITED_STATE", "HBAR", "HumanUnitsConfig", "LossPoint", "P_MODELS",
    "PhysicalParams", "ResonanceGeometry", "StepSizeError", "atomic_dipole",
    "collision_times", "condon_radius", "coupling", "escape_ratio",
    "field_per_photon", "fraction_f", "g0_constant", "in_default_window",
    "integrate_grid", "landau_zener", "loss_closed_form", "loss_grid",
    "loss_no_cavity", "loss_point", "loss_series", "max_stable_dt",
    "mode_geometry", "molecular_dipole", "p_omega_analytic", "p_omega_approx",
    "pair_count", "potential_slope", "resolve_params", "resonance_geometry",
    "single_passage_loss", "single_rabi", "to_human_units", "total_time",
    "u_dd",
]
