"""Collective Rabi oscillations in cold-collision trap loss.

Computes the detuning-resolved trap-loss probability of cold atom pairs
colliding inside a high-Q optical resonator, together with every
intermediate quantity: Condon and escape radii, classical in-fall time
scales, the collective coupling, the dissipative three-state dynamics,
and the multiple-passage loss with and without the cavity mode.
"""

from .cavity import (CavityConfig, CouplingPoint, atomic_dipole,
                     collective_rabi, coupling, field_per_photon,
                     landau_zener, mode_geometry, molecular_dipole,
                     pair_count, single_rabi)
from .constants import (HBAR, HumanUnitsConfig, PhysicalParams,
                        resolve_params, to_human_units)
from .dynamics import (EXCITED_STATE, RabiRegime, ReducedState,
                       integrate_grid, integrate_master, master_rhs,
                       max_stable_dt, p_omega_analytic, p_omega_approx,
                       rabi_regime)
from .errors import (CavlossError, ConfigError, DivergenceError, DomainError,
                     StepSizeError)
from .kinematics import (CollisionTimes, collision_times, fraction_f,
                         g0_constant, phase_exceeds_single_cycle, total_time)
from .potential import (ResonanceGeometry, condon_radius, escape_radius,
                        escape_ratio, omega_r, potential_slope,
                        resonance_geometry, u_dd)
from .traploss import (DEFAULT_WINDOW_MHZ, LossGrid, LossPoint, P_MODELS,
                       in_default_window, loss_closed_form, loss_grid,
                       loss_no_cavity, loss_point, loss_series, scan_detuning,
                       scan_grid, single_passage_loss)

__version__ = "0.1.0"

__all__ = [
    "CavityConfig", "CavlossError", "CollisionTimes", "ConfigError",
    "CouplingPoint", "DEFAULT_WINDOW_MHZ", "DivergenceError", "DomainError",
    "EXCITED_STATE", "HBAR", "HumanUnitsConfig", "LossGrid", "LossPoint",
    "P_MODELS",
    "PhysicalParams", "RabiRegime", "ReducedState", "ResonanceGeometry",
    "StepSizeError", "atomic_dipole", "collective_rabi", "collision_times",
    "condon_radius", "coupling", "escape_radius", "escape_ratio",
    "field_per_photon", "fraction_f", "g0_constant", "in_default_window",
    "integrate_grid", "integrate_master", "landau_zener", "loss_closed_form",
    "loss_grid", "loss_no_cavity", "loss_point", "loss_series", "master_rhs",
    "max_stable_dt", "mode_geometry", "molecular_dipole", "omega_r",
    "p_omega_analytic", "p_omega_approx", "pair_count",
    "phase_exceeds_single_cycle", "potential_slope", "rabi_regime",
    "resolve_params", "resonance_geometry", "scan_detuning", "scan_grid",
    "single_passage_loss", "single_rabi", "to_human_units", "total_time",
    "u_dd",
]
