"""Command-line interface: config ingestion, five commands, CSV output.

Commands
    constants   resolved parameter report as key=value lines
    times       collision time scales at one detuning (CSV row)
    dynamics    master-equation time series vs the closed form (CSV)
    scan        detuning scan of the trap-loss probabilities (CSV)
    validate    run the cross-module invariant suite

Configuration is a JSON document with sections ``species``, ``cavity``,
``coupling``, ``scan`` and ``output``; every key has a default that
reproduces the shipped Rb-85 preset, and command-line flags override
file values.  No environment variables are consulted.

Schema (defaults in parentheses)::

    species:  mass_amu (84.911789738), lambda_nm (795.0),
              gamma_a_mhz (6.0), c3_erg_ang3 (1.1e-10),
              trap_depth_mk (5.0) | trap_depth_mhz (exclusive)
    cavity:   length_cm (1.0), n_atoms (2.0e9), density_cm3 (4.0e13)
    coupling: mode ("anchored"), omega_tilde_ref_mhz (200.0),
              delta_ref_mhz (-350.0), v_inf_cm_s (12.0)
    scan:     from_mhz (-1000.0), to_mhz (-350.0), points (200),
              p_model ("approx"), allow_out_of_window (false),
              include_p_excite (false)
    output:   path (null = stdout), precision (12 significant digits, 6..17)

All numeric CSV fields are written in scientific notation at the
configured precision; identical configs produce byte-identical output.
Diagnostics go to stderr only.  Exit status: 0 on success, 1 for a
failed validation suite, 2 for configuration or domain errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import cavity as cavity_mod
from . import dynamics as dynamics_mod
from . import kinematics as kinematics_mod
from . import potential as potential_mod
from . import traploss as traploss_mod
from .constants import (HBAR, HumanUnitsConfig, PhysicalParams,
                        resolve_params, to_human_units)
from .errors import CavlossError, ConfigError, DomainError

TWO_PI_MHZ = 2.0 * math.pi * 1.0e6   # rad/s per MHz


@dataclass(frozen=True)
class RunConfig:
    """Fully merged run configuration (file defaults + overrides)."""

    species: HumanUnitsConfig
    cavity_length_cm: float
    cavity_n_atoms: float
    cavity_density_cm3: float
    coupling_mode: str
    omega_tilde_ref_mhz: float
    delta_ref_mhz: float
    v_inf_cm_s: float
    scan_from_mhz: float
    scan_to_mhz: float
    scan_points: int
    scan_p_model: str
    scan_allow_out_of_window: bool
    scan_include_p_excite: bool
    output_path: Optional[str]
    output_precision: int


_DEFAULTS: dict = {
    "species": {
        "mass_amu": 84.911789738,
        "lambda_nm": 795.0,
        "gamma_a_mhz": 6.0,
        "c3_erg_ang3": 1.1e-10,
        "trap_depth_mk": 5.0,
        "trap_depth_mhz": None,
    },
    "cavity": {
        "length_cm": 1.0,
        "n_atoms": 2.0e9,
        "density_cm3": 4.0e13,
    },
    "coupling": {
        "mode": "anchored",
        "omega_tilde_ref_mhz": 200.0,
        "delta_ref_mhz": -350.0,
        "v_inf_cm_s": 12.0,
    },
    "scan": {
        "from_mhz": -1000.0,
        "to_mhz": -350.0,
        "points": 200,
        "p_model": "approx",
        "allow_out_of_window": False,
        "include_p_excite": False,
    },
    "output": {
        "path": None,
        "precision": 12,
    },
}


def _merge_config(document: dict, overrides: dict) -> dict:
    merged = {section: dict(keys) for section, keys in _DEFAULTS.items()}
    if not isinstance(document, dict):
        raise ConfigError("config document must be a JSON object")
    for section, keys in document.items():
        if section not in merged:
            raise ConfigError(f"unknown config section {section!r}")
        if not isinstance(keys, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        for key, value in keys.items():
            if key not in merged[section]:
                raise ConfigError(f"unknown config key {section}.{key}")
            merged[section][key] = value
    # an explicit trap_depth_mhz supersedes the default trap_depth_mk
    species = document.get("species", {})
    if "trap_depth_mhz" in species and species["trap_depth_mhz"] is not None \
            and "trap_depth_mk" not in species:
        merged["species"]["trap_depth_mk"] = None
    for (section, key), value in overrides.items():
        merged[section][key] = value
    return merged


def _number(section: str, key: str, value, *, integer: bool = False) -> float:
    kind = "an integer" if integer else "a finite number"
    try:
        valid = (not isinstance(value, bool) and math.isfinite(value)
                 and (not integer or float(value).is_integer()))
    except (TypeError, OverflowError):   # not a number, or beyond a double
        valid = False
    if not valid:
        raise ConfigError(f"{section}.{key} must be {kind}, got {value!r}")
    return int(value) if integer else float(value)


def build_run_config(document: Optional[dict] = None,
                     overrides: Optional[dict] = None) -> RunConfig:
    """Validate a config document with (section, key) -> value overrides."""
    raw = _merge_config(document or {}, overrides or {})
    species = HumanUnitsConfig(
        lambda_nm=raw["species"]["lambda_nm"],
        gamma_a_mhz=raw["species"]["gamma_a_mhz"],
        mass_amu=raw["species"]["mass_amu"],
        c3_erg_ang3=raw["species"]["c3_erg_ang3"],
        trap_depth_mk=raw["species"]["trap_depth_mk"],
        trap_depth_mhz=raw["species"]["trap_depth_mhz"],
    )
    scan = raw["scan"]
    from_mhz = _number("scan", "from_mhz", scan["from_mhz"])
    to_mhz = _number("scan", "to_mhz", scan["to_mhz"])
    points = _number("scan", "points", scan["points"], integer=True)
    if not (from_mhz < to_mhz < 0.0):
        raise ConfigError(
            "scan.from_mhz < scan.to_mhz < 0 required, got "
            f"{from_mhz!r} .. {to_mhz!r}")
    if points < 2:
        raise ConfigError(f"scan.points must be >= 2, got {points!r}")
    if scan["p_model"] not in traploss_mod.P_MODELS:
        raise ConfigError(
            f"scan.p_model must be one of {sorted(traploss_mod.P_MODELS)}, "
            f"got {scan['p_model']!r}")
    if raw["coupling"]["mode"] not in cavity_mod.COUPLING_MODES:
        raise ConfigError(
            f"coupling.mode must be one of {cavity_mod.COUPLING_MODES}, "
            f"got {raw['coupling']['mode']!r}")
    precision = _number("output", "precision", raw["output"]["precision"],
                        integer=True)
    if not 6 <= precision <= 17:
        raise ConfigError(
            f"output.precision must be in 6..17, got {precision!r}")
    path = raw["output"]["path"]
    if path is not None and not isinstance(path, str):
        raise ConfigError(f"output.path must be a string, got {path!r}")
    return RunConfig(
        species=species,
        cavity_length_cm=_number("cavity", "length_cm",
                                 raw["cavity"]["length_cm"]),
        cavity_n_atoms=_number("cavity", "n_atoms", raw["cavity"]["n_atoms"]),
        cavity_density_cm3=_number("cavity", "density_cm3",
                                   raw["cavity"]["density_cm3"]),
        coupling_mode=raw["coupling"]["mode"],
        omega_tilde_ref_mhz=_number("coupling", "omega_tilde_ref_mhz",
                                    raw["coupling"]["omega_tilde_ref_mhz"]),
        delta_ref_mhz=_number("coupling", "delta_ref_mhz",
                              raw["coupling"]["delta_ref_mhz"]),
        v_inf_cm_s=_number("coupling", "v_inf_cm_s",
                           raw["coupling"]["v_inf_cm_s"]),
        scan_from_mhz=from_mhz,
        scan_to_mhz=to_mhz,
        scan_points=points,
        scan_p_model=scan["p_model"],
        scan_allow_out_of_window=bool(scan["allow_out_of_window"]),
        scan_include_p_excite=bool(scan["include_p_excite"]),
        output_path=path,
        output_precision=precision,
    )


def load_config(path: Optional[str],
                overrides: Optional[dict] = None) -> RunConfig:
    if path is None:
        return build_run_config({}, overrides)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    return build_run_config(document, overrides)


def cavity_config(cfg: RunConfig, params: PhysicalParams) -> cavity_mod.CavityConfig:
    return cavity_mod.CavityConfig(
        length=cfg.cavity_length_cm,
        omega_c=params.omega_a + cfg.delta_ref_mhz * TWO_PI_MHZ,
        n_atoms_total=cfg.cavity_n_atoms,
        density=cfg.cavity_density_cm3,
        coupling_mode=cfg.coupling_mode,
        omega_tilde_ref=cfg.omega_tilde_ref_mhz * TWO_PI_MHZ,
        delta_ref=cfg.delta_ref_mhz * TWO_PI_MHZ,
    )


def _sci(value: float, precision: int) -> str:
    return f"{value:.{precision - 1}e}"


def _csv(header: list[str], rows: list[list[str]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands


def cmd_constants(cfg: RunConfig) -> str:
    """Key=value report of every resolved quantity."""
    params = resolve_params(cfg.species)
    cav = cavity_config(cfg, params)
    waist, volume = cavity_mod.mode_geometry(cav)
    d_atom = cavity_mod.atomic_dipole(params)
    omega_single = cavity_mod.single_rabi(cav, params)
    lines = [
        f"omega_a_rad_s={params.omega_a!r}",
        f"gamma_a_rad_s={params.gamma_a!r}",
        f"gamma_mol_rad_s={params.gamma_mol!r}",
        f"mass_atom_g={params.mass_atom!r}",
        f"mu_g={params.mu!r}",
        f"c3_erg_cm3={params.c3!r}",
        f"trap_depth_erg={params.trap_depth!r}",
        f"trap_resonant_omega_tilde_mhz="
        f"{2.0 * params.trap_depth / HBAR / TWO_PI_MHZ!r}",
        f"waist_um={waist * 1.0e4!r}",
        f"mode_volume_cm3={volume!r}",
        f"dipole_atomic_esu_cm={d_atom!r}",
        f"dipole_molecular_esu_cm={cavity_mod.molecular_dipole(params)!r}",
        f"field_per_photon_cgs={cavity_mod.field_per_photon(cav.omega_c, volume)!r}",
        f"omega_single_mhz={omega_single / TWO_PI_MHZ!r}",
        f"coupling_mode={cfg.coupling_mode}",
    ]
    if cfg.coupling_mode == "microscopic":
        point = cavity_mod.collective_rabi(cav.delta_ref, cav, params)
        lines.append(f"n_pairs_at_delta_ref={point.n_pairs!r}")
        lines.append(f"omega_tilde_at_delta_ref_mhz={point.omega_tilde / TWO_PI_MHZ!r}")
    return "\n".join(lines) + "\n"


TIMES_HEADER = ["delta_mhz", "r_condon_ang", "r_escape_ang", "t0_s", "f",
                "tc_s", "te_s", "phase_over_pi"]


def cmd_times(cfg: RunConfig, delta_mhz: float) -> str:
    """One CSV row of collision time scales at the given detuning."""
    if delta_mhz >= 0.0:
        raise DomainError(f"--delta-mhz must be negative, got {delta_mhz!r}")
    params = resolve_params(cfg.species)
    cav = cavity_config(cfg, params)
    delta = delta_mhz * TWO_PI_MHZ
    coupling = cavity_mod.collective_rabi(delta, cav, params)
    times = kinematics_mod.collision_times(delta, coupling.omega_tilde, params)
    phase = coupling.omega_tilde * times.t_resonant
    p = cfg.output_precision
    row = [
        _sci(delta_mhz, p),
        _sci(times.geometry.r_condon * 1.0e8, p),
        _sci(times.geometry.r_escape * 1.0e8, p),
        _sci(times.t_total, p),
        _sci(times.frac_resonant, p),
        _sci(times.t_resonant, p),
        _sci(times.t_escape_region, p),
        _sci(phase / math.pi, p),
    ]
    return _csv(TIMES_HEADER, [row])


DYNAMICS_HEADER = ["t_s", "p_e_numeric", "p_e_analytic", "p_g", "p_v",
                   "abs_err", "trace"]


def cmd_dynamics(cfg: RunConfig, delta_mhz: float,
                 t_max_s: Optional[float] = None,
                 dt_s: Optional[float] = None) -> str:
    """CSV time series of the integrated master equation at one detuning.

    gamma_a_mhz = 0 is accepted here (decay-free Rabi oscillation).
    """
    if delta_mhz >= 0.0:
        raise DomainError(f"--delta-mhz must be negative, got {delta_mhz!r}")
    params = resolve_params(cfg.species, allow_zero_gamma=True)
    cav = cavity_config(cfg, params)
    delta = delta_mhz * TWO_PI_MHZ
    omega_tilde = cavity_mod.collective_rabi(delta, cav, params).omega_tilde
    gamma = params.gamma_mol

    if t_max_s is None:
        if gamma > 0.0:
            t_max_s = 5.0 / gamma
        elif omega_tilde > 0.0:
            t_max_s = 5.0 * 2.0 * math.pi / omega_tilde
        else:
            raise ConfigError("--t-max-ns required when both rates are zero")
    if dt_s is None:
        dt_max = dynamics_mod.max_stable_dt(omega_tilde, gamma)
        if not math.isfinite(dt_max):
            raise ConfigError("--dt-ps required when both rates are zero")
        dt_s = dt_max / 10.0

    series = dynamics_mod.integrate_master(
        dynamics_mod.EXCITED_STATE, omega_tilde, gamma, t_max_s, dt_s)
    p = cfg.output_precision
    rows = []
    for t, state in series:
        analytic = dynamics_mod.p_omega_analytic(t, omega_tilde, gamma)
        rows.append([
            _sci(t, p),
            _sci(state.p_e, p),
            _sci(analytic, p),
            _sci(state.p_g, p),
            _sci(state.p_v, p),
            _sci(abs(state.p_e - analytic), p),
            _sci(state.trace, p),
        ])
    return _csv(DYNAMICS_HEADER, rows)


SCAN_HEADER = ["delta_mhz", "omega_tilde_mhz", "n_pairs", "rc_ang", "re_ang",
               "t0_s", "f", "tc_s", "te_s", "phase_over_pi", "loss_cavity",
               "loss_free"]


def cmd_scan(cfg: RunConfig) -> str:
    """CSV of the full detuning scan."""
    params = resolve_params(cfg.species)
    cav = cavity_config(cfg, params)
    deltas = [mhz * TWO_PI_MHZ for mhz in
              np.linspace(cfg.scan_from_mhz, cfg.scan_to_mhz, cfg.scan_points)]
    points = traploss_mod.scan_detuning(
        deltas, cav, params, cfg.scan_p_model,
        allow_out_of_window=cfg.scan_allow_out_of_window)

    header = list(SCAN_HEADER)
    if cfg.scan_include_p_excite:
        header.append("p_excite")
    if cfg.scan_allow_out_of_window:
        header.append("in_window")
    p = cfg.output_precision
    rows = []
    for point in points:
        row = [
            _sci(point.delta / TWO_PI_MHZ, p),
            _sci(point.omega_tilde / TWO_PI_MHZ, p),
            _sci(point.n_pairs, p),
            _sci(point.times.geometry.r_condon * 1.0e8, p),
            _sci(point.times.geometry.r_escape * 1.0e8, p),
            _sci(point.times.t_total, p),
            _sci(point.times.frac_resonant, p),
            _sci(point.times.t_resonant, p),
            _sci(point.times.t_escape_region, p),
            _sci(point.phase / math.pi, p),
            _sci(point.loss_cavity, p),
            _sci(point.loss_free, p),
        ]
        if cfg.scan_include_p_excite:
            row.append(_sci(cavity_mod.landau_zener(
                point.delta, point.omega_tilde, cfg.v_inf_cm_s, params), p))
        if cfg.scan_allow_out_of_window:
            row.append("1" if traploss_mod.in_default_window(point.delta) else "0")
        rows.append(row)
    return _csv(header, rows)


# ---------------------------------------------------------------------------
# validate


def _check_round_trip(params: PhysicalParams, species: HumanUnitsConfig) -> None:
    back = to_human_units(params)
    pairs = [
        ("lambda_nm", species.lambda_nm, back.lambda_nm),
        ("gamma_a_mhz", species.gamma_a_mhz, back.gamma_a_mhz),
        ("mass_amu", species.mass_amu, back.mass_amu),
        ("c3_erg_ang3", species.c3_erg_ang3, back.c3_erg_ang3),
    ]
    if species.trap_depth_mk is not None:
        pairs.append(("trap_depth_mk", species.trap_depth_mk, back.trap_depth_mk))
    for name, want, got in pairs:
        if want == 0.0 and got == 0.0:
            continue
        if abs(got - want) > 1.0e-12 * abs(want):
            raise AssertionError(f"{name} round-trip {want!r} -> {got!r}")


def _validation_checks(cfg: RunConfig) -> list[tuple[str, object]]:
    """Build the named invariant checks; each is a zero-arg callable."""
    params = resolve_params(cfg.species, allow_zero_gamma=True)
    cav = cavity_config(cfg, params)
    rng = np.random.default_rng(20250101)
    delta_samples = [-mhz * TWO_PI_MHZ for mhz in
                     rng.uniform(350.0, 1000.0, size=50)]
    delta_mid = 0.5 * (cfg.scan_from_mhz + cfg.scan_to_mhz) * TWO_PI_MHZ

    def resolve_strict():
        resolve_params(cfg.species)
        _check_round_trip(resolve_params(cfg.species), cfg.species)

    def resolve_deterministic():
        first = resolve_params(cfg.species, allow_zero_gamma=True)
        second = resolve_params(cfg.species, allow_zero_gamma=True)
        assert first == second, "two resolutions differ"

    def condon_condition():
        for delta in delta_samples:
            r_c = potential_mod.condon_radius(delta, params)
            value = potential_mod.u_dd(r_c, params)
            assert abs(value - HBAR * delta) <= 1.0e-12 * abs(HBAR * delta)

    def escape_offset():
        # compare the potential parts: the omega_a offsets cancel exactly
        # in algebra but would swamp the 1e-12 target in floating point
        for delta in delta_samples:
            omega_tilde = cavity_mod.collective_rabi(delta, cav, params).omega_tilde
            r_e, _ = potential_mod.escape_radius(delta, omega_tilde, params)
            r_c = potential_mod.condon_radius(delta, params)
            shift = (potential_mod.u_dd(r_e, params)
                     - potential_mod.u_dd(r_c, params)) / HBAR
            assert abs(shift + omega_tilde) <= 1.0e-12 * omega_tilde

    def condon_monotonic():
        radii = [potential_mod.condon_radius(d, params)
                 for d in sorted(delta_samples, reverse=True)]  # |delta| ascending
        assert all(a > b for a, b in zip(radii, radii[1:]))

    def g0_normalization():
        full = kinematics_mod.fraction_f(-1.0, 1.0e30)
        assert abs(full - 1.0) <= 1.0e-9, f"f(r->0) = {full!r}"

    def f_monotonic_in_coupling():
        omegas = np.linspace(0.0, 4.0 * abs(delta_mid), 20)
        values = [kinematics_mod.fraction_f(delta_mid, w) for w in omegas]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(a < b for a, b in zip(values, values[1:]))

    def t0_monotonic():
        times = [kinematics_mod.total_time(d, params)
                 for d in sorted(delta_samples, reverse=True)]
        assert all(a > b for a, b in zip(times, times[1:]))

    def phase_single_cycle():
        flagged = 0
        for delta in delta_samples:
            omega_tilde = cavity_mod.collective_rabi(delta, cav, params).omega_tilde
            times = kinematics_mod.collision_times(delta, omega_tilde, params)
            if kinematics_mod.phase_exceeds_single_cycle(
                    omega_tilde * times.t_resonant):
                flagged += 1
        # audit only: exceeding one cycle is expected near the window edge
        assert 0 <= flagged <= len(delta_samples)

    def coupling_identity():
        if cfg.coupling_mode == "microscopic":
            for delta in delta_samples:
                point = cavity_mod.collective_rabi(delta, cav, params)
                assert abs(point.omega_tilde**2 - point.n_pairs
                           * point.omega_single**2) \
                    <= 1.0e-12 * point.omega_tilde**2
        else:
            products = [cavity_mod.collective_rabi(d, cav, params).omega_tilde
                        * abs(d) for d in delta_samples]
            ref = products[0]
            assert all(abs(p - ref) <= 1.0e-12 * ref for p in products)

    def dynamics_fidelity():
        omega_tilde = cavity_mod.collective_rabi(delta_mid, cav, params).omega_tilde
        gamma = params.gamma_mol
        t_end = 5.0 / gamma if gamma > 0.0 else 5.0 * 2.0 * math.pi / omega_tilde
        dt = dynamics_mod.max_stable_dt(omega_tilde, gamma) / 10.0
        series = dynamics_mod.integrate_master(
            dynamics_mod.EXCITED_STATE, omega_tilde, gamma, t_end, dt)
        worst = max(abs(s.p_e - dynamics_mod.p_omega_analytic(t, omega_tilde, gamma))
                    for t, s in series)
        assert worst <= 1.0e-8, f"max |numeric - analytic| = {worst!r}"
        trace_dev = max(abs(s.trace - 1.0) for _, s in series)
        assert trace_dev <= 1.0e-10, f"trace deviation {trace_dev!r}"
        coherence = max(max(abs(s.c_ev), abs(s.c_gv)) for _, s in series)
        assert coherence <= 1.0e-12, f"decoupled coherences reached {coherence!r}"

    def regime_continuity():
        gamma = params.gamma_mol if params.gamma_mol > 0.0 else 1.0
        for t_probe in (0.5 / gamma, 2.0 / gamma, 5.0 / gamma):
            at_boundary = dynamics_mod.p_omega_analytic(t_probe, 0.25 * gamma, gamma)
            for eps in (-1.0e-9, 1.0e-9):
                side = dynamics_mod.p_omega_analytic(
                    t_probe, 0.25 * gamma * (1.0 + eps), gamma)
                assert abs(side - at_boundary) <= 1.0e-9, \
                    f"boundary jump {abs(side - at_boundary)!r} at t={t_probe!r}"

    def scan_identities():
        deltas = [mhz * TWO_PI_MHZ for mhz in
                  np.linspace(cfg.scan_from_mhz, cfg.scan_to_mhz,
                              min(cfg.scan_points, 50))]
        gamma = params.gamma_mol
        for point in traploss_mod.scan_detuning(
                deltas, cav, params, cfg.scan_p_model,
                allow_out_of_window=True):
            series_value, _ = traploss_mod.loss_series(
                point.times, point.omega_tilde, gamma, cfg.scan_p_model)
            assert abs(series_value - point.loss_cavity) <= 1.0e-12
            kernel = traploss_mod.loss_closed_form(
                point.times, point.omega_tilde, gamma,
                lambda t, _w, g: math.exp(-g * t))
            assert abs(kernel - point.loss_free) <= 1.0e-12
            p_model = traploss_mod.P_MODELS[cfg.scan_p_model]
            envelope = p_model(point.times.t_resonant, point.omega_tilde, gamma)
            assert point.loss_cavity <= envelope + 1.0e-15
            assert 0.0 <= point.loss_cavity <= 1.0
            assert 0.0 <= point.loss_free <= 1.0

    def landau_zener_monotonic():
        probs = [cavity_mod.landau_zener(delta_mid, w, cfg.v_inf_cm_s, params)
                 for w in np.linspace(0.0, 2.0e6, 10)]
        assert probs[0] == 0.0
        assert all(a <= b for a, b in zip(probs, probs[1:]))

    return [
        ("constants.resolve_round_trip", resolve_strict),
        ("constants.deterministic", resolve_deterministic),
        ("potential.condon_condition", condon_condition),
        ("potential.escape_offset", escape_offset),
        ("potential.condon_monotonic", condon_monotonic),
        ("kinematics.g0_normalization", g0_normalization),
        ("kinematics.f_monotonic_in_coupling", f_monotonic_in_coupling),
        ("kinematics.t0_monotonic", t0_monotonic),
        ("kinematics.phase_single_cycle", phase_single_cycle),
        ("cavity.coupling_identity", coupling_identity),
        ("cavity.landau_zener_monotonic", landau_zener_monotonic),
        ("dynamics.fidelity", dynamics_fidelity),
        ("dynamics.regime_continuity", regime_continuity),
        ("traploss.scan_identities", scan_identities),
    ]


def cmd_validate(cfg: RunConfig) -> tuple[str, int]:
    """Run every invariant check; returns (report, exit status)."""
    lines = []
    failures = 0
    try:
        checks = _validation_checks(cfg)
    except CavlossError as exc:
        return f"FAIL setup: {exc}\n", 1
    for name, check in checks:
        try:
            check()
        except Exception as exc:  # report and continue
            failures += 1
            lines.append(f"FAIL {name}: {exc}")
        else:
            lines.append(f"PASS {name}")
    lines.append(f"{len(checks) - failures}/{len(checks)} checks passed")
    return "\n".join(lines) + "\n", 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _finite_float(text: str) -> float:
    """argparse type for float flags: NaN and inf exit 2 naming the flag."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isfinite(value):
        return value
    raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavloss",
        description="Cavity-driven cold-collision trap-loss calculator")
    parser.add_argument("--config", metavar="PATH",
                        help="JSON configuration file")
    sub = parser.add_subparsers(dest="command", required=True)

    def coupling_and_output(p):
        p.add_argument("--coupling", choices=list(cavity_mod.COUPLING_MODES))
        p.add_argument("--output", metavar="PATH")

    p_const = sub.add_parser("constants", help="resolved parameter report")
    coupling_and_output(p_const)

    p_times = sub.add_parser("times", help="collision time scales at one detuning")
    p_times.add_argument("--delta-mhz", type=_finite_float, required=True)
    coupling_and_output(p_times)

    p_dyn = sub.add_parser("dynamics", help="master-equation time series")
    p_dyn.add_argument("--delta-mhz", type=_finite_float, required=True)
    p_dyn.add_argument("--t-max-ns", type=_finite_float)
    p_dyn.add_argument("--dt-ps", type=_finite_float)
    coupling_and_output(p_dyn)

    p_scan = sub.add_parser("scan", help="detuning scan of trap-loss probabilities")
    p_scan.add_argument("--from-mhz", type=_finite_float)
    p_scan.add_argument("--to-mhz", type=_finite_float)
    p_scan.add_argument("--points", type=int)
    p_scan.add_argument("--p-model", choices=sorted(traploss_mod.P_MODELS))
    p_scan.add_argument("--allow-out-of-window", action="store_true",
                        default=None)
    coupling_and_output(p_scan)

    sub.add_parser("validate", help="run the invariant suite")
    return parser


#: flag attribute -> the (section, key) of the config value it overrides
_FLAG_KEYS = {
    "coupling": ("coupling", "mode"),
    "output": ("output", "path"),
    "from_mhz": ("scan", "from_mhz"),
    "to_mhz": ("scan", "to_mhz"),
    "points": ("scan", "points"),
    "p_model": ("scan", "p_model"),
    "allow_out_of_window": ("scan", "allow_out_of_window"),
}


def _flag_overrides(args: argparse.Namespace) -> dict:
    return {target: getattr(args, flag) for flag, target in _FLAG_KEYS.items()
            if getattr(args, flag, None) is not None}


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.output_path:
        with open(cfg.output_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, _flag_overrides(args))
        if args.command == "constants":
            _emit(cfg, cmd_constants(cfg))
        elif args.command == "times":
            _emit(cfg, cmd_times(cfg, args.delta_mhz))
        elif args.command == "dynamics":
            t_max = args.t_max_ns * 1.0e-9 if args.t_max_ns is not None else None
            dt = args.dt_ps * 1.0e-12 if args.dt_ps is not None else None
            _emit(cfg, cmd_dynamics(cfg, args.delta_mhz, t_max, dt))
        elif args.command == "scan":
            _emit(cfg, cmd_scan(cfg))
        elif args.command == "validate":
            report, status = cmd_validate(cfg)
            sys.stdout.write(report)
            return status
    except CavlossError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
