"""Command-line interface: config ingestion, five commands, CSV output.

Commands
    constants   resolved parameter report as key=value lines
    times       collision time scales at one detuning (CSV row)
    dynamics    master-equation time series vs the closed form (CSV)
    scan        detuning scan of the trap-loss probabilities (CSV)
    validate    run the cross-module invariant suite

Configuration is a JSON document whose sections are the fields of
:class:`RunConfig`: ``species`` (:class:`~cavloss.constants.HumanUnitsConfig`),
``cavity``, ``coupling``, ``scan`` and ``output``.  Those frozen section
dataclasses are the schema: each field gives a key, its type, its
default (the shipped Rb-85 preset) and, for a string, its allowed
choices.  :func:`build_run_config` checks a document against them in one
pass, and each command-line flag overrides the ``section.key`` named by
its argparse ``dest``.  No environment variables are consulted.

All numeric CSV fields are written in scientific notation at the
configured precision; identical configs produce byte-identical output.
Diagnostics go to stderr only.  Exit status: 0 on success, 1 for a
failed validation suite, 2 for configuration or domain errors.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from dataclasses import dataclass, field, fields
from typing import Iterable, Iterator, Optional, get_args, get_type_hints

import numpy as np

from . import cavity as cavity_mod
from . import dynamics as dynamics_mod
from . import kinematics as kinematics_mod
from . import potential as potential_mod
from . import traploss as traploss_mod
from .constants import (HBAR, HumanUnitsConfig, PhysicalParams,
                        resolve_params, to_human_units)
from .csvtext import csv_pieces, write_csv
from .errors import CavlossError, ConfigError, DomainError, StepSizeError
from .grid import float_range

TWO_PI_MHZ = 2.0 * math.pi * 1.0e6   # rad/s per MHz

#: largest scan grid accepted, in points
MAX_SCAN_POINTS = 1_000_000


@dataclass(frozen=True)
class CavitySection:
    """The ``cavity`` config section: resonator and gas."""

    length_cm: float = 1.0
    n_atoms: float = 2.0e9
    density_cm3: float = 4.0e13


@dataclass(frozen=True)
class CouplingSection:
    """The ``coupling`` config section: the collective coupling model."""

    mode: str = field(default="anchored",
                      metadata={"choices": cavity_mod.COUPLING_MODES})
    omega_tilde_ref_mhz: float = 200.0
    delta_ref_mhz: float = -350.0
    v_inf_cm_s: float = 12.0


@dataclass(frozen=True)
class ScanSection:
    """The ``scan`` config section: detuning grid and survival kernel.

    The default grid spans the model's validity window.
    """

    from_mhz: float = traploss_mod.DEFAULT_WINDOW_MHZ[0]
    to_mhz: float = traploss_mod.DEFAULT_WINDOW_MHZ[1]
    points: int = 200
    p_model: str = field(default="approx",
                         metadata={"choices": traploss_mod.P_MODELS})
    allow_out_of_window: bool = False
    include_p_excite: bool = False


@dataclass(frozen=True)
class OutputSection:
    """The ``output`` config section: destination and digits."""

    path: Optional[str] = None   # None writes to stdout
    precision: int = 12          # significant digits, 6..17


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration, one frozen dataclass per section."""

    species: HumanUnitsConfig = field(default_factory=HumanUnitsConfig)
    cavity: CavitySection = field(default_factory=CavitySection)
    coupling: CouplingSection = field(default_factory=CouplingSection)
    scan: ScanSection = field(default_factory=ScanSection)
    output: OutputSection = field(default_factory=OutputSection)


#: section name -> its dataclass, read once from RunConfig
_SECTIONS = {section.name: section.default_factory
             for section in fields(RunConfig)}

#: section name -> {key: declared type}
_TYPES = {name: get_type_hints(section) for name, section in _SECTIONS.items()}


def _classified(hint) -> tuple:
    """(type, whether null is allowed) of a declared field type."""
    allowed = [kind for kind in get_args(hint) if kind is not type(None)]
    return (allowed[0], True) if allowed else (hint, False)


#: (section, key) -> (type, nullable, choices) of every config field, in
#: schema order; the type is bool, int, float or str
_FIELDS = {(name, key.name): (*_classified(_TYPES[name][key.name]),
                              key.metadata.get("choices"))
           for name, section in _SECTIONS.items() for key in fields(section)}


def _checked(name: str, value, kind: type, nullable: bool, choices):
    """One config value, checked against the type its field declares.

    A float takes any finite number, an int an integral one, a bool only a
    JSON boolean, a str one of the field's declared choices, or any string
    when it declares none; a nullable field also takes null.
    """
    if value is None and nullable:
        return None
    if kind is bool:
        if isinstance(value, bool):
            return value
        raise ConfigError(f"{name} must be a JSON boolean, got {value!r}")
    if kind is str:
        if isinstance(value, str) and (choices is None or value in choices):
            return value
        wanted = f"one of {sorted(choices)}" if choices else "a string or null"
        raise ConfigError(f"{name} must be {wanted}, got {value!r}")
    integer = kind is int
    try:
        valid = (not isinstance(value, bool) and math.isfinite(value)
                 and (not integer or float(value).is_integer()))
    except (TypeError, OverflowError):   # not a number, or beyond a double
        valid = False
    if not valid:
        wanted = "an integer" if integer else "a finite number"
        raise ConfigError(f"{name} must be {wanted}, got {value!r}")
    return int(value) if integer else float(value)


def build_run_config(document: Optional[dict] = None,
                     overrides: Optional[dict] = None) -> RunConfig:
    """Check a config document, with (section, key) -> value overrides.

    Unknown sections and keys are rejected; every given value is checked
    against the type of its field; absent keys keep their defaults.
    """
    document = {} if document is None else document
    if not isinstance(document, dict):
        raise ConfigError("config document must be a JSON object")
    given = {}
    for section, keys in document.items():
        if section not in _TYPES:
            raise ConfigError(f"unknown config section {section!r}")
        if not isinstance(keys, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        for key, value in keys.items():
            if key not in _TYPES[section]:
                raise ConfigError(f"unknown config key {section}.{key}")
            given[section, key] = value
    # an explicit trap_depth_mhz supersedes the default trap_depth_mk
    if given.get(("species", "trap_depth_mhz")) is not None:
        given.setdefault(("species", "trap_depth_mk"), None)
    given.update(overrides or {})

    values = {name: {} for name in _SECTIONS}
    for (name, key), check in _FIELDS.items():
        if (name, key) in given:
            values[name][key] = _checked(f"{name}.{key}", given[name, key],
                                         *check)
    cfg = RunConfig(**{name: section(**values[name])
                       for name, section in _SECTIONS.items()})

    if cfg.coupling.v_inf_cm_s <= 0.0:
        raise ConfigError("coupling.v_inf_cm_s must be positive, got "
                          f"{cfg.coupling.v_inf_cm_s!r}")
    scan = cfg.scan
    if not scan.from_mhz < scan.to_mhz < 0.0:
        raise ConfigError(
            "scan.from_mhz < scan.to_mhz < 0 required, got "
            f"{scan.from_mhz!r} .. {scan.to_mhz!r}")
    if not 2 <= scan.points <= MAX_SCAN_POINTS:
        raise ConfigError(
            f"scan.points must be in 2..{MAX_SCAN_POINTS}, got {scan.points!r}")
    if not 6 <= cfg.output.precision <= 17:
        raise ConfigError(
            f"output.precision must be in 6..17, got {cfg.output.precision!r}")
    return cfg


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


def cavity_config(cfg: RunConfig) -> cavity_mod.CavityConfig:
    return cavity_mod.CavityConfig(
        length=cfg.cavity.length_cm,
        n_atoms_total=cfg.cavity.n_atoms,
        density=cfg.cavity.density_cm3,
        coupling_mode=cfg.coupling.mode,
        omega_tilde_ref=cfg.coupling.omega_tilde_ref_mhz * TWO_PI_MHZ,
        delta_ref=cfg.coupling.delta_ref_mhz * TWO_PI_MHZ,
    )


# ---------------------------------------------------------------------------
# commands


def cmd_constants(cfg: RunConfig) -> str:
    """Key=value report of every resolved quantity."""
    params = resolve_params(cfg.species)
    cav = cavity_config(cfg)
    omega_c = params.omega_a + cav.delta_ref
    waist, volume = cavity_mod.mode_geometry(omega_c, cav)
    d_atom = cavity_mod.atomic_dipole(params)
    omega_single = cavity_mod.single_rabi(omega_c, cav, params)
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
        f"field_per_photon_cgs={cavity_mod.field_per_photon(omega_c, volume)!r}",
        f"omega_single_mhz={omega_single / TWO_PI_MHZ!r}",
        f"coupling_mode={cfg.coupling.mode}",
    ]
    if cfg.coupling.mode == "microscopic":
        if not cfg.coupling.delta_ref_mhz < 0.0:   # the pairs need red light
            raise ConfigError("coupling.delta_ref_mhz must be negative, got "
                              f"{cfg.coupling.delta_ref_mhz!r}")
        point = cavity_mod.coupling(cav.delta_ref, cav, params)
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
    cav = cavity_config(cfg)
    delta = delta_mhz * TWO_PI_MHZ
    with float_range("the collision times"):
        omega_tilde = cavity_mod.coupling(delta, cav, params).omega_tilde
        times = kinematics_mod.collision_times(delta, omega_tilde, params)
        phase = omega_tilde * times.t_resonant
    row = (delta_mhz, times.geometry.r_condon * 1.0e8,
           times.geometry.r_escape * 1.0e8, times.t_total,
           times.frac_resonant, times.t_resonant, times.t_escape_region,
           phase / math.pi)
    return write_csv(TIMES_HEADER, [np.atleast_1d(value) for value in row],
                     cfg.output.precision)


DYNAMICS_HEADER = ["t_s", "p_e_numeric", "p_e_analytic", "p_g", "p_v",
                   "abs_err", "trace"]


def cmd_dynamics(cfg: RunConfig, delta_mhz: float,
                 t_max_ns: Optional[float] = None,
                 dt_ps: Optional[float] = None) -> Iterator[str]:
    """CSV time series of the integrated master equation at one detuning.

    Everything is computed before this returns; the CSV comes as the
    pieces of :func:`~cavloss.csvtext.csv_pieces`.

    ``t_max_ns`` and ``dt_ps`` are the ``--t-max-ns`` and ``--dt-ps``
    values as given (None for the default run), and each refusal of them
    names the flag and its unit.  gamma_a_mhz = 0 is accepted here
    (decay-free Rabi oscillation).
    """
    if t_max_ns is not None and t_max_ns < 0.0:
        raise DomainError(f"--t-max-ns must be >= 0, got {t_max_ns!r}")
    t_max_s = t_max_ns * 1.0e-9 if t_max_ns is not None else None
    dt_s = dt_ps * 1.0e-12 if dt_ps is not None else None
    if dt_s is not None and not dt_s > 0.0:   # 1e-320 ps underflows to 0 s
        raise DomainError(f"--dt-ps must be positive, got {dt_ps!r}")
    if delta_mhz >= 0.0:
        raise DomainError(f"--delta-mhz must be negative, got {delta_mhz!r}")
    params = resolve_params(cfg.species, allow_zero_gamma=True)
    cav = cavity_config(cfg)
    delta = delta_mhz * TWO_PI_MHZ
    with float_range("the collective coupling"):
        omega_tilde = cavity_mod.coupling(delta, cav, params).omega_tilde
    gamma = params.gamma_mol
    dt_max = dynamics_mod.max_stable_dt(omega_tilde, gamma)
    if dt_s is not None and dt_s > dt_max:
        raise StepSizeError(
            f"--dt-ps {dt_ps!r} exceeds the ceiling of about "
            f"{dt_max * 1.0e12:.6g} ps ({dynamics_mod.STEPS_PER_CYCLE} "
            f"steps per fastest cycle)")
    t_max_s, dt_s = dynamics_mod.default_run(omega_tilde, gamma, t_max_s, dt_s)
    times, states = dynamics_mod.integrate_grid(
        dynamics_mod.EXCITED_STATE, omega_tilde, gamma, t_max_s, dt_s,
        components=(0, 1, 2))
    p_e, p_g, p_v = states.T
    analytic = dynamics_mod.p_omega_analytic(times, omega_tilde, gamma)
    columns = [times, p_e, analytic, p_g, p_v, np.abs(p_e - analytic),
               p_e + p_g + p_v]
    return csv_pieces(DYNAMICS_HEADER, columns, cfg.output.precision)


SCAN_HEADER = ["delta_mhz", "omega_tilde_mhz", "n_pairs", "rc_ang", "re_ang",
               "t0_s", "f", "tc_s", "te_s", "phase_over_pi", "loss_cavity",
               "loss_free"]


def cmd_scan(cfg: RunConfig) -> Iterator[str]:
    """CSV of the full detuning scan, as :func:`cmd_dynamics` returns it."""
    params = resolve_params(cfg.species)
    scan = cfg.scan
    grid = traploss_mod.scan_grid(
        np.linspace(scan.from_mhz, scan.to_mhz, scan.points) * TWO_PI_MHZ,
        cavity_config(cfg), params, scan.p_model,
        allow_out_of_window=scan.allow_out_of_window)

    times, geometry = grid.times, grid.times.geometry
    header = list(SCAN_HEADER)
    columns = [grid.delta / TWO_PI_MHZ, grid.omega_tilde / TWO_PI_MHZ,
               grid.n_pairs, geometry.r_condon * 1.0e8,
               geometry.r_escape * 1.0e8, times.t_total, times.frac_resonant,
               times.t_resonant, times.t_escape_region, grid.phase / math.pi,
               grid.loss_cavity, grid.loss_free]
    if scan.include_p_excite:
        header.append("p_excite")
        columns.append(cavity_mod.landau_zener(
            grid.delta, grid.omega_tilde, cfg.coupling.v_inf_cm_s, params))
    if scan.allow_out_of_window:
        header.append("in_window")
        columns.append(traploss_mod.in_default_window(grid.delta))
    return csv_pieces(header, columns, cfg.output.precision)


# ---------------------------------------------------------------------------
# validate


def _check_round_trip(params: PhysicalParams, species: HumanUnitsConfig) -> None:
    back = to_human_units(params)
    for key in fields(species):
        want, got = getattr(species, key.name), getattr(back, key.name)
        if want is None or got is None or (want == 0.0 and got == 0.0):
            continue   # the trap depth given in the other unit, or zero
        if abs(got - want) > 1.0e-12 * abs(want):
            raise AssertionError(f"{key.name} round-trip {want!r} -> {got!r}")


def _require(ok, claim: str, **samples) -> None:
    """Raise AssertionError naming the first sample where ``ok`` is False.

    Each keyword is an array of sample values (or one value for all)
    reported at that index.
    """
    ok = np.asarray(ok)
    if ok.all():
        return
    index = int(np.flatnonzero(~ok)[0])
    values = ", ".join(
        f"{name} = {np.broadcast_to(value, ok.shape).flat[index].item()!r}"
        for name, value in samples.items())
    raise AssertionError(f"{claim} fails at sample {index}: {values}")


def _validation_checks(cfg: RunConfig) -> list[tuple[str, object]]:
    """Build the named invariant checks; each is a zero-arg callable."""
    params = resolve_params(cfg.species, allow_zero_gamma=True)
    cav = cavity_config(cfg)
    rng = np.random.default_rng(20250101)
    delta_samples = -rng.uniform(350.0, 1000.0, size=50) * TWO_PI_MHZ
    by_size = np.sort(delta_samples)[::-1]   # |delta| ascending
    delta_mid = 0.5 * (cfg.scan.from_mhz + cfg.scan.to_mhz) * TWO_PI_MHZ

    def resolve_strict():
        _check_round_trip(resolve_params(cfg.species), cfg.species)

    def resolve_deterministic():
        first = resolve_params(cfg.species, allow_zero_gamma=True)
        second = resolve_params(cfg.species, allow_zero_gamma=True)
        assert first == second, "two resolutions differ"

    def condon_condition():
        r_c = potential_mod.condon_radius(delta_samples, params)
        value = potential_mod.u_dd(r_c, params)
        target = HBAR * delta_samples
        _require(np.abs(value - target) <= 1.0e-12 * np.abs(target),
                 "U_dd(R_C) = hbar*delta", delta_mhz=delta_samples / TWO_PI_MHZ,
                 u_dd=value, hbar_delta=target)

    def escape_offset():
        # compare the potential parts: the omega_a offsets cancel exactly
        # in algebra but would swamp the 1e-12 target in floating point
        omega_tilde = cavity_mod.coupling(
            delta_samples, cav, params).omega_tilde
        geometry = potential_mod.resonance_geometry(delta_samples,
                                                    omega_tilde, params)
        shift = (potential_mod.u_dd(geometry.r_escape, params)
                 - potential_mod.u_dd(geometry.r_condon, params)) / HBAR
        _require(np.abs(shift + omega_tilde) <= 1.0e-12 * omega_tilde,
                 "U_dd(R_E) - U_dd(R_C) = -hbar*omega_tilde",
                 delta_mhz=delta_samples / TWO_PI_MHZ, shift=shift,
                 omega_tilde=omega_tilde)

    def condon_monotonic():
        radii = potential_mod.condon_radius(by_size, params)
        _require(radii[:-1] > radii[1:], "R_C falls as |delta| grows",
                 delta_mhz=by_size[:-1] / TWO_PI_MHZ, r_c=radii[:-1],
                 next_r_c=radii[1:])

    def g0_normalization():
        full = kinematics_mod.fraction_f(-1.0, 1.0e30)
        assert abs(full - 1.0) <= 1.0e-9, f"f(r->0) = {full!r}"

    def f_monotonic_in_coupling():
        omegas = np.linspace(0.0, 4.0 * abs(delta_mid), 20)
        values = kinematics_mod.fraction_f(delta_mid, omegas)
        _require((0.0 <= values) & (values <= 1.0), "0 <= f <= 1",
                 omega_tilde=omegas, f=values)
        _require(values[:-1] < values[1:], "f rises with omega_tilde",
                 omega_tilde=omegas[:-1], f=values[:-1], next_f=values[1:])

    def t0_monotonic():
        times = kinematics_mod.total_time(by_size, params)
        _require(times[:-1] > times[1:], "t0 falls as |delta| grows",
                 delta_mhz=by_size[:-1] / TWO_PI_MHZ, t0=times[:-1],
                 next_t0=times[1:])

    def phase_single_cycle():
        # exceeding one cycle is expected near the window edge, so only
        # the phase itself is checked
        omega_tilde = cavity_mod.coupling(
            delta_samples, cav, params).omega_tilde
        t_c = (kinematics_mod.total_time(delta_samples, params)
               * kinematics_mod.fraction_f(delta_samples, omega_tilde))
        phase = omega_tilde * t_c
        valid = np.isfinite(phase) & (phase > 0.0)
        assert valid.all(), \
            f"phase omega_tilde*t_c = {phase[~valid][0].item()!r}"

    def coupling_identity():
        point = cavity_mod.coupling(delta_samples, cav, params)
        omega_tilde = point.omega_tilde
        delta_mhz = delta_samples / TWO_PI_MHZ
        if cfg.coupling.mode == "microscopic":
            collective = point.n_pairs * point.omega_single**2
            _require(np.abs(omega_tilde**2 - collective)
                     <= 1.0e-12 * omega_tilde**2, "omega_tilde^2 = N*Omega^2",
                     delta_mhz=delta_mhz, omega_tilde=omega_tilde,
                     n_pairs=point.n_pairs, omega_single=point.omega_single)
        else:
            products = omega_tilde * np.abs(delta_samples)
            ref = products[0]
            _require(np.abs(products - ref) <= 1.0e-12 * ref,
                     "omega_tilde*|delta| constant", delta_mhz=delta_mhz,
                     product=products, first_product=ref)

    def dynamics_fidelity():
        omega_tilde = cavity_mod.coupling(delta_mid, cav, params).omega_tilde
        gamma = params.gamma_mol
        t_end, dt = dynamics_mod.default_run(omega_tilde, gamma)
        times, states = dynamics_mod.integrate_grid(
            dynamics_mod.EXCITED_STATE, omega_tilde, gamma, t_end, dt)
        p_e = states[:, 0]
        analytic = dynamics_mod.p_omega_analytic(times, omega_tilde, gamma)
        worst = np.max(np.abs(p_e - analytic)).item()
        assert worst <= 1.0e-8, f"max |numeric - analytic| = {worst!r}"
        trace_dev = np.max(np.abs(p_e + states[:, 1] + states[:, 2] - 1.0)).item()
        assert trace_dev <= 1.0e-10, f"trace deviation {trace_dev!r}"
        coherence = np.max(np.hypot(states[:, 5::2], states[:, 6::2])).item()
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
        deltas = np.linspace(cfg.scan.from_mhz, cfg.scan.to_mhz,
                             min(cfg.scan.points, 50)) * TWO_PI_MHZ
        gamma = params.gamma_mol
        grid = traploss_mod.scan_grid(deltas, cav, params, cfg.scan.p_model,
                                      allow_out_of_window=True)
        times, l_c, l_o = grid.times, grid.loss_cavity, grid.loss_free
        delta_mhz = grid.delta / TWO_PI_MHZ
        kernel = traploss_mod.loss_closed_form(
            times, grid.omega_tilde, gamma, lambda t, _w, g: np.exp(-g * t))
        _require(np.abs(kernel - l_o) <= 1.0e-12, "exp(-Gamma*t) kernel = L_o",
                 delta_mhz=delta_mhz, kernel=kernel, loss_free=l_o)
        envelope = traploss_mod.P_MODELS[cfg.scan.p_model](
            times.t_resonant, grid.omega_tilde, gamma)
        _require(l_c <= envelope + 1.0e-15, "L_c <= p(t_c)",
                 delta_mhz=delta_mhz, loss_cavity=l_c, p_tc=envelope)
        _require((0.0 <= l_c) & (l_c <= 1.0) & (0.0 <= l_o) & (l_o <= 1.0),
                 "0 <= L <= 1", delta_mhz=delta_mhz, loss_cavity=l_c,
                 loss_free=l_o)
        series, _ = traploss_mod.loss_series(times, grid.omega_tilde, gamma,
                                             cfg.scan.p_model)
        _require(np.abs(series - l_c) <= 1.0e-12, "series = closed form",
                 delta_mhz=delta_mhz, series=series, loss_cavity=l_c)

    def landau_zener_monotonic():
        omegas = np.linspace(0.0, 2.0e6, 10)
        probs = cavity_mod.landau_zener(delta_mid, omegas,
                                        cfg.coupling.v_inf_cm_s, params)
        _require(probs[:1] == 0.0, "P_LZ(omega_tilde = 0) = 0", p=probs[:1])
        _require(probs[:-1] <= probs[1:], "P_LZ rises with omega_tilde",
                 omega_tilde=omegas[:-1], p=probs[:-1], next_p=probs[1:])

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
    checks = _validation_checks(cfg)
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


#: the flags that take a float
FLOAT_FLAGS = ("--delta-mhz", "--t-max-ns", "--dt-ps", "--from-mhz",
               "--to-mhz")


def _joined_negatives(argv: list[str]) -> list[str]:
    """argv with each float flag joined by '=' to a negative number after it.

    argparse reads a token such as -1e6, which starts with '-' but is not a
    plain negative number, as a flag of its own; "--delta-mhz=-1e6" is
    read as meant.
    """
    joined = []
    for token in argv:
        if joined and joined[-1] in FLOAT_FLAGS and token.startswith("-"):
            try:
                float(token)
            except ValueError:
                pass
            else:
                joined[-1] += "=" + token
                continue
        joined.append(token)
    return joined


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavloss",
        description="Cavity-driven cold-collision trap-loss calculator")
    parser.add_argument("--config", metavar="PATH",
                        help="JSON configuration file")
    sub = parser.add_subparsers(dest="command", required=True)

    # a flag that overrides a config value names its section.key as dest
    def coupling_and_output(p):
        p.add_argument("--coupling", dest="coupling.mode",
                       choices=_FIELDS["coupling", "mode"][2])
        p.add_argument("--output", dest="output.path")

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
    p_scan.add_argument("--from-mhz", dest="scan.from_mhz", type=_finite_float)
    p_scan.add_argument("--to-mhz", dest="scan.to_mhz", type=_finite_float)
    p_scan.add_argument("--points", dest="scan.points", type=int)
    p_scan.add_argument("--p-model", dest="scan.p_model",
                        choices=_FIELDS["scan", "p_model"][2])
    p_scan.add_argument("--allow-out-of-window", dest="scan.allow_out_of_window",
                        action="store_true", default=None)
    coupling_and_output(p_scan)

    sub.add_parser("validate", help="run the invariant suite")
    return parser


#: the parser of :func:`main`, built on its first call; argparse keeps no
#: state between ``parse_args`` calls, so one parser serves them all
_main_parser = functools.cache(build_parser)


def _flag_overrides(args: argparse.Namespace) -> dict:
    """(section, key) -> value for every config flag given."""
    return {tuple(dest.split(".")): value for dest, value in vars(args).items()
            if "." in dest and value is not None}


def _emit(cfg: RunConfig, pieces: Iterable[str]) -> None:
    """Write the text pieces to the ``output.path`` file, or to stdout."""
    with (open(cfg.output.path, "w", encoding="utf-8", newline="")
          if cfg.output.path else contextlib.nullcontext(sys.stdout)) as sink:
        for piece in pieces:
            sink.write(piece)


def _window_note(delta_mhz: float) -> None:
    """A stderr note when a detuning lies outside the validity window."""
    if not traploss_mod.in_default_window(delta_mhz * TWO_PI_MHZ):
        print(f"note: detuning {delta_mhz:.6g} MHz is outside the validity "
              f"window {traploss_mod.DEFAULT_WINDOW_MHZ} MHz of the "
              f"semiclassical model", file=sys.stderr)


def main(argv: Optional[list[str]] = None) -> int:
    args = _main_parser().parse_args(
        _joined_negatives(sys.argv[1:] if argv is None else argv))
    try:
        cfg = load_config(args.config, _flag_overrides(args))
        if args.command == "constants":
            _emit(cfg, [cmd_constants(cfg)])
        elif args.command == "times":
            _emit(cfg, [cmd_times(cfg, args.delta_mhz)])
            _window_note(args.delta_mhz)
        elif args.command == "dynamics":
            _emit(cfg, cmd_dynamics(cfg, args.delta_mhz, args.t_max_ns,
                                    args.dt_ps))
            _window_note(args.delta_mhz)
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
