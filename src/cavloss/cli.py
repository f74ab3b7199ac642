"""Command-line interface: config ingestion, five commands, CSV output.

Commands
    constants   resolved parameter report as key=value lines
    times       collision time scales at one detuning (CSV row)
    dynamics    master-equation time series vs the closed form (CSV)
    scan        detuning scan of the trap-loss probabilities (CSV)
    validate    run the cross-module invariant suite

Configuration is a JSON document whose sections are the fields of
:class:`RunConfig`: ``species`` (:class:`~cavloss.constants.HumanUnitsConfig`),
``cavity``, ``coupling``, ``scan`` and ``output``.  Those section records
(named tuples, and the species dataclass) are the schema: each field
gives a key, its type and its default (the shipped Rb-85 preset), and
``_CHOICES`` the allowed values of a string key.  :func:`build_run_config`
checks a document against them in one pass, and each command-line flag
overrides the ``section.key`` named by its argparse ``dest``.  No
environment variables are consulted.

:func:`main` sets up every run the same way: the config, the cavity
record, the ``--delta-mhz`` sign, then the species, of which only
``dynamics`` admits gamma_a_mhz = 0.  The command checks its own flags,
and its text goes to ``output.path`` (``--output``) or to stdout.

All numeric CSV fields are written in scientific notation at the
configured precision; identical configs produce byte-identical output.
Diagnostics go to stderr only.  Exit status: 0 on success, 1 for a
failed validation suite, 2 for configuration or domain errors and for an
output that cannot be written.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from typing import (Iterable, Iterator, NamedTuple, Optional, get_args,
                    get_type_hints)

import numpy as np

from . import cavity as cavity_mod
from . import dynamics as dynamics_mod
from . import kinematics as kinematics_mod
from . import traploss as traploss_mod
from .cavity import CavityConfig
from .constants import (HBAR, TWO_PI_MHZ, HumanUnitsConfig, PhysicalParams,
                        resolve_params)
from .csvtext import csv_pieces
from .errors import CavlossError, ConfigError, DomainError, StepSizeError
from .grid import float_range

#: largest scan grid accepted, in points
MAX_SCAN_POINTS = 1_000_000


class CavitySection(NamedTuple):
    """The ``cavity`` config section: resonator and gas."""

    length_cm: float = 1.0
    n_atoms: float = 2.0e9
    density_cm3: float = 4.0e13


class CouplingSection(NamedTuple):
    """The ``coupling`` config section: the collective coupling model."""

    mode: str = "anchored"
    omega_tilde_ref_mhz: float = 200.0
    delta_ref_mhz: float = -350.0
    v_inf_cm_s: float = 12.0


class ScanSection(NamedTuple):
    """The ``scan`` config section: detuning grid and survival kernel.

    The default grid spans the model's validity window.
    """

    from_mhz: float = traploss_mod.DEFAULT_WINDOW_MHZ[0]
    to_mhz: float = traploss_mod.DEFAULT_WINDOW_MHZ[1]
    points: int = 200
    p_model: str = "approx"
    allow_out_of_window: bool = False
    include_p_excite: bool = False


class OutputSection(NamedTuple):
    """The ``output`` config section: destination and digits."""

    path: Optional[str] = None   # None writes to stdout
    precision: int = 12          # significant digits, 6..17


class RunConfig(NamedTuple):
    """Validated run configuration, one immutable record per section."""

    species: HumanUnitsConfig = HumanUnitsConfig()
    cavity: CavitySection = CavitySection()
    coupling: CouplingSection = CouplingSection()
    scan: ScanSection = ScanSection()
    output: OutputSection = OutputSection()


#: section name -> its record class, read once from RunConfig
_SECTIONS = get_type_hints(RunConfig)

#: section name -> {key: declared type}, in field order
_TYPES = {name: get_type_hints(section) for name, section in _SECTIONS.items()}

#: (section, key) -> the allowed values of a string field
_CHOICES = {("coupling", "mode"): cavity_mod.COUPLING_MODES,
            ("scan", "p_model"): traploss_mod.P_MODELS}


def _classified(hint) -> tuple:
    """(type, whether null is allowed) of a declared field type."""
    allowed = [kind for kind in get_args(hint) if kind is not type(None)]
    return (allowed[0], True) if allowed else (hint, False)


#: (section, key) -> (type, nullable, choices) of every config field, in
#: schema order; the type is bool, int, float or str
_FIELDS = {(name, key): (*_classified(hint), _CHOICES.get((name, key)))
           for name, hints in _TYPES.items() for key, hint in hints.items()}


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
    references = [("delta_ref_mhz", "negative", -1.0)]   # red, in both modes
    if cfg.coupling.mode == "anchored":   # the microscopic omega~ is computed
        references.insert(0, ("omega_tilde_ref_mhz",
                              "positive in anchored mode", 1.0))
    for key, wanted, sign in references:
        value = getattr(cfg.coupling, key)
        if not sign * value > 0.0:
            raise ConfigError(f"coupling.{key} must be {wanted}, got {value!r}")
        if math.isinf(value * TWO_PI_MHZ):
            raise ConfigError(f"coupling.{key} leaves the floating-point "
                              f"range in rad/s, got {value!r}")
    scan = cfg.scan
    if not scan.from_mhz < scan.to_mhz < 0.0:
        raise ConfigError(
            "scan.from_mhz < scan.to_mhz < 0 required, got "
            f"{scan.from_mhz!r} .. {scan.to_mhz!r}")
    if not math.isfinite(scan.from_mhz * TWO_PI_MHZ):   # from < to < 0
        raise ConfigError("scan.from_mhz leaves the floating-point range in "
                          f"rad/s, got {scan.from_mhz!r}")
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
        with open(path, "rb") as handle:
            document = json.loads(handle.read().decode("utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    return build_run_config(document, overrides)


def cavity_config(cfg: RunConfig) -> CavityConfig:
    return CavityConfig(
        length=cfg.cavity.length_cm,
        n_atoms_total=cfg.cavity.n_atoms,
        density=cfg.cavity.density_cm3,
        coupling_mode=cfg.coupling.mode,
        omega_tilde_ref=cfg.coupling.omega_tilde_ref_mhz * TWO_PI_MHZ,
        delta_ref=cfg.coupling.delta_ref_mhz * TWO_PI_MHZ,
    )


# ---------------------------------------------------------------------------
# commands


@float_range("the constants")
def cmd_constants(cfg: RunConfig, cav: CavityConfig,
                  params: PhysicalParams) -> str:
    """Key=value report of every resolved quantity."""
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
        point = cavity_mod.coupling(cav.delta_ref, cav, params)
        lines.append(f"n_pairs_at_delta_ref={point.n_pairs!r}")
        lines.append(f"omega_tilde_at_delta_ref_mhz={point.omega_tilde / TWO_PI_MHZ!r}")
    for line in lines:   # a builtin float overflows to inf without raising
        key, value = line.split("=")
        if value in ("inf", "-inf", "nan"):
            raise DomainError(f"{key} left the floating-point range")
    return "\n".join(lines) + "\n"


TIMES_HEADER = ["delta_mhz", "r_condon_ang", "r_escape_ang", "t0_s", "f",
                "tc_s", "te_s", "phase_over_pi"]


def cmd_times(cfg: RunConfig, cav: CavityConfig, params: PhysicalParams,
              delta_mhz: float) -> str:
    """One CSV row of collision time scales at the given detuning."""
    delta = delta_mhz * TWO_PI_MHZ
    with float_range("the collision times"):
        omega_tilde = cavity_mod.coupling(delta, cav, params).omega_tilde
        times = kinematics_mod.collision_times(delta, omega_tilde, params)
        phase = omega_tilde * times.t_resonant
    row = (delta_mhz, times.geometry.r_condon * 1.0e8,
           times.geometry.r_escape * 1.0e8, times.t_total,
           times.frac_resonant, times.t_resonant, times.t_escape_region,
           phase / math.pi)
    columns = [np.atleast_1d(value) for value in row]
    return "".join(csv_pieces(TIMES_HEADER, columns, cfg.output.precision))


DYNAMICS_HEADER = ["t_s", "p_e_numeric", "p_e_analytic", "p_g", "p_v",
                   "abs_err", "trace"]


@float_range("the dynamics run")
def cmd_dynamics(cfg: RunConfig, cav: CavityConfig, params: PhysicalParams,
                 delta_mhz: float, t_max_ns: Optional[float] = None,
                 dt_ps: Optional[float] = None) -> Iterator[str]:
    """CSV time series of the integrated master equation at one detuning.

    Everything is computed before this returns; the CSV comes as the
    pieces of :func:`~cavloss.csvtext.csv_pieces`.

    ``t_max_ns`` and ``dt_ps`` are the ``--t-max-ns`` and ``--dt-ps``
    values as given (None for the default run), and each refusal of them
    names the flag and its unit; a run over the step cap names what set
    its length and step.  Only this command admits gamma_a_mhz = 0, the
    decay-free collective Rabi oscillation.
    """
    if t_max_ns is not None and t_max_ns < 0.0:
        raise DomainError(f"--t-max-ns must be >= 0, got {t_max_ns!r}")
    t_max_s = t_max_ns * 1.0e-9 if t_max_ns is not None else None
    dt_s = dt_ps * 1.0e-12 if dt_ps is not None else None
    if dt_s is not None and not dt_s > 0.0:   # 1e-320 ps underflows to 0 s
        raise DomainError(f"--dt-ps must be positive, got {dt_ps!r}")
    delta = delta_mhz * TWO_PI_MHZ
    omega_tilde = cavity_mod.coupling(delta, cav, params).omega_tilde
    gamma = params.gamma_mol
    dt_max = dynamics_mod.max_stable_dt(omega_tilde, gamma)
    if dt_s is not None and dt_s > dt_max:
        raise StepSizeError(
            f"--dt-ps {dt_ps!r} exceeds the ceiling of about "
            f"{dt_max * 1.0e12:.6g} ps ({dynamics_mod.STEPS_PER_CYCLE} "
            f"steps per fastest cycle)")
    t_max_s, dt_s = dynamics_mod.default_run(omega_tilde, gamma, t_max_s, dt_s)
    steps = t_max_s / dt_s
    if steps - 1.0e-9 > dynamics_mod.MAX_STEPS:   # integrate_grid's cap
        # a default is named by the rate that set it: the default length is
        # 5/Gamma_mol, or five Rabi cycles without decay, and the default
        # step follows the faster of the coupling and Gamma_mol
        coupling = f"the coupling at --delta-mhz {delta_mhz!r}"
        decay = f"species.gamma_a_mhz {cfg.species.gamma_a_mhz!r}"
        length = (f"--t-max-ns {t_max_ns!r}" if t_max_ns is not None else
                  f"the default length set by "
                  f"{decay if gamma > 0.0 else coupling}")
        step_by_decay = dt_max == dynamics_mod.max_stable_dt(0.0, gamma)
        step = (f"--dt-ps {dt_ps!r}" if dt_ps is not None else
                f"the default step set by "
                f"{decay if step_by_decay else coupling}")
        raise DomainError(f"{length} with {step} gives a run of {steps:.6g} "
                          f"steps, over the cap of {dynamics_mod.MAX_STEPS}")
    times, states = dynamics_mod.integrate_grid(
        dynamics_mod.EXCITED_STATE, omega_tilde, gamma, t_max_s, dt_s)
    p_e, p_g, p_v = states[:, :3].T
    analytic = dynamics_mod.p_omega_analytic(times, omega_tilde, gamma)
    columns = [times, p_e, analytic, p_g, p_v, np.abs(p_e - analytic),
               p_e + p_g + p_v]
    return csv_pieces(DYNAMICS_HEADER, columns, cfg.output.precision)


SCAN_HEADER = ["delta_mhz", "omega_tilde_mhz", "n_pairs", "rc_ang", "re_ang",
               "t0_s", "f", "tc_s", "te_s", "phase_over_pi", "loss_cavity",
               "loss_free"]


def cmd_scan(cfg: RunConfig, cav: CavityConfig,
             params: PhysicalParams) -> Iterator[str]:
    """CSV of the full detuning scan, as :func:`cmd_dynamics` returns it.

    Unless scan.allow_out_of_window is set, a grid that leaves the validity
    window is refused before any compute, naming its first such detuning.
    """
    scan = cfg.scan
    deltas = np.linspace(scan.from_mhz, scan.to_mhz, scan.points) * TWO_PI_MHZ
    inside = traploss_mod.in_default_window(deltas)
    if not (scan.allow_out_of_window or inside.all()):
        raise ConfigError(
            f"detuning {deltas[~inside][0] / TWO_PI_MHZ:.6g} MHz is outside "
            f"the validity window {traploss_mod.DEFAULT_WINDOW_MHZ} MHz; set "
            f"scan.allow_out_of_window (--allow-out-of-window) to override")
    grid = traploss_mod.loss_grid(deltas, cav, params, scan.p_model)

    times, geometry = grid.times, grid.times.geometry
    header = list(SCAN_HEADER)
    columns = [grid.delta / TWO_PI_MHZ, grid.omega_tilde / TWO_PI_MHZ,
               grid.n_pairs, geometry.r_condon * 1.0e8,
               geometry.r_escape * 1.0e8, times.t_total, times.frac_resonant,
               times.t_resonant, times.t_escape_region, grid.phase / math.pi,
               grid.loss_cavity, grid.loss_free]
    if scan.include_p_excite:
        header.append("p_excite")
        with float_range("p_excite at coupling.v_inf_cm_s "
                         f"{cfg.coupling.v_inf_cm_s!r}"):
            columns.append(cavity_mod.landau_zener(
                grid.delta, grid.omega_tilde, cfg.coupling.v_inf_cm_s, params))
    if scan.allow_out_of_window:
        header.append("in_window")
        columns.append(inside)
    return csv_pieces(header, columns, cfg.output.precision)


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

    sub.add_parser("constants", help="resolved parameter report")
    p_times = sub.add_parser("times", help="collision time scales at one detuning")
    p_times.add_argument("--delta-mhz", type=_finite_float, required=True)

    p_dyn = sub.add_parser("dynamics", help="master-equation time series")
    p_dyn.add_argument("--delta-mhz", type=_finite_float, required=True)
    p_dyn.add_argument("--t-max-ns", type=_finite_float)
    p_dyn.add_argument("--dt-ps", type=_finite_float)

    p_scan = sub.add_parser("scan", help="detuning scan of trap-loss probabilities")
    p_scan.add_argument("--from-mhz", dest="scan.from_mhz", type=_finite_float)
    p_scan.add_argument("--to-mhz", dest="scan.to_mhz", type=_finite_float)
    p_scan.add_argument("--points", dest="scan.points", type=int)
    p_scan.add_argument("--p-model", dest="scan.p_model",
                        choices=_FIELDS["scan", "p_model"][2])
    p_scan.add_argument("--allow-out-of-window", dest="scan.allow_out_of_window",
                        action="store_true", default=None)

    sub.add_parser("validate", help="run the invariant suite")

    # a flag that overrides a config value names its section.key as dest
    for command in sub.choices.values():
        command.add_argument("--coupling", dest="coupling.mode",
                             choices=_FIELDS["coupling", "mode"][2])
        command.add_argument("--output", dest="output.path")
    return parser


#: the parser of :func:`main`, built on its first call; argparse keeps no
#: state between ``parse_args`` calls, so one parser serves them all
_main_parser = functools.cache(build_parser)


def _flag_overrides(args: argparse.Namespace) -> dict:
    """(section, key) -> value for every config flag given."""
    return {tuple(dest.split(".")): value for dest, value in vars(args).items()
            if "." in dest and value is not None}


def _emit(path: Optional[str], pieces: Iterable[str]) -> None:
    """Write the text pieces to the file at ``path``, or to stdout if None;
    a sink that cannot be opened or written is refused by name."""
    try:
        with (contextlib.nullcontext(sys.stdout) if path is None else
              open(path, "w", encoding="utf-8", newline="")) as sink:
            for piece in pieces:
                sink.write(piece)
            sink.flush()
    except OSError as exc:
        sink_name = ("stdout" if path is None
                     else f"output.path (--output) {path!r}")
        raise ConfigError(f"cannot write {sink_name}: "
                          f"{exc.strerror or exc}") from exc


def _window_note(delta_mhz: float) -> None:
    """A stderr note when a detuning lies outside the validity window."""
    if not traploss_mod.in_default_window(delta_mhz * TWO_PI_MHZ):
        print(f"note: detuning {delta_mhz:.6g} MHz is outside the validity "
              f"window {traploss_mod.DEFAULT_WINDOW_MHZ} MHz of the "
              f"semiclassical model", file=sys.stderr)


def main(argv: Optional[list[str]] = None) -> int:
    args = _main_parser().parse_args(
        _joined_negatives(sys.argv[1:] if argv is None else argv))
    delta_mhz = getattr(args, "delta_mhz", None)   # times and dynamics
    status = 0
    try:
        cfg = load_config(args.config, _flag_overrides(args))
        cav = cavity_config(cfg)
        if delta_mhz is not None and delta_mhz >= 0.0:
            raise DomainError("--delta-mhz must be negative, got "
                              f"{delta_mhz!r}")
        params = resolve_params(cfg.species,
                                allow_zero_gamma=args.command == "dynamics")
        if args.command == "constants":
            pieces = [cmd_constants(cfg, cav, params)]
        elif args.command == "times":
            pieces = [cmd_times(cfg, cav, params, delta_mhz)]
        elif args.command == "dynamics":
            pieces = cmd_dynamics(cfg, cav, params, delta_mhz, args.t_max_ns,
                                  args.dt_ps)
        elif args.command == "scan":
            pieces = cmd_scan(cfg, cav, params)
        else:
            from .validate import cmd_validate   # no other command runs it
            report, status = cmd_validate(cfg, cav, params)
            pieces = [report]
        _emit(cfg.output.path, pieces)
        if delta_mhz is not None:
            _window_note(delta_mhz)
    except CavlossError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
