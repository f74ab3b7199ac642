"""Correctness gate for the outputs of benchmark calls.

Runs after the timed region.  A call whose output fails any check
counts as failed.

Scans: every value finite, 0 <= loss <= 1, one row per grid point.  On
a seeded sample of rows the point is recomputed in full precision
through the library; the CSV must agree with it to the printed
precision, the multiple-passage series must equal the closed form and
the exp(-G*t) kernel must reproduce the free-space loss (both to
1e-12), and ``f`` must match the Simpson oracle of ``tests/oracles.py``
at the tier-1 tolerance 1e-8.

Dynamics: every value finite, |numeric - analytic| <= 1e-8 with the
analytic side from the oracle's naive textbook form, |trace - 1| <= 1e-10,
and the series ends at the expected time.

Library functions that are absent at the commit under test are skipped
and reported, never a crash.
"""

from __future__ import annotations

import math
import random
from dataclasses import fields

TWO_PI_MHZ = 2.0 * math.pi * 1.0e6

#: config defaults, as documented in the README schema
DEFAULTS = {
    "species": {"mass_amu": 84.911789738, "lambda_nm": 795.0,
                "gamma_a_mhz": 6.0, "c3_erg_ang3": 1.1e-10,
                "trap_depth_mk": 5.0, "trap_depth_mhz": None},
    "cavity": {"length_cm": 1.0, "n_atoms": 2.0e9, "density_cm3": 4.0e13},
    "coupling": {"mode": "anchored", "omega_tilde_ref_mhz": 200.0,
                 "delta_ref_mhz": -350.0, "v_inf_cm_s": 12.0},
    "scan": {"from_mhz": -1000.0, "to_mhz": -350.0, "points": 200,
             "p_model": "approx", "allow_out_of_window": False,
             "include_p_excite": False},
}

SCAN_COLUMNS = ("delta_mhz", "omega_tilde_mhz", "n_pairs", "rc_ang", "re_ang",
                "t0_s", "f", "tc_s", "te_s", "phase_over_pi", "loss_cavity",
                "loss_free")
DYNAMICS_COLUMNS = ("t_s", "p_e_numeric", "p_e_analytic", "p_g", "p_v",
                    "abs_err", "trace")

IDENTITY_TOL = 1.0e-12      # series = closed form; exp kernel = free loss
ORACLE_F_TOL = 1.0e-8       # tier-1 tolerance of f against Simpson
ORACLE_PANELS = 200_000
PRINTED_REL_TOL = 1.0e-11   # 12 significant digits in the CSV
DYNAMICS_TOL = 1.0e-8
TRACE_TOL = 1.0e-10


def merged(config: dict) -> dict:
    """Config document with README defaults filled in."""
    out = {section: dict(keys) for section, keys in DEFAULTS.items()}
    for section, keys in config.items():
        out.setdefault(section, {}).update(keys)
    species = config.get("species", {})
    if species.get("trap_depth_mhz") is not None and "trap_depth_mk" not in species:
        out["species"]["trap_depth_mk"] = None
    return out


def parse_csv(text: str, required: tuple) -> tuple[list[str], list[list[float]], list[str]]:
    """Header, numeric rows and problems found while parsing."""
    lines = text.splitlines()
    if not lines:
        return [], [], ["empty output"]
    header = lines[0].split(",")
    problems = [f"missing column {c}" for c in required if c not in header]
    rows = []
    for number, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if len(cells) != len(header):
            problems.append(f"row {number}: {len(cells)} fields, "
                            f"header has {len(header)}")
            continue
        try:
            values = [float(cell) for cell in cells]
        except ValueError as exc:
            problems.append(f"row {number}: {exc}")
            continue
        if not all(math.isfinite(v) for v in values):
            problems.append(f"row {number}: non-finite value in {line!r}")
            continue
        rows.append(values)
    return header, rows, problems


def library_inputs(cavloss, cfg: dict):
    """(PhysicalParams, CavityConfig) of a merged config, via the library.

    Only the cavity fields the library still declares are passed, so a
    field that a later version drops does not break the benchmark.
    """
    human = cavloss.constants.HumanUnitsConfig
    species = {k: v for k, v in cfg["species"].items()
               if k in {f.name for f in fields(human)}}
    params = cavloss.constants.resolve_params(human(**species))
    coupling = cfg["coupling"]
    delta_ref = coupling["delta_ref_mhz"] * TWO_PI_MHZ
    values = {"length": cfg["cavity"]["length_cm"],
              "omega_c": params.omega_a + delta_ref,
              "n_atoms_total": cfg["cavity"]["n_atoms"],
              "density": cfg["cavity"]["density_cm3"],
              "coupling_mode": coupling["mode"],
              "omega_tilde_ref": coupling["omega_tilde_ref_mhz"] * TWO_PI_MHZ,
              "delta_ref": delta_ref}
    cavity_cls = cavloss.cavity.CavityConfig
    names = {f.name for f in fields(cavity_cls)}
    return params, cavity_cls(**{k: v for k, v in values.items() if k in names})


class Gate:
    """Checks call outputs against the library and the test oracles."""

    def __init__(self, cavloss, oracles, seed: int, sample_rows: int):
        self.cavloss = cavloss
        self.oracles = oracles
        self.rng = random.Random(f"gate:{seed}")
        self.sample_rows = sample_rows
        self.skipped: set[str] = set()
        self._g0 = None

    def _lib(self, module: str, name: str):
        value = getattr(getattr(self.cavloss, module, None), name, None)
        if value is None:
            self.skipped.add(f"{module}.{name} absent")
        return value

    def check(self, call, text: str) -> list[str]:
        if call.kind == "scan":
            return self.check_scan(call.config, text)
        return self.check_dynamics(call, text)

    # -- scans -------------------------------------------------------------

    def check_scan(self, config: dict, text: str) -> list[str]:
        cfg = merged(config)
        header, rows, problems = parse_csv(text, SCAN_COLUMNS)
        if problems:
            return problems
        points = int(cfg["scan"]["points"])
        if len(rows) != points:
            problems.append(f"{len(rows)} rows for {points} points")
        col = {name: header.index(name) for name in SCAN_COLUMNS}
        for number, row in enumerate(rows, start=1):
            for name in ("loss_cavity", "loss_free"):
                if not 0.0 <= row[col[name]] <= 1.0:
                    problems.append(f"row {number}: {name}={row[col[name]]!r} "
                                    "outside [0, 1]")
        if problems or not rows:
            return problems
        picks = sorted(self.rng.sample(range(len(rows)),
                                       min(self.sample_rows, len(rows))))
        for index in picks:
            problems.extend(f"row {index + 1}: {p}" for p in
                            self._recompute(cfg, index, rows[index], col))
        return problems

    def _recompute(self, cfg: dict, index: int, row: list, col: dict) -> list[str]:
        import numpy as np

        loss_point = self._lib("traploss", "loss_point")
        if loss_point is None:
            return []
        params, cavity = library_inputs(self.cavloss, cfg)
        scan = cfg["scan"]
        grid = np.linspace(scan["from_mhz"], scan["to_mhz"], int(scan["points"]))
        delta = float(grid[index]) * TWO_PI_MHZ
        p_model = scan["p_model"]
        point = loss_point(delta, cavity, params, p_model)
        gamma = params.gamma_mol
        problems = []

        def close(name, printed, exact):
            if abs(printed - exact) > PRINTED_REL_TOL * abs(exact):
                problems.append(f"{name}={printed!r}, recomputed {exact!r}")

        close("delta_mhz", row[col["delta_mhz"]], delta / TWO_PI_MHZ)
        close("f", row[col["f"]], point.times.frac_resonant)
        close("loss_cavity", row[col["loss_cavity"]], point.loss_cavity)
        close("loss_free", row[col["loss_free"]], point.loss_free)

        series = self._lib("traploss", "loss_series")
        if series is not None:
            value, _ = series(point.times, point.omega_tilde, gamma, p_model)
            if abs(value - point.loss_cavity) > IDENTITY_TOL:
                problems.append(f"series {value!r} != closed form "
                                f"{point.loss_cavity!r}")
        closed = self._lib("traploss", "loss_closed_form")
        if closed is not None:
            kernel = closed(point.times, point.omega_tilde, gamma,
                            lambda t, _w, g: math.exp(-g * t))
            if abs(kernel - point.loss_free) > IDENTITY_TOL:
                problems.append(f"exp kernel {kernel!r} != loss_free "
                                f"{point.loss_free!r}")

        if self._g0 is None:
            self._g0 = self.oracles.g0_oracle(ORACLE_PANELS)
        ratio = (1.0 + point.omega_tilde / abs(delta)) ** (-1.0 / 3.0)
        f_oracle = (self.oracles.infall_integral_oracle(ratio, ORACLE_PANELS)
                    / self._g0)
        if abs(row[col["f"]] - f_oracle) > ORACLE_F_TOL:
            problems.append(f"f={row[col['f']]!r}, Simpson oracle {f_oracle!r}")
        return problems

    # -- dynamics ----------------------------------------------------------

    def check_dynamics(self, call, text: str) -> list[str]:
        cfg = merged(call.config)
        header, rows, problems = parse_csv(text, DYNAMICS_COLUMNS)
        if problems:
            return problems
        if len(rows) < 2:
            return [f"only {len(rows)} rows"]
        coupling = cfg["coupling"]
        if coupling["mode"] != "anchored":
            return ["gate supports anchored coupling only"]
        omega = (coupling["omega_tilde_ref_mhz"] * TWO_PI_MHZ
                 * abs(coupling["delta_ref_mhz"] / call.delta_mhz))
        gamma = 2.0 * cfg["species"]["gamma_a_mhz"] * TWO_PI_MHZ
        if "--t-max-ns" in call.args:
            t_end = float(call.args[call.args.index("--t-max-ns") + 1]) * 1.0e-9
        elif gamma > 0.0:
            t_end = 5.0 / gamma
        else:
            t_end = 5.0 * 2.0 * math.pi / omega
        col = {name: header.index(name) for name in DYNAMICS_COLUMNS}
        last_t = rows[-1][col["t_s"]]
        if abs(last_t - t_end) > PRINTED_REL_TOL * t_end:
            problems.append(f"series ends at {last_t!r}, expected {t_end!r}")
        reference = self.oracles.p_underdamped_reference
        worst_err = max(abs(row[col["p_e_numeric"]]
                            - reference(row[col["t_s"]], omega, gamma))
                        for row in rows)
        worst_trace = max(abs(row[col["trace"]] - 1.0) for row in rows)
        if worst_err > DYNAMICS_TOL:
            problems.append(f"max |numeric - analytic| = {worst_err!r}")
        if worst_trace > TRACE_TOL:
            problems.append(f"max |trace - 1| = {worst_trace!r}")
        return problems
