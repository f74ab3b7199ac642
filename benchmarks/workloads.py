"""Seeded workload generation for the cavloss benchmark.

Each workload is a list of calls into ``cavloss.cli.main``.  A call is
an argv list plus the config document written to the ``--config`` file
it names; the program sees nothing else.  The same seed always yields
the same calls.  Only the README config schema and the stable argv are
used: ``--jobs`` is never passed.

Why these three workloads:

* ``scan-wide``: one long default-window scan.  Per-point compute in
  kinematics/traploss and CSV formatting in cli do the work; a scan-core
  optimisation shows here.
* ``scan-sweep``: hundreds of short scans over varied valid configs, so
  config handling, ``resolve_params`` and per-scan fixed cost dominate.
  An optimisation that wins only on big grids shows its fixed cost here.
* ``dynamics-series``: master-equation runs at stratified in-window
  detunings plus one decay-free run.  ``integrate_master`` and its CSV
  dominate; kinematics and traploss are not called at all.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

#: default validity window of the scan, MHz
WINDOW_MHZ = (-1000.0, -350.0)

WORKLOADS = ("scan-wide", "scan-sweep", "dynamics-series")

#: workload sizes; "tiny" only exists for the smoke test of the benchmark
SIZES = {
    "full": {"wide_points": 20_000, "sweep_scans": 400, "dyn_strata": 4,
             "dyn_t_max_ns": None},
    "tiny": {"wide_points": 400, "sweep_scans": 32, "dyn_strata": 2,
             "dyn_t_max_ns": 2.0},
}


@dataclass
class Call:
    """One invocation of ``cavloss.cli.main``."""

    kind: str                 # "scan" or "dynamics"
    config: dict              # document written to the --config file
    args: list                # argv after the subcommand
    delta_mhz: float = math.nan   # dynamics only
    argv: list = field(default_factory=list)   # filled by write_configs


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _scan_wide(rng: random.Random, size: dict) -> list[Call]:
    # default window, approx kernel, anchored coupling; the seed only
    # nudges the grid size so the inputs differ between seeds
    points = size["wide_points"] + rng.randrange(size["wide_points"] // 200)
    config = {"coupling": {"mode": "anchored"},
              "scan": {"points": points, "p_model": "approx"}}
    return [Call(kind="scan", config=config, args=[])]


def _sweep_config(rng: random.Random, index: int) -> dict:
    # the discrete choices and the grid size follow the index, so every
    # seed runs the same mix and the same number of points; the species,
    # cavity and window values are drawn from the seed
    gamma_a = rng.uniform(3.0, 10.0)
    species = {
        "mass_amu": rng.uniform(6.0, 133.0),
        "lambda_nm": rng.uniform(670.0, 860.0),
        "gamma_a_mhz": gamma_a,
        "c3_erg_ang3": rng.uniform(0.5e-10, 2.0e-10),
    }
    if index % 2:
        species["trap_depth_mk"] = rng.uniform(0.5, 10.0)
    else:
        species["trap_depth_mhz"] = rng.uniform(10.0, 400.0)
    # a quarter of the configs couple below Gamma_mol/4 = gamma_a/2 MHz,
    # which runs the overdamped branch of the analytic kernel
    if index % 4 == 3:
        omega_ref = rng.uniform(0.9, 1.1)
    else:
        omega_ref = _log_uniform(rng, 5.0, 400.0)
    return {
        "species": species,
        "cavity": {"length_cm": rng.uniform(0.2, 5.0),
                   "n_atoms": _log_uniform(rng, 1.0e8, 1.0e10),
                   "density_cm3": _log_uniform(rng, 1.0e12, 1.0e14)},
        "coupling": {"mode": ("anchored", "microscopic")[index // 4 % 2],
                     "omega_tilde_ref_mhz": omega_ref,
                     "delta_ref_mhz": rng.uniform(*WINDOW_MHZ),
                     "v_inf_cm_s": rng.uniform(5.0, 20.0)},
        "scan": {"from_mhz": rng.uniform(-1000.0, -700.0),
                 "to_mhz": rng.uniform(-650.0, -350.0),
                 "points": 20 + index % 41,
                 "p_model": ("approx", "analytic")[index // 8 % 2],
                 "include_p_excite": index // 16 % 2 == 1},
    }


def _scan_sweep(rng: random.Random, size: dict) -> list[Call]:
    calls = [Call(kind="scan", config=_sweep_config(rng, index), args=[])
             for index in range(size["sweep_scans"])]
    rng.shuffle(calls)
    return calls


def _dynamics_series(rng: random.Random, size: dict) -> list[Call]:
    # one detuning near the middle of each equal slice of the window: the
    # step count grows with the coupling, so this keeps the cost of a pass
    # nearly seed-independent
    lo, hi = WINDOW_MHZ
    strata = size["dyn_strata"]
    width = (hi - lo) / strata
    deltas = [round(lo + width * (k + rng.uniform(0.4, 0.6)), 6)
              for k in range(strata)]
    configs = [{} for _ in deltas]
    # the decay-free limit is only accepted by `dynamics`; its step count
    # does not depend on the detuning
    deltas.append(round(rng.uniform(lo + 10.0, hi - 10.0), 6))
    configs.append({"species": {"gamma_a_mhz": 0.0}})
    extra = []
    if size["dyn_t_max_ns"] is not None:
        extra = ["--t-max-ns", repr(size["dyn_t_max_ns"])]
    return [Call(kind="dynamics", config=config, delta_mhz=delta,
                 args=["--delta-mhz", repr(delta)] + extra)
            for delta, config in zip(deltas, configs)]


_GENERATORS = {
    "scan-wide": _scan_wide,
    "scan-sweep": _scan_sweep,
    "dynamics-series": _dynamics_series,
}


def build(workload: str, seed: int, size: str = "full") -> list[Call]:
    """The calls of one workload pass for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng, SIZES[size])


def write_configs(calls: list[Call], directory: Path) -> None:
    """Write each call's config file and fill in its argv."""
    for index, call in enumerate(calls):
        path = directory / f"config-{index:04d}.json"
        path.write_text(json.dumps(call.config, indent=1), encoding="utf-8")
        call.argv = ["--config", str(path), call.kind] + call.args
