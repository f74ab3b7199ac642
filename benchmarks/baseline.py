"""Re-measure the ROADMAP baseline table with the benchmark's helpers.

Run from the repository root::

    python3 benchmarks/baseline.py [--output benchmarks/baseline.json]

Measures, best of three: the per-point cost of each stage of the scan
chain, scans of 200 and 20 000 points (library call and CLI call, whose
difference is the CLI's formatting share), the default ``dynamics`` run
at -350 MHz, the cold-start wall time of each CLI command, and the
start-up floors.  Writes JSON with provenance and prints a summary.
Keep the machine otherwise idle while it runs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import run
from gate import library_inputs, merged

sys.path.insert(0, str(run.ROOT / "src"))

TWO_PI_MHZ = 2.0 * math.pi * 1.0e6
REPEATS = 3


def best(function, repeats: int = REPEATS) -> float:
    """Smallest wall time of ``repeats`` calls, seconds."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        times.append(time.perf_counter() - start)
    return min(times)


def preset():
    """Rb-85 parameters and the default anchored cavity, as in the README."""
    import cavloss

    return library_inputs(cavloss, merged({}))


def per_point_us(points: int = 2000) -> dict:
    from cavloss import cavity, kinematics, traploss

    params, cav = preset()
    deltas = [(-1000.0 + 650.0 * i / (points - 1)) * TWO_PI_MHZ
              for i in range(points)]
    omegas = [cavity.collective_rabi(d, cav, params).omega_tilde for d in deltas]
    times = [kinematics.collision_times(d, w, params) for d, w in zip(deltas, omegas)]
    gamma = params.gamma_mol
    stages = {
        "loss_point": lambda: [traploss.loss_point(d, cav, params) for d in deltas],
        "collective_rabi": lambda: [cavity.collective_rabi(d, cav, params)
                                    for d in deltas],
        "collision_times": lambda: [kinematics.collision_times(d, w, params)
                                    for d, w in zip(deltas, omegas)],
        "fraction_f": lambda: [kinematics.fraction_f(d, w)
                               for d, w in zip(deltas, omegas)],
        "loss_series": lambda: [traploss.loss_series(t, w, gamma, "approx")
                                for t, w in zip(times, omegas)],
        "loss_closed_form": lambda: [traploss.loss_closed_form(t, w, gamma, "approx")
                                     for t, w in zip(times, omegas)],
    }
    result = {name: best(stage) / points * 1.0e6 for name, stage in stages.items()}
    terms = [traploss.loss_series(t, w, gamma, "approx")[1]
             for t, w in zip(times, omegas)]
    result["loss_series_terms_mean"] = sum(terms) / len(terms)
    return result


def cli_call(argv: list) -> float:
    from cavloss import cli

    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(argv)
        if status != 0:
            raise RuntimeError(f"cavloss {argv} exited with {status}")
    return best(call)


def scans_s() -> dict:
    import numpy as np
    from cavloss import traploss

    params, cav = preset()
    out = {}
    for points in (200, 20_000):
        deltas = [m * TWO_PI_MHZ for m in np.linspace(-1000.0, -350.0, points)]
        library = best(lambda: traploss.scan_detuning(deltas, cav, params))
        command = cli_call(["scan", "--points", str(points)])
        out[f"scan_detuning_{points}"] = library
        out[f"cli_scan_{points}"] = command
        out[f"cli_formatting_share_{points}"] = 1.0 - library / command
    return out


def dynamics_s() -> dict:
    from cavloss import dynamics

    omega = 200.0 * TWO_PI_MHZ
    gamma = 2.0 * 6.0 * TWO_PI_MHZ
    dt = dynamics.max_stable_dt(omega, gamma) / 10.0
    t_end = 5.0 / gamma
    steps = max(1, math.ceil(t_end / dt - 1.0e-9))
    integrate = best(lambda: dynamics.integrate_master(
        dynamics.EXCITED_STATE, omega, gamma, t_end, dt))
    return {"steps": steps, "integrate_master": integrate,
            "cli_dynamics": cli_call(["dynamics", "--delta-mhz", "-350"])}


def cold_start_s() -> dict:
    commands = {
        "python_bare": ["-c", "pass"],
        "import_numpy": ["-c", "import numpy"],
        "constants": ["-m", "cavloss.cli", "constants"],
        "scan": ["-m", "cavloss.cli", "scan"],
        "validate": ["-m", "cavloss.cli", "validate"],
        "dynamics_-350": ["-m", "cavloss.cli", "dynamics", "--delta-mhz", "-350"],
    }
    out = {}
    for name, argv in commands.items():
        def call(argv=argv):
            subprocess.run([sys.executable] + argv, env=run.child_env(),
                           cwd=run.ROOT, check=True, timeout=120,
                           stdout=subprocess.DEVNULL)
        out[name] = best(call)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--output", default=str(run.BENCH / "baseline.json"))
    args = parser.parse_args()
    split = [run.import_split() for _ in range(REPEATS)]
    report = {
        "provenance": run.provenance(),
        "measured": time.strftime("%Y-%m-%d"),
        "method": f"best of {REPEATS}, one process at a time, default jobs=1",
        "per_point_us": per_point_us(),
        "scans_s": scans_s(),
        "dynamics_s": dynamics_s(),
        "cold_start_s": cold_start_s(),
        "import_split_s": {key: min(s[key] for s in split) for key in split[0]},
    }
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n",
                                 encoding="utf-8")
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
