"""cavloss benchmark: end-to-end metrics, or per-layer metrics when traced.

Usage, from the repository root::

    python3 benchmarks/run.py --workload scan-wide --seed 1 --seconds 12 --trace 0

The benchmark drives only ``cavloss.cli.main(argv)`` with generated
``--config`` files (see ``workloads.py``).  Every workload runs in one
fresh child interpreter at a time (``child.py``) with the default
single worker.  Human-readable lines come first; the last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The program is imported from ``src/`` of the checkout the
script lives in; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads
from calibrate import (REFERENCE_IMPORT_S, REFERENCE_S, import_calibration_s,
                       scale)
from spans import TRACED

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: spawn -> ready probe: the cost every CLI invocation pays before work
PROBE = "import cavloss.cli; print('ready', flush=True)"
#: fresh-interpreter samples per run, by workload size
SETUP_SAMPLES = {"full": 7, "tiny": 2}
IMPORT_SPLIT_SAMPLES = {"full": 3, "tiny": 1}
CHILD_TIMEOUT_S = 150.0

#: recomputed rows per scan call in the correctness gate
SAMPLE_ROWS = {"scan-wide": 40, "scan-sweep": 1, "dynamics-series": 0}

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "rows_per_s": "1/s", "call_ms_p50": "ms",
    "call_ms_tail": "ms", "peak_rss_mb": "MB", "ok_frac": "ratio",
}

LAYER_FUNCTIONS = tuple(f"{module}.{function}" for module, function in TRACED)

PER_LAYER_UNITS = {
    **{f"{f}.calls": "count" for f in LAYER_FUNCTIONS},
    **{f"{f}.self_ms": "ms" for f in LAYER_FUNCTIONS},
    "setup.numpy_s": "s", "setup.scipy_s": "s", "setup.cavloss_s": "s",
    "traploss.loss_series.terms": "count",
    "dynamics.integrate_master.samples": "count",
    "traploss.loss_series.waste_share": "ratio",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here; reported with exit status 2."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def check_checkout() -> None:
    for needed in ("src/cavloss/cli.py", "tests/oracles.py"):
        if not (ROOT / needed).is_file():
            raise BenchError(f"{needed} not found under {ROOT}")


# -- set-up --------------------------------------------------------------


def spawn_to_ready() -> float:
    """Seconds from spawning a fresh interpreter to cavloss.cli imported."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", PROBE], env=child_env(),
                          cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        status = proc.wait(timeout=60)
    if line.strip() != "ready" or status != 0:
        raise BenchError(f"set-up probe failed (status {status})")
    return elapsed


def setup_samples(count: int) -> list[tuple[float, float]]:
    """(seconds, scale to the reference host) of ``count`` spawns."""
    spawn_to_ready()   # warm the byte-code and file caches; not counted
    samples = []
    last_calibration = import_calibration_s()
    for _ in range(count):
        elapsed = spawn_to_ready()
        calibration = import_calibration_s()
        samples.append((elapsed, scale([last_calibration, calibration],
                                       REFERENCE_IMPORT_S)))
        last_calibration = calibration
    return samples


def parse_importtime(stderr: str) -> list:
    """Import tree from ``-X importtime`` output: [name, cum_s, children]."""
    pending: list[tuple[int, list]] = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:"):
            continue
        try:
            cumulative = int(parts[1]) * 1.0e-6
        except ValueError:   # the header line
            continue
        label = parts[2][1:]
        level = (len(label) - len(label.lstrip(" "))) // 2
        children = []
        while pending and pending[-1][0] == level + 1:
            children.insert(0, pending.pop()[1])
        pending.append((level, [label.strip(), cumulative, children]))
    return [node for level, node in pending if level == 0]


def _outermost(nodes: list, prefix: str) -> float:
    total = 0.0
    for name, cumulative, children in nodes:
        if name == prefix or name.startswith(prefix + "."):
            total += cumulative
        else:
            total += _outermost(children, prefix)
    return total


SPLIT_PROBE = """
import time
start = time.perf_counter()
import numpy
numpy_done = time.perf_counter()
import cavloss.cli
print(numpy_done - start, time.perf_counter() - numpy_done)
"""


def import_split() -> dict:
    """numpy, scipy and cavloss shares of the CLI import, in fresh children.

    numpy and cavloss (after numpy) are timed plainly.  ``-X importtime``
    inflates every import, so it only gives scipy's share of the cavloss
    import, which is applied to the plain cavloss time.
    """
    plain = subprocess.run([sys.executable, "-c", SPLIT_PROBE], env=child_env(),
                           cwd=ROOT, capture_output=True, text=True, timeout=60)
    tree = subprocess.run([sys.executable, "-X", "importtime", "-c", SPLIT_PROBE],
                          env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=60)
    if plain.returncode != 0 or tree.returncode != 0:
        raise BenchError(f"import split failed: {plain.stderr[-500:]}"
                         f"{tree.stderr[-500:]}")
    numpy_s, cavloss_s = (float(v) for v in plain.stdout.split())
    roots = parse_importtime(tree.stderr)
    cavloss_tree = [node for node in roots if node[0].split(".")[0] == "cavloss"]
    cavloss_cum = sum(cum for _, cum, _ in cavloss_tree)
    scipy_share = _outermost(cavloss_tree, "scipy") / cavloss_cum
    return {"setup.numpy_s": numpy_s, "setup.scipy_s": cavloss_s * scipy_share,
            "setup.cavloss_s": cavloss_s}


# -- provenance ----------------------------------------------------------


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown (git not available)"
    return proc.stdout.strip() or "unknown"


def _runtime_dependencies() -> object:
    try:
        import tomllib
    except ImportError:   # Python 3.10
        return "unknown"
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    return len(tomllib.loads(text)["project"].get("dependencies", []))


def provenance() -> dict:
    src_lines = sum(len(path.read_text(encoding="utf-8").splitlines())
                    for path in sorted((ROOT / "src" / "cavloss").rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_sha": _git_sha(),
        "src_cavloss_lines": src_lines,
        "runtime_dependencies": _runtime_dependencies(),
    }


# -- statistics ----------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(count: int) -> float:
    """Highest of p90 and p50 with at least ten samples beyond it.

    Capped at p90: on a small shared host p99 measures interference from
    other processes more than the program, and a faster program, which
    fits more calls into a run, must not be compared at a higher
    percentile.  Below twenty samples p50 is reported.
    """
    for q in (90.0, 50.0):
        if count * (1.0 - q / 100.0) >= 10.0:
            return q
    return 50.0


def end_to_end(result: dict, setup: list[tuple[float, float]]
               ) -> tuple[dict, list[str]]:
    """End-to-end metrics; every time is scaled to the reference host."""
    passes = result["untraced"]
    raw_walls = [sum(p["times"]) for p in passes]
    walls = [sum(p["scaled"]) for p in passes]
    times_ms = [t * 1000.0 for p in passes for t in p["scaled"]]
    setup_scaled = [elapsed * factor for elapsed, factor in setup]
    rows = passes[0]["rows"]   # identical in every pass
    q = tail_percentile(len(times_ms))
    attempted, failed = outcome(result)
    values = {
        "setup_s": statistics.median(setup_scaled),
        "wall_s": statistics.median(walls),
        "rows_per_s": rows / statistics.median(walls),
        "call_ms_p50": statistics.median(times_ms),
        "call_ms_tail": percentile(times_ms, q),
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_frac": (attempted - failed) / attempted,
    }
    beyond = sum(t > values["call_ms_tail"] for t in times_ms)
    notes = [
        f"times are scaled to a host on which the calibration takes "
        f"{REFERENCE_S} s and the import calibration {REFERENCE_IMPORT_S} s",
        f"setup_s: median of {len(setup)} spawns, scaled: "
        + ", ".join(f"{s:.4f}" for s in setup_scaled) + "; raw: "
        + ", ".join(f"{elapsed:.4f}" for elapsed, _ in setup),
        f"wall_s: median of {len(walls)} passes of {result['calls']} calls, "
        "scaled: " + ", ".join(f"{w:.4f}" for w in walls) + "; raw: "
        + ", ".join(f"{w:.4f}" for w in raw_walls),
        f"rows_per_s: {rows} CSV rows per pass over the median pass time",
        f"call_ms_tail: p{q:g} of {len(times_ms)} calls, {beyond} beyond it",
        f"failed_frac: {failed}/{attempted} = {failed / attempted:g}",
    ]
    return values, notes


def per_layer(result: dict, split: list[dict]) -> tuple[dict, list[str]]:
    traced = [p["trace"] for p in result["traced"]]
    first = traced[0]
    values = {}
    for name in LAYER_FUNCTIONS:
        values[f"{name}.calls"] = first["functions"][name]["calls"]
        values[f"{name}.self_ms"] = statistics.median(
            t["functions"][name]["self_s"] * 1000.0 for t in traced)
    for key in ("setup.numpy_s", "setup.scipy_s", "setup.cavloss_s"):
        values[key] = statistics.median(s[key] for s in split)
    values["traploss.loss_series.terms"] = first["series_terms"]
    values["dynamics.integrate_master.samples"] = first["master_samples"]
    point_s = sum(t["functions"]["traploss.loss_point"]["total_s"] for t in traced)
    waste_s = sum(t["waste_s"] for t in traced)
    values["traploss.loss_series.waste_share"] = waste_s / point_s if point_s else 0.0
    untraced_wall = statistics.median(sum(p["times"]) for p in result["untraced"])
    traced_wall = statistics.median(sum(p["times"]) for p in result["traced"])
    values["trace.overhead_s"] = traced_wall - untraced_wall
    notes = [
        f"tracing overhead: traced wall_s {traced_wall:.4f} s - untraced "
        f"wall_s {untraced_wall:.4f} s = {traced_wall - untraced_wall:.4f} s "
        f"({len(result['traced'])} traced, {len(result['untraced'])} untraced passes)",
        "calls and counts are per pass; self_ms is the median per pass",
    ]
    if result["absent"]:
        notes.append("absent at this commit (reported as 0): "
                     + ", ".join(result["absent"]))
    return values, notes


def outcome(result: dict) -> tuple[int, int]:
    """(attempted, failed) calls over every pass, gate included."""
    passes = result["untraced"] + result["traced"]
    attempted = sum(len(p["errors"]) for p in passes)
    failed = sum(bool(e) for p in passes for e in p["errors"])
    # the gate checks first-pass outputs; count a call once
    first = passes[0]["errors"]
    failed += sum(1 for i, problems in enumerate(result["gate"])
                  if problems and not first[i])
    return attempted, failed


# -- entry point ---------------------------------------------------------


def run_child(args, work: Path) -> dict:
    spec = {
        "root": str(ROOT), "workload": args.workload, "seed": args.seed,
        "size": args.size, "seconds": args.seconds, "trace": args.trace,
        "work_dir": str(work), "result": str(work / "result.json"),
        "sample_rows": SAMPLE_ROWS[args.workload],
    }
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), str(spec_path)],
                          env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError(f"workload child failed ({proc.returncode}): "
                         f"{proc.stderr[-2000:]}")
    return json.loads((work / "result.json").read_text(encoding="utf-8"))


def report(args, result: dict, metrics: dict, units: dict,
           notes: list[str]) -> dict:
    attempted, failed = outcome(result)
    print(f"cavloss benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("provenance " + json.dumps(provenance(), sort_keys=True))
    print(f"output digest {result['digest']}")
    for name, value in metrics.items():
        print(f"  {name} = {value!r} {units[name]}")
    for note in notes:
        print(f"  # {note}")
    for skipped in result["gate_skipped"]:
        print(f"  # gate check skipped: {skipped}")
    for index, problems in enumerate(result["gate"]):
        for problem in problems[:5]:
            print(f"  ! call {index}: {problem}")
    for number, record in enumerate(result["untraced"] + result["traced"]):
        for index, error in enumerate(record["errors"]):
            if error:
                print(f"  ! pass {number} call {index}: {error.strip()}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="'tiny' is for the smoke test only")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        check_checkout()
        work_root = BENCH / ".work"
        work_root.mkdir(exist_ok=True)
        work = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
        work.mkdir()
        try:
            if args.trace:
                split = [import_split() for _ in range(IMPORT_SPLIT_SAMPLES[args.size])]
                result = run_child(args, work)
                metrics, notes = per_layer(result, split)
                units = PER_LAYER_UNITS
            else:
                setup = setup_samples(SETUP_SAMPLES[args.size])
                result = run_child(args, work)
                metrics, notes = end_to_end(result, setup)
                units = END_TO_END_UNITS
        finally:
            shutil.rmtree(work, ignore_errors=True)
            with contextlib.suppress(OSError):
                work_root.rmdir()   # only if no other run is using it
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    line = report(args, result, metrics, units, notes)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
