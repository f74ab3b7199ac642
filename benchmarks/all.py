"""Run every workload and print one table of its metrics.

Run from the repository root::

    python3 benchmarks/all.py --seed 1 --seconds 25 [--trace 1]

Each workload is a separate ``run.py`` invocation, one after the other.
Rows are metrics with their units, columns are workloads.  Exit status
is 0 only if every run succeeded and every output passed the gate.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    results = {}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=BENCH.parent, capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            print(f"{workload}: benchmark failed\n{proc.stderr}", file=sys.stderr)
            return 2
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])

    names = list(results[workloads.WORKLOADS[0]]["metrics"])
    width = max(len(n) for n in names) + 8
    print(f"{'metric [unit]':<{width}}" + "".join(f"{w:>18}" for w in results))
    for name in names:
        unit = results[workloads.WORKLOADS[0]]["metrics"][name]["unit"]
        cells = "".join(f"{r['metrics'][name]['value']:>18.6g}"
                        for r in results.values())
        print(f"{name + ' [' + unit + ']':<{width}}{cells}")
    failed = "".join(f"{r['failed']:>12d}/{r['attempted']:<5d}"
                     for r in results.values())
    print(f"{'failed/attempted':<{width}}{failed}")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
