"""Time the calls of a benchmark workload at a git revision and in the working tree.

Usage, from the repository root::

    python3 scripts/ab_calls.py REV --workload scan-wide [--seed 1] [--rounds 8]

A sizing aid: both versions run in one process, so the host's drift hits
both alike and a few percent show in a minute.  It does not replace the
paired ``benchmarks/run.py`` runs, which start a fresh interpreter per run.

The committed files of REV are exported with ``git archive``, as
``scripts/same_bytes.py`` does, into a temporary directory, and REV's
package ``src/cavloss`` is moved there to ``cavloss_rev``; it uses only
relative imports, so it loads beside the working tree's ``cavloss``.
The calls are those of ``benchmarks/workloads.py`` for the workload and
seed, with their config files written to that directory.  Each round
runs every call once into each version's ``cli.main``, the two in turn,
flipping which goes first from one call to the next.  Stdout is
captured in memory.

Printed: each version's median per-call time with its quartiles, the
median over calls of the ratio of the working tree's time to REV's,
every call (index and argv) whose stdout differs between the two, and
every call whose exit status is non-zero on either side or differs
between them, with both statuses.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import statistics
import sys
import tempfile
import time
from pathlib import Path

from same_bytes import ROOT, export


def timed(main, argv: list) -> tuple[float, str, int]:
    """Seconds, stdout and exit status of one call into ``main``."""
    buffer = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buffer):
        status = main(list(argv))
    return time.perf_counter() - start, buffer.getvalue(), status


def summary(name: str, seconds: list) -> str:
    low, median, high = statistics.quantiles(seconds, n=4)
    return (f"{name}: median {1e3 * median:.3f} ms per call "
            f"(quartiles {1e3 * low:.3f} .. {1e3 * high:.3f} ms)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rev", help="git revision to compare against")
    parser.add_argument("--workload", required=True,
                        help="a workload of benchmarks/workloads.py")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=8)
    args = parser.parse_args()
    if args.rounds < 2:   # quartiles need two calls per side
        parser.error("--rounds must be at least 2")

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    import workloads

    with tempfile.TemporaryDirectory() as name:
        directory = Path(name)
        tree = export(args.rev, directory / "rev")
        (tree / "src" / "cavloss").rename(directory / "cavloss_rev")
        sys.path.insert(0, name)
        mains = {"rev": importlib.import_module("cavloss_rev.cli").main,
                 "tree": importlib.import_module("cavloss.cli").main}
        calls = workloads.build(args.workload, args.seed)
        workloads.write_configs(calls, directory)

        seconds = {"rev": [], "tree": []}
        ratios, differ, statuses = [], set(), {}
        turn = 0
        for _ in range(args.rounds):
            for index, call in enumerate(calls):
                order = ("rev", "tree") if turn % 2 else ("tree", "rev")
                turn += 1
                result = {side: timed(mains[side], call.argv)
                          for side in order}
                for side, (elapsed, _, _) in result.items():
                    seconds[side].append(elapsed)
                ratios.append(result["tree"][0] / result["rev"][0])
                if result["tree"][1] != result["rev"][1]:
                    differ.add(index)
                status = (result["rev"][2], result["tree"][2])
                if status != (0, 0):
                    statuses[index] = status

    print(f"{args.workload}, seed {args.seed}: {len(calls)} calls x "
          f"{args.rounds} rounds")
    print(summary(f"{args.rev:>8}", seconds["rev"]))
    print(summary("    tree", seconds["tree"]))
    print(f"median per-call ratio tree/{args.rev}: "
          f"{statistics.median(ratios):.4f}")
    for index in sorted(differ):
        print(f"stdout differs: call {index}: {' '.join(calls[index].argv)}")
    for index, (rev, tree) in sorted(statuses.items()):
        print(f"exit status {rev} at {args.rev}, {tree} in the tree: "
              f"call {index}: {' '.join(calls[index].argv)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
