"""Count the CSV cells that move between a git revision and the working tree.

Usage, from the repository root::

    python3 scripts/csv_moves.py REV ARGV...

for example ``python3 scripts/csv_moves.py HEAD dynamics --delta-mhz -350``.
Digits are set by the config, so ``--config p17.json`` in ARGV, with
``p17.json`` holding ``{"output": {"precision": 17}}``, counts at 17.

The committed files of REV are exported with ``git archive``, as
``scripts/same_bytes.py`` does, and the CLI runs with ARGV in a fresh
isolated interpreter on REV's ``src`` and then on the working tree's,
both in the current directory, so a relative path in ARGV names the same
file.  Both runs must exit 0 and print CSV with one header and as many
rows.

Printed, one line per column: the number of cells whose text differs,
out of the rows, and the largest absolute and relative difference of
their values, relative to the larger of the two magnitudes.  The exit
status is 0 when no cell moved, and 1 when one did or a run failed.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from same_bytes import ENV, LAUNCH, ROOT, export


def cells(src: Path, argv: list[str],
          name: str) -> tuple[list[str], np.ndarray]:
    """The header and the cell texts, one row per line, that the CLI on
    ``src``, the tree called ``name``, prints for ``argv``."""
    run = subprocess.run([sys.executable, "-I", "-B", "-c", LAUNCH, str(src),
                          *argv], capture_output=True, text=True, env=ENV)
    if run.returncode != 0:
        sys.exit(f"{name} exited {run.returncode}: {run.stderr.strip()}")
    header, *rows = run.stdout.splitlines()
    header = header.split(",")
    return header, np.array([row.split(",") for row in rows]).reshape(
        len(rows), len(header))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rev", help="git revision to compare with")
    parser.add_argument("argv", nargs=argparse.REMAINDER,
                        help="the CLI arguments of both runs")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as workdir:
        base = export(args.rev, Path(workdir)) / "src"
        header, then = cells(base, args.argv, args.rev)
    now_header, now = cells(ROOT / "src", args.argv, "the working tree")
    if now_header != header or now.shape != then.shape:
        sys.exit(f"the header or the row count differs: {header} and "
                 f"{then.shape} at {args.rev}, {now_header} and {now.shape}")
    moved = then != now
    old, new = then.astype(float), now.astype(float)
    gap = np.where(moved, np.abs(new - old), 0.0)
    scale = np.maximum(np.abs(old), np.abs(new))
    relative = np.divide(gap, scale, out=np.zeros_like(gap), where=moved)
    print(f"{'column':16s} {'moved':>15s} {'worst_abs':>10s} "
          f"{'worst_rel':>10s}")
    for k, name in enumerate(header):
        print(f"{name:16s} {moved[:, k].sum():>7d}/{len(then):<7d} "
              f"{gap[:, k].max(initial=0.0):10.3g} "
              f"{relative[:, k].max(initial=0.0):10.3g}")
    return 1 if moved.any() else 0


if __name__ == "__main__":
    sys.exit(main())
