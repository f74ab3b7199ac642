"""Check that the CLI prints the same bytes at a git revision as in the working tree.

Usage, from the repository root::

    python3 scripts/same_bytes.py REV          # the 27 runs below
    python3 scripts/same_bytes.py REV --all    # plus every precision and 10^6 points

The committed files of REV are exported with ``git archive`` into a
temporary directory, so the repository gains no worktree entry.  Each run
starts a fresh isolated interpreter that writes no byte code
(``python -I -B``) on REV's ``src`` and then on the working tree's
``src``, in one directory that holds the config files, with
``COLUMNS=80`` for the help text.  Its stdout is hashed
as it streams, so the 10^6-point scan is never held in memory here.

One line per run gives the sha256 of stdout and of stderr and the exit
code of the working tree, and whether REV printed the same.  The exit
status is 1 when any run differs, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: config documents, by the file name the runs give to --config
CONFIGS = {
    "p17.json": {"output": {"precision": 17}},
    "p_excite.json": {"scan": {"include_p_excite": True}},
    "micro.json": {"coupling": {"mode": "microscopic"}},
    "analytic.json": {"scan": {"p_model": "analytic"}},
    "decay_free.json": {"species": {"gamma_a_mhz": 0.0}},
    "decay_free_micro.json": {"species": {"gamma_a_mhz": 0.0},
                              "coupling": {"mode": "microscopic"}},
    "wide_p17.json": {"output": {"precision": 17},
                      "coupling": {"mode": "microscopic"},
                      "scan": {"points": 2000, "from_mhz": -1500.0,
                               "p_model": "analytic",
                               "include_p_excite": True,
                               "allow_out_of_window": True}},
    **{f"p{p}.json": {"output": {"precision": p}} for p in range(6, 17)},
}

#: (name, argv) of every run: every command, both kernels and couplings,
#: out-of-window and refused scans, precision 17 and the decay-free limit
RUNS = [
    ("times-350", ["times", "--delta-mhz", "-350"]),
    ("times-700", ["times", "--delta-mhz", "-700"]),
    ("times-50", ["times", "--delta-mhz", "-50"]),
    ("times-tiny", ["times", "--delta-mhz=-1e-30"]),
    ("times-p17", ["--config", "p17.json", "times", "--delta-mhz", "-350"]),
    ("dynamics", ["dynamics", "--delta-mhz", "-350"]),
    ("dynamics-short", ["dynamics", "--delta-mhz", "-350", "--t-max-ns", "5",
                        "--dt-ps", "10"]),
    ("scan-default", ["scan"]),
    ("scan-analytic", ["scan", "--p-model", "analytic"]),
    ("scan-micro", ["scan", "--coupling", "microscopic"]),
    ("scan-oow", ["scan", "--from-mhz", "-1500", "--allow-out-of-window"]),
    ("scan-p-excite", ["--config", "p_excite.json", "scan"]),
    ("scan-20000", ["scan", "--points", "20000"]),
    ("scan-p17", ["--config", "p17.json", "scan"]),
    ("scan-wide-p17", ["--config", "wide_p17.json", "scan"]),
    ("scan-refused-oow", ["scan", "--from-mhz", "-1500"]),
    ("scan-bad-choice", ["scan", "--p-model", "exact"]),
    ("scan-help", ["scan", "--help"]),
    ("constants", ["constants"]),
    ("constants-micro", ["constants", "--coupling", "microscopic"]),
    ("validate", ["validate"]),
    ("validate-micro", ["--config", "micro.json", "validate"]),
    ("validate-analytic", ["--config", "analytic.json", "validate"]),
    ("validate-decay-free", ["--config", "decay_free.json", "validate"]),
    ("scan-decay-free", ["--config", "decay_free.json", "scan"]),
    ("dynamics-decay-free", ["--config", "decay_free.json", "dynamics",
                             "--delta-mhz", "-350"]),
    ("dynamics-decay-free-micro", ["--config", "decay_free_micro.json",
                                   "dynamics", "--delta-mhz", "-350"]),
]

#: the runs --all adds: a 5 000-point scan and a dynamics run at every
#: precision, and the 10^6-point scan
MORE_RUNS = [
    *((f"{command}-p{p}", ["--config", f"p{p}.json", command, *more])
      for command, more in (("scan", ["--points", "5000"]),
                            ("dynamics", ["--delta-mhz", "-600"]))
      for p in range(6, 18)),
    ("scan-1e6", ["scan", "--points", "1000000"]),
]

#: runs the CLI from the source tree given as the first argument
LAUNCH = ("import sys; sys.path.insert(0, sys.argv.pop(1)); "
          "from cavloss.cli import main; sys.exit(main())")


def export(rev: str, into: Path) -> Path:
    """The committed files of ``rev``, unpacked under ``into``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into


def outcome(src: Path, argv: list[str], cwd: Path) -> tuple[str, str, int]:
    """(sha256 of stdout, sha256 of stderr, exit code) of one CLI run."""
    stdout = hashlib.sha256()
    with tempfile.TemporaryFile() as stderr:
        with subprocess.Popen(
                [sys.executable, "-I", "-B", "-c", LAUNCH, str(src), *argv],
                cwd=cwd, stdout=subprocess.PIPE, stderr=stderr,
                env={"COLUMNS": "80", "LC_ALL": "C.UTF-8"}) as process:
            for block in iter(lambda: process.stdout.read(1 << 20), b""):
                stdout.update(block)
        stderr.seek(0)
        return (stdout.hexdigest(), hashlib.sha256(stderr.read()).hexdigest(),
                process.returncode)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rev", help="git revision to compare with")
    parser.add_argument("--all", action="store_true",
                        help="add scan and dynamics at precisions 6..17 "
                             "and the 10^6-point scan")
    args = parser.parse_args()
    runs = RUNS + (MORE_RUNS if args.all else [])
    differ = 0
    with tempfile.TemporaryDirectory() as workdir:
        workdir = Path(workdir)
        configs = workdir / "configs"
        configs.mkdir()
        for name, document in CONFIGS.items():
            (configs / name).write_text(json.dumps(document))
        base = export(args.rev, workdir / "rev") / "src"
        for name, argv in runs:
            then = outcome(base, argv, configs)
            now = outcome(ROOT / "src", argv, configs)
            differ += then != now
            print(f"{name:28s} stdout {now[0][:16]} stderr {now[1][:16]} "
                  f"exit {now[2]}  {'same' if then == now else 'DIFFERS'}",
                  flush=True)
    print(f"{len(runs) - differ}/{len(runs)} runs print the same bytes "
          f"as {args.rev}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
