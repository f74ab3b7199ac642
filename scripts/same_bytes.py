"""Check that the CLI prints the same bytes at a git revision as in the working tree.

Usage, from the repository root::

    python3 scripts/same_bytes.py REV          # the runs below, twice
    python3 scripts/same_bytes.py REV --all    # plus every precision and 10^6 points

The committed files of REV are exported with ``git archive`` into a
temporary directory, so the repository gains no worktree entry.  Each run
starts a fresh isolated interpreter that writes no byte code
(``python -I -B``) on REV's ``src`` and then on the working tree's
``src``, in one directory that holds the config files, with
``COLUMNS=80`` for the help text.  Its stdout is hashed
as it streams, so the 10^6-point scan is never held in memory here.

The last bits of the output, and so the bytes compared, depend on the
kernels that numpy dispatches for this CPU.  So every run is made in two
passes: under the host's default dispatch, and again with the AVX-512
kernels off (``NPY_DISABLE_CPU_FEATURES`` set in the children's
environment only).

One line per run and pass gives the sha256 of stdout and of stderr and
the exit code of the working tree, and whether REV printed the same.  A
run that names ``--output out.csv`` also gives the sha256 of the file it
wrote, and one more line per pass checks that file against the stdout
of its twin, the run whose argv is the same without ``--output out.csv``.
The summary line ends with the kernel that numpy dispatches for float64
``exp`` in each pass (for example ``X86_V4`` and ``X86_V3``), read in one
more such interpreter.  The exit status is 1 when any run differs, and 0
otherwise; a file that differs from its twin's stdout counts as a run
that differs.
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
    "micro_blue_ref.json": {"coupling": {"mode": "microscopic",
                                         "delta_ref_mhz": 100.0}},
    "analytic.json": {"scan": {"p_model": "analytic"}},
    "decay_free.json": {"species": {"gamma_a_mhz": 0.0}},
    "decay_free_micro.json": {"species": {"gamma_a_mhz": 0.0},
                              "coupling": {"mode": "microscopic"}},
    "slow_decay_micro.json": {"species": {"gamma_a_mhz": 0.01},
                              "coupling": {"mode": "microscopic"}},
    "zero_length.json": {"cavity": {"length_cm": 0}},
    "anchored_blue_ref.json": {"coupling": {"delta_ref_mhz": 100}},
    "tiny_lambda.json": {"species": {"lambda_nm": 1e-320}},
    "tiny_gamma.json": {"species": {"gamma_a_mhz": 1e-320}},
    "huge_c3.json": {"species": {"c3_erg_ang3": 1e300}},
    "huge_gamma.json": {"species": {"gamma_a_mhz": 1e300}},
    "huge_trap_depth.json": {"species": {"trap_depth_mk": 1e300}},
    "huge_mass.json": {"species": {"mass_amu": 1e300}},
    "huge_delta_ref.json": {"coupling": {"delta_ref_mhz": -1e308}},
    "huge_omega_ref.json": {"coupling": {"omega_tilde_ref_mhz": 1e308}},
    "micro_huge_delta_ref.json": {"coupling": {"mode": "microscopic",
                                               "delta_ref_mhz": -1e308}},
    "overflowing_from.json": {"scan": {"from_mhz": -1e308}},
    "oow.json": {"scan": {"from_mhz": -1500.0}},
    "slow_p_excite.json": {"scan": {"include_p_excite": True},
                           "coupling": {"v_inf_cm_s": 1e-320}},
    "long_cavity.json": {"cavity": {"length_cm": 1e308}},
    "short_cavity.json": {"cavity": {"length_cm": 1e-300}},
    "dense_micro.json": {"coupling": {"mode": "microscopic"},
                         "cavity": {"n_atoms": 1e308, "density_cm3": 1e308}},
    "wide_p17.json": {"output": {"precision": 17},
                      "coupling": {"mode": "microscopic"},
                      "scan": {"points": 2000, "from_mhz": -1500.0,
                               "p_model": "analytic",
                               "include_p_excite": True,
                               "allow_out_of_window": True}},
    "overdamped.json": {"coupling": {"omega_tilde_ref_mhz": 1.0},
                        "scan": {"p_model": "analytic"}},
    "near_critical.json": {"coupling": {"omega_tilde_ref_mhz": 3.0},
                           "scan": {"p_model": "analytic"}},
    "three_regimes.json": {"species": {"gamma_a_mhz": 1000.0},
                           "coupling": {"omega_tilde_ref_mhz": 1000.0},
                           "scan": {"p_model": "analytic"}},
    "strong_coupling.json": {"coupling": {"omega_tilde_ref_mhz": 5000.0},
                             "scan": {"allow_out_of_window": True}},
    **{f"p{p}.json": {"output": {"precision": p}} for p in range(6, 17)},
}

#: the file that the --output runs write, in the config directory
OUTPUT = "out.csv"

#: (name, argv) of every run: every command, both kernels and couplings,
#: out-of-window scans, scans refused at either end of the window, a
#: validate over a grid beyond the window, a refused validate config, refused
#: dynamics steps and step counts, reference detunings refused by every
#: command, species values, coupling references, cavity values, a scan
#: bound (in scan and validate) and a p_excite column beyond the float
#: range, an in-fall time beyond it, precision 17, the decay-free limit,
#: a validate whose series sums 2^14 to 2^15 terms, validate taking
#: --coupling and writing to --output,
#: analytic scans whose grids take one damping form or mix two or three,
#: a scan whose escape ratios lie on both sides of 1/2, output files, an
#: output path in a missing directory, an empty output path, and constants
#: and dynamics runs whose builtin floats divide by zero, overflow with an
#: error or overflow to inf without one
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
    ("scan-refused-oow-top", ["scan", "--to-mhz", "-300"]),
    ("scan-bad-choice", ["scan", "--p-model", "exact"]),
    ("scan-help", ["scan", "--help"]),
    ("constants", ["constants"]),
    ("constants-micro", ["constants", "--coupling", "microscopic"]),
    ("constants-micro-blue-ref", ["--config", "micro_blue_ref.json",
                                  "constants"]),
    ("validate", ["validate"]),
    ("validate-micro", ["--config", "micro.json", "validate"]),
    ("validate-analytic", ["--config", "analytic.json", "validate"]),
    ("validate-decay-free", ["--config", "decay_free.json", "validate"]),
    ("validate-slow-decay-micro", ["--config", "slow_decay_micro.json",
                                   "validate"]),
    ("scan-decay-free", ["--config", "decay_free.json", "scan"]),
    ("dynamics-decay-free", ["--config", "decay_free.json", "dynamics",
                             "--delta-mhz", "-350"]),
    ("dynamics-decay-free-micro", ["--config", "decay_free_micro.json",
                                   "dynamics", "--delta-mhz", "-350"]),
    ("validate-zero-length", ["--config", "zero_length.json", "validate"]),
    ("dynamics-coarse-dt", ["dynamics", "--delta-mhz", "-350",
                            "--dt-ps", "1000"]),
    ("dynamics-zero-dt", ["dynamics", "--delta-mhz", "-350", "--dt-ps", "0"]),
    ("dynamics-underflow-dt", ["dynamics", "--delta-mhz", "-350",
                               "--dt-ps", "1e-320"]),
    ("dynamics-negative-t", ["dynamics", "--delta-mhz", "-350",
                             "--t-max-ns", "-1"]),
    ("constants-anchored-blue-ref", ["--config", "anchored_blue_ref.json",
                                     "constants"]),
    ("constants-tiny-lambda", ["--config", "tiny_lambda.json", "constants"]),
    ("scan-tiny-gamma", ["--config", "tiny_gamma.json", "scan"]),
    ("scan-overflowing-from", ["scan", "--from-mhz=-1e308", "--to-mhz",
                               "-350", "--allow-out-of-window"]),
    ("validate-huge-c3", ["--config", "huge_c3.json", "validate"]),
    ("scan-huge-delta-ref", ["--config", "huge_delta_ref.json", "scan"]),
    ("validate-huge-omega-ref", ["--config", "huge_omega_ref.json",
                                 "validate"]),
    ("constants-micro-huge-delta-ref", ["--config",
                                        "micro_huge_delta_ref.json",
                                        "constants"]),
    ("dynamics-tiny-gamma", ["--config", "tiny_gamma.json", "dynamics",
                             "--delta-mhz", "-350"]),
    ("dynamics-over-cap", ["dynamics", "--delta-mhz", "-350",
                           "--t-max-ns", "1e6"]),
    ("times-huge-mass", ["--config", "huge_mass.json", "times",
                         "--delta-mhz", "-350"]),
    ("scan-slow-p-excite", ["--config", "slow_p_excite.json", "scan"]),
    ("constants-long-cavity", ["--config", "long_cavity.json", "constants"]),
    ("scan-short-cavity", ["--config", "short_cavity.json", "scan"]),
    ("scan-dense-micro", ["--config", "dense_micro.json", "scan"]),
    ("scan-overdamped", ["--config", "overdamped.json", "scan"]),
    ("scan-near-critical", ["--config", "near_critical.json", "scan"]),
    ("scan-three-regimes", ["--config", "three_regimes.json", "scan"]),
    ("scan-strong-coupling", ["--config", "strong_coupling.json", "scan"]),
    ("scan-default-output", ["scan", "--output", OUTPUT]),
    ("scan-20000-output", ["scan", "--points", "20000", "--output", OUTPUT]),
    ("dynamics-output", ["dynamics", "--delta-mhz", "-350",
                         "--output", OUTPUT]),
    ("dynamics-decay-free-output", ["--config", "decay_free.json", "dynamics",
                                    "--delta-mhz", "-350", "--output", OUTPUT]),
    ("constants-micro-tiny-gamma", ["--config", "tiny_gamma.json",
                                    "constants", "--coupling", "microscopic"]),
    ("dynamics-huge-gamma", ["--config", "huge_gamma.json", "dynamics",
                             "--delta-mhz", "-350"]),
    ("dynamics-micro-huge-c3", ["--config", "huge_c3.json", "dynamics",
                                "--delta-mhz", "-350", "--coupling",
                                "microscopic"]),
    ("constants-micro-huge-gamma", ["--config", "huge_gamma.json",
                                    "constants", "--coupling", "microscopic"]),
    ("constants-huge-trap-depth", ["--config", "huge_trap_depth.json",
                                   "constants"]),
    ("constants-huge-gamma", ["--config", "huge_gamma.json", "constants"]),
    ("scan-micro-blue-ref", ["--config", "micro_blue_ref.json", "scan"]),
    ("times-micro-huge-delta-ref", ["--config", "micro_huge_delta_ref.json",
                                    "times", "--delta-mhz", "-350"]),
    ("validate-overflowing-from", ["--config", "overflowing_from.json",
                                   "validate"]),
    ("scan-output-missing-dir", ["scan", "--output", "missing/" + OUTPUT]),
    ("constants-empty-output", ["constants", "--output", ""]),
    ("validate-decay-free-micro", ["--config", "decay_free_micro.json",
                                   "validate"]),
    ("validate-output", ["validate", "--output", OUTPUT]),
    ("validate-micro-flag", ["validate", "--coupling", "microscopic"]),
    ("validate-oow", ["--config", "oow.json", "validate"]),
]

#: the runs --all adds: a 5 000-point scan and a dynamics run at every
#: precision, and the 10^6-point scan
MORE_RUNS = [
    *((f"{name}-p{p}", ["--config", f"p{p}.json", *argv])
      for name, argv in (("scan-5000", ["scan", "--points", "5000"]),
                         ("dynamics", ["dynamics", "--delta-mhz", "-600"]))
      for p in range(6, 18)),
    ("scan-1e6", ["scan", "--points", "1000000"]),
]

#: runs the CLI from the source tree given as the first argument
LAUNCH = ("import sys; sys.path.insert(0, sys.argv.pop(1)); "
          "from cavloss.cli import main; sys.exit(main())")

#: prints the kernel that numpy dispatches for float64 exp
DISPATCH = ("import numpy as np; "
            "info = np.lib.introspect.opt_func_info("
            "func_name='^exp$', signature='float64'); "
            "print(*(kernel['current'] for signatures in info.values() "
            "for kernel in signatures.values()))")

#: the environment of every child: the help text's width and a locale
ENV = {"COLUMNS": "80", "LC_ALL": "C.UTF-8"}

#: (name, what the pass adds to ENV): the host's default numpy dispatch,
#: then the same runs with the AVX-512 kernels off
PASSES = [
    ("default", {}),
    ("no-avx512", {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"}),
]


def output_twins(runs: list) -> dict:
    """Name -> twin name of every run that names ``--output out.csv``: the
    run whose argv is the same without those two words."""
    by_argv = {tuple(argv): name for name, argv in runs}
    twins = {}
    for name, argv in runs:
        if OUTPUT in argv:
            at = argv.index(OUTPUT)
            twins[name] = by_argv[tuple(argv[:at - 1] + argv[at + 1:])]
    return twins


def export(rev: str, into: Path) -> Path:
    """The committed files of ``rev``, unpacked under ``into``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into


def outcome(src: Path, argv: list[str], cwd: Path,
            env: dict) -> tuple[str, str, int, str]:
    """(sha256 of stdout, sha256 of stderr, exit code, sha256 of the
    --output file or "") of one CLI run in ``env``; the file is removed."""
    stdout = hashlib.sha256()
    with tempfile.TemporaryFile() as stderr:
        with subprocess.Popen(
                [sys.executable, "-I", "-B", "-c", LAUNCH, str(src), *argv],
                cwd=cwd, stdout=subprocess.PIPE, stderr=stderr,
                env=env) as process:
            for block in iter(lambda: process.stdout.read(1 << 20), b""):
                stdout.update(block)
        stderr.seek(0)
        written = cwd / OUTPUT
        file_sha = ""
        if written.exists():
            file_sha = hashlib.sha256(written.read_bytes()).hexdigest()
            written.unlink()
        return (stdout.hexdigest(), hashlib.sha256(stderr.read()).hexdigest(),
                process.returncode, file_sha)


def exp_dispatch(env: dict) -> str:
    """The kernel that numpy dispatches for float64 exp in a child in ``env``."""
    return subprocess.run([sys.executable, "-I", "-B", "-c", DISPATCH],
                          check=True, capture_output=True, text=True,
                          env=env).stdout.strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rev", help="git revision to compare with")
    parser.add_argument("--all", action="store_true",
                        help="add scan and dynamics at precisions 6..17 "
                             "and the 10^6-point scan")
    args = parser.parse_args()
    runs = RUNS + (MORE_RUNS if args.all else [])
    twins = output_twins(runs)
    differ = unlike = 0
    with tempfile.TemporaryDirectory() as workdir:
        workdir = Path(workdir)
        configs = workdir / "configs"
        configs.mkdir()
        for name, document in CONFIGS.items():
            (configs / name).write_text(json.dumps(document))
        base = export(args.rev, workdir / "rev") / "src"
        dispatches = []
        for pass_name, extra in PASSES:
            env = {**ENV, **extra}
            dispatches.append(f"{pass_name} {exp_dispatch(env)}")
            seen = {}   # name -> the working tree's outcome in this pass
            for name, argv in runs:
                then = outcome(base, argv, configs, env)
                now = seen[name] = outcome(ROOT / "src", argv, configs, env)
                differ += then != now
                file = f" file {now[3][:16]}" if now[3] else ""
                print(f"{pass_name:9s} {name:28s} stdout {now[0][:16]} "
                      f"stderr {now[1][:16]} exit {now[2]}{file}  "
                      f"{'same' if then == now else 'DIFFERS'}", flush=True)
            for name, twin in twins.items():
                same = seen[name][3] == seen[twin][0]
                unlike += not same
                print(f"{pass_name:9s} {name:28s} file = stdout of {twin}  "
                      f"{'same' if same else 'DIFFERS'}", flush=True)
    total = len(runs) * len(PASSES)
    files = len(twins) * len(PASSES)
    print(f"{total - differ}/{total} runs print the same bytes as "
          f"{args.rev}, {files - unlike}/{files} --output files their "
          f"twins' stdout; numpy float64 exp dispatch: "
          f"{', '.join(dispatches)}")
    return 1 if differ or unlike else 0


if __name__ == "__main__":
    sys.exit(main())
