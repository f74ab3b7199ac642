"""Smoke test of the benchmark itself (not part of the tier-1 suite).

Run from the repository root::

    python3 benchmarks/smoke.py

It checks that ``BENCHMARK.json`` keeps to its schema, that every
workload runs at tiny size and reports each named metric with its unit
in both modes, that two runs with one seed give byte-identical output,
that the correctness gate rejects corrupted CSV (a NaN row, a
``loss_cavity`` of 1.5), that a traced function missing from the
program is reported as absent, and that the benchmark refuses to run
without the program's sources.  Exit status 0 means every check passed.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from gate import Gate  # noqa: E402
from spans import Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def check_schema(spec: dict) -> None:
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, sorted(spec)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names)), "duplicate names"
    assert all(NAME.match(n) for n in names), names
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}, metric
        assert 0.0 < metric["bound"] <= 0.25, metric
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}, metric
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def check_workload(spec: dict, workload: str) -> str:
    digests = []
    for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"]),
                           (0, spec["end_to_end"])):
        proc = bench(workload, 7, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, proc.stdout
        assert result["attempted"] >= 1
        reported = {k: v["unit"] for k, v in result["metrics"].items()}
        assert reported == {m["name"]: m["unit"] for m in metrics}, reported
        digests.append(re.search(r"^output digest (\w+)$", proc.stdout,
                                 re.MULTILINE).group(1))
    assert len(set(digests)) == 1, f"{workload}: output differs between runs"
    return digests[0]


def check_gate() -> None:
    import cavloss
    import cavloss.cli

    spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    call = workloads.build("scan-wide", 3, "tiny")[0]
    work = BENCH / ".work" / "smoke-gate"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workloads.write_configs([call], work)
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert cavloss.cli.main(call.argv) == 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
    text = buffer.getvalue()
    gate = Gate(cavloss, oracles, seed=3, sample_rows=5)
    assert gate.check(call, text) == [], gate.check(call, text)

    lines = text.splitlines()
    header = lines[0].split(",")
    cells = lines[5].split(",")
    cells[header.index("f")] = "nan"
    with_nan = "\n".join(lines[:5] + [",".join(cells)] + lines[6:]) + "\n"
    problems = gate.check(call, with_nan)
    assert any("non-finite" in p for p in problems), problems

    cells = lines[9].split(",")
    cells[header.index("loss_cavity")] = "1.5"
    too_big = "\n".join(lines[:9] + [",".join(cells)] + lines[10:]) + "\n"
    problems = gate.check(call, too_big)
    assert any("loss_cavity=1.5" in p for p in problems), problems

    problems = gate.check(call, "\n".join(lines[:-1]) + "\n")
    assert any("rows for" in p for p in problems), problems


def check_absent() -> None:
    import cavloss.kinematics  # noqa: F401

    tracer = Tracer(traced=(("kinematics", "fraction_f_with_error_gone"),
                            ("no_such_module", "f")))
    tracer.install()
    assert tracer.absent == ["kinematics.fraction_f_with_error_gone",
                             "no_such_module.f"], tracer.absent


def check_bare_directory(spec: dict) -> None:
    bare = BENCH / ".work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "benchmarks",
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = bench("scan-wide", 1, 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, proc.stdout
    assert not proc.stdout.strip().startswith("{") and '"correct"' not in proc.stdout


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    checks = [("schema", lambda: check_schema(spec)),
              ("gate rejects corrupted CSV", check_gate),
              ("absent functions reported", check_absent),
              ("bare directory refused", lambda: check_bare_directory(spec))]
    checks += [(f"workload {w}", lambda w=w: check_workload(spec, w))
               for w in workloads.WORKLOADS]
    failures = 0
    for name, check in checks:
        try:
            check()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
