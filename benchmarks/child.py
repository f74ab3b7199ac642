"""Benchmark worker: one fresh interpreter that runs one workload.

Started by ``run.py`` as ``python3 child.py SPEC.json``.  It imports
``cavloss.cli`` from the checkout's ``src/`` and calls its ``main`` on
the workload's argv lists, pass after pass, until the time budget is
spent.  Output is captured per call; only the first pass is kept for
the correctness gate, later passes are reduced to digests that must
match the first pass byte for byte.

With tracing on, untraced and traced passes alternate, so the tracing
overhead is measured in the same process under the same conditions.
The result is written as JSON to the path named in the spec.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads
from calibrate import calibration_s, scale
from gate import Gate
from spans import Tracer

#: longest stretch of calls between two calibrations of the host's speed
CHUNK_S = 0.2
#: least share of a stretch's time spent calibrating after it
CALIBRATION_SHARE = 0.04
#: a call is scaled by the calibrations taken up to this long before or after it
SMOOTH_S = 0.6


def calibrate_after(stretch_s: float) -> tuple[float, float]:
    """(midpoint, mean seconds) of calibrations after a stretch of calls.

    Longer stretches get more repeats, so that each one is scaled by
    about the same share of calibration time.
    """
    start = time.perf_counter()
    samples = []
    while not samples or sum(samples) < CALIBRATION_SHARE * stretch_s:
        samples.append(calibration_s())
    return 0.5 * (start + time.perf_counter()), statistics.fmean(samples)


def run_call(cli, argv: list) -> tuple[float, str, str]:
    """Time one call into main; returns (seconds, stdout, error or '')."""
    buffer = io.StringIO()
    error = ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buffer):
            status = cli.main(list(argv))
    except SystemExit as exc:   # argparse exits on bad argv
        status = exc.code
    except Exception:
        status = None
        error = traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - start
    if status != 0 and not error:
        error = f"exit status {status!r}"
    return elapsed, buffer.getvalue(), error


def run_passes(cli, calls, budget_s: float, first_texts: list, digests: list,
               tracer=None) -> list[dict]:
    """Run whole passes until ``budget_s`` is spent; at least one.

    The host's speed is calibrated before the first call and after about
    every ``CHUNK_S`` seconds of calls.  Each call's time is also
    recorded scaled to the reference host (``calibrate.py``) by the mean
    of the calibrations taken within ``SMOOTH_S`` of it, which always
    include the two around it: short calls average out the calibration's
    own jitter over several, long ones follow the host's drift.
    """
    passes = []
    calibrations = [calibrate_after(0.0)]
    spans = []   # per pass: (start, end) of each call
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < budget_s:
        if tracer is not None:
            tracer.reset()
        record = {"times": [], "rows": 0, "errors": []}
        spans.append([])
        chunk_start = time.perf_counter()
        for index, call in enumerate(calls):
            call_start = time.perf_counter()
            elapsed, text, error = run_call(cli, call.argv)
            record["times"].append(elapsed)
            spans[-1].append((call_start, call_start + elapsed))
            record["rows"] += max(text.count("\n") - 1, 0)
            digest = hashlib.sha256(text.encode()).hexdigest()
            if len(digests) <= index:
                digests.append(digest)
                first_texts.append(text)
            elif digest != digests[index]:
                error = error or "output differs from the first pass"
            record["errors"].append(error)
            stretch_s = time.perf_counter() - chunk_start
            if index == len(calls) - 1 or stretch_s >= CHUNK_S:
                calibrations.append(calibrate_after(stretch_s))
                chunk_start = time.perf_counter()
        if tracer is not None:
            record["trace"] = tracer.snapshot()
        passes.append(record)
    for record, pass_spans in zip(passes, spans):
        record["scaled"] = [
            elapsed * scale([seconds for at, seconds in calibrations
                             if start - SMOOTH_S <= at <= end + SMOOTH_S])
            for elapsed, (start, end) in zip(record["times"], pass_spans)]
    return passes


def checked(gate: Gate, call, text: str) -> list[str]:
    """Gate problems of one call; a crash of the gate is one more problem."""
    try:
        return gate.check(call, text)
    except Exception:
        return ["gate raised: " + traceback.format_exc(limit=3)]


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    import cavloss
    import cavloss.cli as cli
    src = Path(spec["root"]) / "src"
    if src.resolve() not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"cavloss imported from {cli.__file__}, not from {src}")
    calls = workloads.build(spec["workload"], spec["seed"], spec["size"])
    workloads.write_configs(calls, Path(spec["work_dir"]))

    first_texts: list[str] = []
    digests: list[str] = []
    result = {"absent": [], "untraced": [], "traced": []}
    if spec["trace"]:
        # alternate untraced and traced passes so that drift in the host's
        # speed cancels out of the tracing overhead
        tracer = Tracer()
        started = time.perf_counter()
        while (not result["traced"]
               or time.perf_counter() - started < spec["seconds"]):
            result["untraced"] += run_passes(cli, calls, 0.0, first_texts, digests)
            tracer.install()
            try:
                result["traced"] += run_passes(cli, calls, 0.0, first_texts,
                                               digests, tracer)
            finally:
                tracer.uninstall()
        result["absent"] = tracer.absent
    else:
        result["untraced"] = run_passes(cli, calls, spec["seconds"],
                                        first_texts, digests)
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024.0)

    oracles_path = Path(spec["root"]) / "tests" / "oracles.py"
    module_spec = importlib.util.spec_from_file_location("oracles", oracles_path)
    oracles = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(oracles)
    gate = Gate(cavloss, oracles, spec["seed"], spec["sample_rows"])
    result["gate"] = [checked(gate, call, text)
                      for call, text in zip(calls, first_texts)]
    result["gate_skipped"] = sorted(gate.skipped)
    result["digest"] = hashlib.sha256("".join(digests).encode()).hexdigest()
    result["calls"] = len(calls)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
