"""Host-speed calibration for the timed metrics.

The benchmark runs on a few cores of a shared host whose speed drifts
by 10-30% over seconds to minutes, as other tenants come and go.  Raw
times of one commit then spread more between runs than a regression
the bounds should catch.  A fixed piece of work that does not involve
the program (a pure-Python loop and numpy array operations into a
preallocated buffer, the two kinds of work the program does) is timed
next to each measurement, and the measurement is scaled by
``REFERENCE_S`` over that time.  A scaled time is what the measurement
would have read on a host on which the calibration takes
``REFERENCE_S``; the program's own speed-ups and slow-downs pass
through unchanged, while the host's drift cancels.

Set-up time (spawning an interpreter and importing the program) is
mostly process start-up, file-system and shared-library work, which a
loop does not follow.  It is scaled instead by spawning an interpreter
that imports a fixed set of standard-library modules, some of them
C extensions, and nothing of the program's.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

#: calibration times, in seconds, of the host the scaled times refer to
REFERENCE_S = 0.022
REFERENCE_IMPORT_S = 0.16

IMPORT_PROBE = ("import asyncio, decimal, email.mime.multipart, http.server, "
                "json, sqlite3, ssl, unittest, xml.dom.minidom")

_ARRAY = np.linspace(0.0, 1.0, 50_000)
_BUFFER = np.empty_like(_ARRAY)


def _python_work() -> int:
    total = 0
    for i in range(160_000):
        total += i * i % 7
    return total


def _numpy_work() -> float:
    # into a preallocated buffer, so that the time does not depend on the
    # state the program left the memory allocator in
    total = 0.0
    for _ in range(32):
        np.sin(_ARRAY, out=_BUFFER)
        np.exp(_BUFFER, out=_BUFFER)
        total += float(_BUFFER.sum())
    return total


def calibration_s() -> float:
    """Seconds the fixed calibration work takes now."""
    start = time.perf_counter()
    _python_work()
    _numpy_work()
    return time.perf_counter() - start


def import_calibration_s() -> float:
    """Seconds to spawn an interpreter that imports ``IMPORT_PROBE``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True,
                   timeout=60)
    return time.perf_counter() - start


def scale(calibrations: list[float], reference: float = REFERENCE_S) -> float:
    """Factor from a time measured among ``calibrations`` to the reference."""
    return reference * len(calibrations) / sum(calibrations)
