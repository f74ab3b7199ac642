"""Per-layer tracing from outside the program.

The tracer replaces public functions of the cavloss modules with thin
wrappers that time each call.  Nothing under ``src/`` is edited: every
module-level name (and every module-level dict value, such as
``traploss.P_MODELS``) bound to a traced function is rebound to its
wrapper, so calls made through ``from .x import f`` see it too.

Spans are aggregated as they close instead of being kept one by one, so
a traced 20 000-point scan stays small in memory: per function the call
count, the total time and the time covered by traced children.  Self
time is total minus child time.
"""

from __future__ import annotations

import sys
import time

#: (module, function) pairs whose calls are traced
TRACED = (
    ("constants", "resolve_params"),
    ("potential", "resonance_geometry"),
    ("cavity", "collective_rabi"),
    ("cavity", "landau_zener"),
    ("kinematics", "collision_times"),
    ("kinematics", "fraction_f"),
    ("dynamics", "p_omega_approx"),
    ("dynamics", "p_omega_analytic"),
    ("dynamics", "integrate_master"),
    ("traploss", "loss_point"),
    ("traploss", "loss_closed_form"),
    ("traploss", "loss_series"),
    ("traploss", "loss_no_cavity"),
    ("traploss", "scan_detuning"),
    ("cli", "main"),
)

PACKAGE = "cavloss"
LOSS_SERIES = "traploss.loss_series"
LOSS_POINT = "traploss.loss_point"
INTEGRATE = "dynamics.integrate_master"


class Tracer:
    """Wraps traced functions and aggregates their spans per pass."""

    def __init__(self, traced=TRACED):
        self.traced = traced
        self.absent: list[str] = []
        self._undo: list = []   # (namespace, name, original) to restore
        self._stack: list[list] = []   # open spans: [child_time, key]
        # key -> [calls, total_s, child_s], zeroed in place by reset()
        self.stats = {f"{m}.{f}": [0, 0.0, 0.0] for m, f in traced}
        self.reset()

    def reset(self) -> None:
        """Start a new pass: zero every counter."""
        for counters in self.stats.values():
            counters[:] = [0, 0.0, 0.0]
        self.series_terms = 0
        self.master_samples = 0
        self.waste_s = 0.0   # loss_series time spent inside loss_point

    def install(self) -> None:
        """Rebind every traced function, recording the ones not found."""
        self.absent = []
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        for module_name, function in self.traced:
            key = f"{module_name}.{function}"
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(home, function, None)
            if not callable(original):
                self.absent.append(key)
                continue
            wrapper = self._wrap(key, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._undo.append((module.__dict__, attr, original))
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = wrapper
                                self._undo.append((value, k, original))

    def uninstall(self) -> None:
        """Restore every name that install() rebound."""
        while self._undo:
            namespace, key, original = self._undo.pop()
            namespace[key] = original

    def _wrap(self, key: str, function):
        counters = self.stats[key]
        stack = self._stack
        clock = time.perf_counter
        tracer = self
        counted = key in (LOSS_SERIES, INTEGRATE)

        def traced(*args, **kwargs):
            span = [0.0, key]
            stack.append(span)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                counters[0] += 1
                counters[1] += elapsed
                counters[2] += span[0]
                if stack:
                    stack[-1][0] += elapsed
            if counted:
                tracer._count(key, result, elapsed)
            return result

        traced.__wrapped__ = function
        return traced

    def _count(self, key: str, result, elapsed: float) -> None:
        if key == LOSS_SERIES:
            if isinstance(result, tuple) and len(result) == 2:
                self.series_terms += int(result[1])
            if self._stack and self._stack[-1][1] == LOSS_POINT:
                self.waste_s += elapsed
        elif key == INTEGRATE and hasattr(result, "__len__"):
            self.master_samples += len(result)

    def snapshot(self) -> dict:
        """Counters of the pass since the last reset."""
        return {
            "functions": {key: {"calls": c, "total_s": t, "self_s": t - child}
                          for key, (c, t, child) in self.stats.items()},
            "series_terms": self.series_terms,
            "master_samples": self.master_samples,
            "waste_s": self.waste_s,
        }
