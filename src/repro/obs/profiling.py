"""Per-stage wall-clock profiling: the :class:`StageProfiler`.

The profiler answers "where does a run's wall-clock go" at the stage
granularity the ROADMAP's vectorisation work needs: workload draw,
topology build, the replay loop itself, policy operations, bandwidth
estimation, and fault evaluation.  Two collection styles cover the
simulator's structure:

* **block timing** (:meth:`stage` / :meth:`add`) for code the simulator
  runs once — topology build, the whole replay loop;
* **call timing** (:meth:`wrap`) for the per-request calls the replay
  kernel makes: :func:`repro.sim.kernel.build_context` binds the
  policy's, estimator's and fault injector's methods through it, so a
  stage counts exactly the kernel's own calls and nothing is set on the
  objects themselves.

Timing adds a Python-level indirection per call, so a profiled run is
slower than an unprofiled one; the simulated results are unchanged
(timers only read the wall clock, never the simulation state).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict

__all__ = ["StageProfiler"]


class StageProfiler:
    """Accumulate wall-clock seconds and call counts per named stage."""

    def __init__(self) -> None:
        """Create an empty profiler with no stages recorded."""
        self._seconds: Dict[str, float] = {}
        self._calls: Dict[str, int] = {}

    def add(self, stage: str, seconds: float, calls: int = 1) -> None:
        """Credit ``seconds`` (and ``calls`` invocations) to ``stage``."""
        self._seconds[stage] = self._seconds.get(stage, 0.0) + seconds
        self._calls[stage] = self._calls.get(stage, 0) + calls

    @contextmanager
    def stage(self, name: str):
        """Context manager timing one block of code under ``name``."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - started)

    def wrap(self, stage: str, func: Callable) -> Callable:
        """Return a callable that times every invocation of ``func``."""
        seconds = self._seconds
        calls = self._calls
        perf_counter = time.perf_counter

        def timed(*args, **kwargs):
            started = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                seconds[stage] = seconds.get(stage, 0.0) + (
                    perf_counter() - started
                )
                calls[stage] = calls.get(stage, 0) + 1

        return timed

    def report(self) -> Dict[str, Dict[str, float]]:
        """Stage → ``{"seconds": total, "calls": count}``, a plain dict."""
        return {
            stage: {
                "seconds": self._seconds[stage],
                "calls": self._calls.get(stage, 0),
            }
            for stage in self._seconds
        }
