"""Observability configuration: what to record, how often, and where.

A single frozen :class:`ObservabilityConfig` travels on
:class:`repro.sim.config.SimulationConfig` and switches on any subset of
the three observability layers (see :mod:`repro.obs`):

* the windowed :class:`~repro.obs.timeline.MetricsTimeline` recorder,
* the JSONL :class:`~repro.obs.tracing.TraceSink` event trace,
* the :class:`~repro.obs.profiling.StageProfiler` per-stage timers.

The default-constructed config enables only the timeline; ``None`` on the
simulation config (the default) disables observability entirely and keeps
the replay loops on their uninstrumented hot path.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from numbers import Real
from typing import Optional

from repro.exceptions import ConfigurationError, check_scalars

__all__ = ["ObservabilityConfig"]

#: Trace levels accepted by :class:`ObservabilityConfig` and
#: :class:`repro.obs.tracing.TraceSink`, least to most verbose.
TRACE_LEVELS = ("info", "debug")


@dataclass(frozen=True)
class ObservabilityConfig:
    """Which observability layers to enable for a simulation run.

    Attributes:
        window_s: Width of each timeline window in simulated seconds.
        timeline: Record a :class:`~repro.obs.timeline.MetricsTimeline`
            onto ``SimulationResult.timeline``.
        trace_path: Path of a JSONL trace file to write, or ``None`` to
            disable event tracing.
        trace_level: Minimum level written to the trace (``"info"`` or
            ``"debug"``); ``"debug"`` additionally records per-object
            cache admissions/evictions and retry attempts.
        trace_sample: Fraction of events kept per event type, in
            ``(0, 1]``; sampling is deterministic (a fixed stride per
            event name), never random, so it cannot perturb the
            simulation's RNG streams.
        profile: Collect per-stage wall-clock timers onto
            ``SimulationResult.profile``.  The replay kernel then calls
            its policy, estimator and fault stages through timers, so a
            profiled run is slower; the simulated metrics are unchanged.
    """

    window_s: float = 60.0
    timeline: bool = True
    trace_path: Optional[str] = None
    trace_level: str = "info"
    trace_sample: float = 1.0
    profile: bool = False

    def __post_init__(self) -> None:
        """Validate field types, window width, trace level, and sampling
        fraction."""
        check_scalars(self, Real, "window_s", "trace_sample")
        check_scalars(self, bool, "timeline", "profile")
        if self.trace_path is not None and not isinstance(
            self.trace_path, (str, os.PathLike)
        ):
            raise ConfigurationError(
                f"trace_path must be a path, got {self.trace_path!r}"
            )
        if not self.window_s > 0:
            raise ConfigurationError(
                f"window_s must be positive, got {self.window_s!r}"
            )
        if self.trace_level not in TRACE_LEVELS:
            raise ConfigurationError(
                f"trace_level must be one of {TRACE_LEVELS}, "
                f"got {self.trace_level!r}"
            )
        if not 0.0 < self.trace_sample <= 1.0:
            raise ConfigurationError(
                f"trace_sample must be in (0, 1], got {self.trace_sample!r}"
            )
