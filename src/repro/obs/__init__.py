"""repro.obs — read-only observability for simulation runs.

Three layers, all opt-in through
:class:`~repro.obs.config.ObservabilityConfig` on the simulation config
and all guaranteed not to change simulated results (no RNG draws, no
state mutation — instrumentation only reads counters the run already
keeps):

* **windowed time-series metrics**
  (:class:`~repro.obs.timeline.MetricsTimeline`) — hit ratio, byte-hit
  ratio, mean latency, cache occupancy, evictions, reactive shifts /
  re-keys, and fault state bucketed into fixed sim-time windows,
  recorded by the replay kernel at window boundaries and attached to
  ``SimulationResult.timeline``;
* **structured event tracing**
  (:class:`~repro.obs.tracing.TraceSink`) — an opt-in JSONL file of
  admissions, evictions, re-keys, fault episodes, and retries with
  level- and deterministic-sampling filters, plus the
  :mod:`logging`-backed CLI logger in :mod:`repro.obs.log`;
* **per-stage profiling**
  (:class:`~repro.obs.profiling.StageProfiler`) — wall-clock timers for
  workload draw, topology build, the replay loop, policy ops, the
  estimator, and fault evaluation, exposed as
  ``SimulationResult.profile`` and ``repro run --profile``.

See ``docs/observability.md`` for a worked example.
"""

from repro.obs.config import ObservabilityConfig
from repro.obs.log import configure, get_logger
from repro.obs.profiling import StageProfiler
from repro.obs.timeline import CUMULATIVE_FIELDS, GAUGE_FIELDS, MetricsTimeline
from repro.obs.tracing import ObservedCacheStore, TraceSink

__all__ = [
    "CUMULATIVE_FIELDS",
    "GAUGE_FIELDS",
    "MetricsTimeline",
    "ObservabilityConfig",
    "ObservedCacheStore",
    "StageProfiler",
    "TraceSink",
    "configure",
    "get_logger",
]
