"""Trace-driven simulation of the caching-accelerator architecture.

* :mod:`repro.sim.events` — typed periodic auxiliary events (periodic
  bandwidth re-measurement) merged into the request stream,
* :mod:`repro.sim.config` — simulation configuration,
* :mod:`repro.sim.faults` — fault injection (origin outages, link flaps)
  and the fetch timeout / retry / serve-stale degradation model,
* :mod:`repro.sim.hierarchy` — multi-tier cache hierarchies (edge pops,
  parents, optional ICP-style sibling lookup) composed with the
  bottleneck bandwidth model,
* :mod:`repro.sim.kernel` — the per-request service kernel the replay
  driver delegates to (the canonical stage sequence, assembled once per
  run into a :class:`~repro.sim.kernel.KernelContext`),
* :mod:`repro.sim.metrics` — the paper's performance metrics (Section 3.3),
* :mod:`repro.sim.simulator` — the proxy-cache simulator proper, with its
  one chunked replay driver (see ``docs/architecture.md``),
* :mod:`repro.sim.runner` — multi-run averaging and parameter sweeps,
* :mod:`repro.sim.sharing` — the stream-sharing analyzer,
* :mod:`repro.sim.streaming` — segment-aware streaming sessions with
  partial-object (prefix) caching and per-session QoE accounting.
"""

from repro.sim.config import BandwidthKnowledge, ClientCloudConfig, SimulationConfig
from repro.sim.events import (
    AuxiliarySchedule,
    BandwidthRemeasurement,
    PeriodicEvent,
    ReactiveRekeyer,
    RemeasurementConfig,
    build_remeasurement_events,
)
from repro.sim.faults import (
    FAULT_KINDS,
    FaultConfig,
    FaultEpisode,
    FaultInjector,
    FaultReport,
    FaultSchedule,
)
from repro.sim.hierarchy import CacheTier, HierarchyConfig, HierarchyReport
from repro.sim.kernel import (
    KERNEL_STAGES,
    KernelContext,
    build_context,
    serve_batch,
)
from repro.sim.metrics import MetricsCollector, SimulationMetrics
from repro.sim.runner import PolicyComparison, SweepResult, compare_policies, run_replications, sweep_cache_sizes
from repro.sim.sharing import SharingReport, StreamSharingAnalyzer, prefix_function_for_bandwidth
from repro.sim.simulator import ProxyCacheSimulator, SimulationResult
from repro.sim.streaming import (
    StreamingConfig,
    StreamingDeliveryEngine,
    StreamingReport,
    select_stream_ids,
)

__all__ = [
    "AuxiliarySchedule",
    "BandwidthKnowledge",
    "BandwidthRemeasurement",
    "CacheTier",
    "ClientCloudConfig",
    "FAULT_KINDS",
    "FaultConfig",
    "FaultEpisode",
    "FaultInjector",
    "FaultReport",
    "FaultSchedule",
    "HierarchyConfig",
    "HierarchyReport",
    "KERNEL_STAGES",
    "KernelContext",
    "MetricsCollector",
    "PeriodicEvent",
    "PolicyComparison",
    "ProxyCacheSimulator",
    "ReactiveRekeyer",
    "RemeasurementConfig",
    "SharingReport",
    "SimulationConfig",
    "SimulationMetrics",
    "SimulationResult",
    "StreamSharingAnalyzer",
    "StreamingConfig",
    "StreamingDeliveryEngine",
    "StreamingReport",
    "SweepResult",
    "build_context",
    "build_remeasurement_events",
    "select_stream_ids",
    "serve_batch",
    "compare_policies",
    "prefix_function_for_bandwidth",
    "run_replications",
    "sweep_cache_sizes",
]
