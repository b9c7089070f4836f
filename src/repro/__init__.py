"""repro — network-aware partial caching for streaming media delivery.

A from-scratch Python reproduction of *"Accelerating Internet Streaming
Media Delivery using Network-Aware Partial Caching"* (Shudong Jin, Azer
Bestavros, Arun Iyengar; ICDCS 2002).

The public API re-exports the pieces most users need:

* workload generation (:class:`~repro.workload.gismo.GismoWorkloadGenerator`),
* network/bandwidth models (:class:`~repro.network.distributions.NLANRBandwidthDistribution`,
  variability models, :class:`~repro.network.topology.DeliveryTopology`),
* the cache policies (IF, PB, IB, PB-V, IB-V, hybrids, LRU/LFU, optimal),
* the trace-driven simulator and experiment runners,
* the per-figure experiment harness in :mod:`repro.analysis`.

Quickstart::

    from repro import (
        GismoWorkloadGenerator, WorkloadConfig, SimulationConfig,
        ProxyCacheSimulator, make_policy,
    )

    workload = GismoWorkloadGenerator(WorkloadConfig().scaled(0.1)).generate()
    simulator = ProxyCacheSimulator(workload, SimulationConfig(cache_size_gb=8))
    result = simulator.run(make_policy("PB"))
    print(result.metrics.average_service_delay)
"""

from repro.core import (
    CachePolicy,
    CacheStore,
    FrequencyTracker,
    HybridPartialBandwidthPolicy,
    IntegralBandwidthPolicy,
    IntegralBandwidthValuePolicy,
    IntegralFrequencyPolicy,
    LRUPolicy,
    PartialBandwidthPolicy,
    PartialBandwidthValuePolicy,
    StaticAllocationPolicy,
    make_policy,
    optimal_allocation,
)
from repro.exceptions import (
    CapacityError,
    ConfigurationError,
    MeasurementError,
    PolicyError,
    ReproError,
    SimulationError,
    TraceFormatError,
    UnknownObjectError,
)
from repro.network import (
    ConstantVariability,
    DeliveryTopology,
    MeasuredPathVariability,
    NetworkPath,
    NLANRBandwidthDistribution,
    NLANRRatioVariability,
    PathRegistry,
)
from repro.obs import MetricsTimeline, ObservabilityConfig
from repro.sim import (
    BandwidthKnowledge,
    CacheTier,
    ClientCloudConfig,
    FaultConfig,
    FaultEpisode,
    HierarchyConfig,
    HierarchyReport,
    ProxyCacheSimulator,
    RemeasurementConfig,
    SimulationConfig,
    SimulationMetrics,
    StreamingConfig,
    StreamingReport,
    compare_policies,
    run_replications,
    sweep_cache_sizes,
)
from repro.streaming import SegmentedPrefix
from repro.trace import ColumnarTrace, ingest_access_log
from repro.workload import (
    Catalog,
    GismoWorkloadGenerator,
    MediaObject,
    Request,
    Workload,
    WorkloadConfig,
    ZipfPopularity,
)

__version__ = "1.0.0"

__all__ = [
    "BandwidthKnowledge",
    "CachePolicy",
    "CacheStore",
    "CacheTier",
    "CapacityError",
    "Catalog",
    "ClientCloudConfig",
    "ColumnarTrace",
    "ConfigurationError",
    "ConstantVariability",
    "DeliveryTopology",
    "FaultConfig",
    "FaultEpisode",
    "FrequencyTracker",
    "GismoWorkloadGenerator",
    "HierarchyConfig",
    "HierarchyReport",
    "HybridPartialBandwidthPolicy",
    "IntegralBandwidthPolicy",
    "IntegralBandwidthValuePolicy",
    "IntegralFrequencyPolicy",
    "LRUPolicy",
    "MeasurementError",
    "MeasuredPathVariability",
    "MediaObject",
    "MetricsTimeline",
    "NLANRBandwidthDistribution",
    "NLANRRatioVariability",
    "NetworkPath",
    "ObservabilityConfig",
    "PartialBandwidthPolicy",
    "PartialBandwidthValuePolicy",
    "PathRegistry",
    "PolicyError",
    "ProxyCacheSimulator",
    "RemeasurementConfig",
    "ReproError",
    "Request",
    "SegmentedPrefix",
    "SimulationConfig",
    "SimulationError",
    "SimulationMetrics",
    "StaticAllocationPolicy",
    "StreamingConfig",
    "StreamingReport",
    "TraceFormatError",
    "UnknownObjectError",
    "Workload",
    "WorkloadConfig",
    "ZipfPopularity",
    "__version__",
    "compare_policies",
    "ingest_access_log",
    "make_policy",
    "optimal_allocation",
    "run_replications",
    "sweep_cache_sizes",
]
