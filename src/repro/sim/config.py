"""Simulation configuration.

A :class:`SimulationConfig` bundles everything about *how* a trace is
replayed that is independent of the workload itself: the cache capacity, the
bandwidth model and its variability, how the cache learns bandwidth
(oracle measurements versus passive estimation, optionally refreshed by
periodic re-measurement between requests), and the warm-up protocol.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from numbers import Integral, Real
from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError, check_scalars
from repro.network.distributions import BandwidthDistribution, NLANRBandwidthDistribution
from repro.network.topology import ClientCloud
from repro.network.variability import BandwidthVariabilityModel, ConstantVariability
from repro.obs.config import ObservabilityConfig
from repro.sim.events import RemeasurementConfig
from repro.sim.faults import FaultConfig
from repro.sim.hierarchy import HierarchyConfig
from repro.sim.streaming import StreamingConfig
from repro.units import gb_to_kb


def _check_model(name: str, value, expected: type) -> None:
    """Reject a model or subsystem field that is neither ``None`` nor an
    ``expected``.

    A wrong-typed value (a string such as ``"nlanr"``, a dict of
    settings) would otherwise be accepted here and fail deep inside a
    replay.  ``None`` selects the field's default.
    """
    if value is not None and not isinstance(value, expected):
        raise ConfigurationError(
            f"{name} must be a {expected.__name__}, got {value!r}"
        )


class BandwidthKnowledge(enum.Enum):
    """How the cache learns the bandwidth of each cache-to-server path."""

    #: The cache knows each path's long-term average bandwidth exactly
    #: (the paper's default assumption: the cache "measures" bandwidth).
    ORACLE = "oracle"
    #: The cache estimates bandwidth passively from the throughput of
    #: completed transfers (Section 2.7's passive measurement).
    PASSIVE = "passive"


@dataclass(frozen=True)
class ClientCloudConfig:
    """How the per-client last-mile hop is modeled in a simulation.

    The trace's ``client_id`` column is hashed into ``groups`` client
    groups (``client_id % groups``), and each group gets one last-mile
    :class:`~repro.network.path.NetworkPath`.  Exactly one of two modes
    provisions the group base bandwidths:

    * ``bandwidth`` — every group gets this base bandwidth (KB/s).  ``inf``
      models the hop explicitly while keeping it non-binding, which is how
      the paper's abundant-last-mile assumption is reproduced bit-for-bit
      through the composition code.
    * ``distribution`` — one draw per group from a
      :class:`~repro.network.distributions.BandwidthDistribution`
      (heterogeneous clouds, e.g. the NLANR model).

    With neither given, ``bandwidth=inf`` is assumed.  ``variability``
    modulates every group's per-request draw (one model instance that
    every group path shares, as the replay requires); ``seed`` adds
    entropy to the cloud's dedicated random stream — last-mile
    construction and per-request draws never touch the request stream's
    generator (see ``docs/clients.md``).

    ``estimate_last_mile`` opts the reactive hook into **per-group
    last-mile estimation**: under passive-driven re-keying
    (:attr:`SimulationConfig.reactive_passive`) each request's *delivered*
    throughput — the bottleneck of the origin hop and the client group's
    last mile — is recorded in the estimator's ``(server, group)`` keyed
    mode, and the rekeyer compares each group's view on its own delivered
    trajectory instead of the origin estimate capped at the group base.  A
    last-mile degradation invisible to the origin estimate can then still
    re-key the heap.  Metric arithmetic is untouched either way (the group
    estimates live in a separate keyed space).
    """

    groups: int = 1
    bandwidth: Optional[float] = None
    distribution: Optional[BandwidthDistribution] = None
    variability: Optional[BandwidthVariabilityModel] = None
    seed: int = 0
    estimate_last_mile: bool = False

    def __post_init__(self) -> None:
        _check_model("distribution", self.distribution, BandwidthDistribution)
        _check_model("variability", self.variability, BandwidthVariabilityModel)
        check_scalars(self, Integral, "groups", "seed")
        check_scalars(self, Real, "bandwidth", optional=True)
        check_scalars(self, bool, "estimate_last_mile")
        if self.groups <= 0:
            raise ConfigurationError(f"groups must be positive, got {self.groups}")
        if self.bandwidth is not None and self.distribution is not None:
            raise ConfigurationError(
                "give either a homogeneous bandwidth or a distribution, not both"
            )
        if self.bandwidth is not None and not self.bandwidth > 0:
            raise ConfigurationError(
                f"client-cloud bandwidth must be positive, got {self.bandwidth}"
            )

    def build_cloud(self, rng: "np.random.Generator") -> ClientCloud:
        """Materialise the configured :class:`ClientCloud`.

        ``rng`` must be the cloud's *dedicated* generator (the simulator
        seeds it from ``(stream tag, simulation seed, config seed)``), so
        attaching a cloud never perturbs origin-path construction or the
        request stream's bandwidth draws.
        """
        if self.distribution is not None:
            return ClientCloud.from_distribution(
                self.groups, self.distribution, rng, variability=self.variability
            )
        bandwidth = self.bandwidth if self.bandwidth is not None else float("inf")
        return ClientCloud.homogeneous(
            bandwidth, variability=self.variability, groups=self.groups
        )


@dataclass
class SimulationConfig:
    """Parameters of one trace-driven simulation run.

    Attributes
    ----------
    cache_size_gb:
        Proxy cache capacity in GB (the paper varies this from 4 to 128 GB,
        i.e. about 0.5% to 16.9% of the 790 GB unique object size).
    bandwidth_distribution:
        Distribution of per-path base bandwidth; defaults to the NLANR model
        of Figure 2.
    variability:
        Per-request bandwidth variability model; defaults to constant
        bandwidth (the Figure 5 setting).
    bandwidth_knowledge:
        Whether policies see oracle base bandwidths or passive estimates.
    warmup_fraction:
        Fraction of the trace used to warm the cache before metrics are
        collected (the paper uses the first half).
    min_path_bandwidth:
        Floor (KB/s) applied to sampled base bandwidths so that a handful of
        near-zero draws cannot dominate the delay average; the paper's
        bandwidth samples come from completed transfers and therefore have
        an implicit floor as well.
    passive_smoothing:
        EWMA weight of the passive estimator (only used with
        ``BandwidthKnowledge.PASSIVE``).
    remeasurement:
        Optional :class:`~repro.sim.events.RemeasurementConfig` enabling
        periodic bandwidth re-measurement between requests: each configured
        path is sampled on its cadence and the samples feed the passive
        estimator (under ``BandwidthKnowledge.PASSIVE``) and the run's
        :class:`~repro.network.measurement.BandwidthMeasurementLog`.
        The replay driver fires the probes between request chunks; see
        ``docs/events.md``.
    client_clouds:
        Optional :class:`ClientCloudConfig` modeling per-client last-mile
        bandwidth: each client group gets its own cache-to-client path and
        every request experiences the bottleneck of its origin hop and its
        client's last-mile hop.  ``None`` (default) keeps the paper's
        abundant-last-mile assumption; see ``docs/clients.md``.
    reactive_threshold:
        Optional fractional threshold enabling the reactive policy hook:
        when a bandwidth-belief update (a periodic re-measurement probe, or
        — with ``reactive_passive`` — an ordinary request's passive
        observation) moves a path's believed bandwidth by more than this
        fraction relative to the value the policy was last re-keyed at,
        the active policy's heap entries for objects on that path are
        re-keyed immediately instead of waiting for the next request.
        Requires ``BandwidthKnowledge.PASSIVE`` and at least one shift
        source (``remeasurement`` or ``reactive_passive``); see
        ``docs/events.md``.
    reactive_passive:
        When True, the passive per-request observations themselves drive
        the reactive hook — the paper's "free"
        measurements can move heap keys without waiting for a probe.
        Requires ``reactive_threshold``.
    reactive_hysteresis:
        Optional re-arm band (fraction, in ``(0, reactive_threshold]``):
        after a re-key the shifted view is disarmed and only re-arms once
        its believed bandwidth re-enters ``hysteresis x anchor`` of the new
        anchor, so an oscillating estimate cannot re-key on every swing.
        ``None`` (default) keeps every view always armed.
    reactive_rekey_cap:
        Optional hard per-server budget of reactive re-keys per run; shifts
        past the budget are counted on
        ``SimulationResult.reactive_suppressed`` instead of re-keying.
    faults:
        Optional :class:`~repro.sim.faults.FaultConfig` injecting origin
        outages, last-mile link failures, and bandwidth flaps into the
        replay, together with the fetch timeout / retry / serve-stale
        model.  ``None`` (default) replays a fault-free network,
        bit-identical to the pre-fault simulator; see
        ``docs/faults.md``.
    streaming:
        Optional :class:`~repro.sim.streaming.StreamingConfig` serving a
        (deterministic) fraction of the catalog as segment-aware media
        streams: partial prefix residency backed by
        :class:`~repro.streaming.segmentation.SegmentedPrefix`,
        session-position prefetch, and the wait / degrade / abandon QoE
        model of :class:`~repro.sim.streaming.StreamingDeliveryEngine`.
        ``None`` (default) is bit-identical to the pre-streaming
        simulator; see ``docs/streaming.md``.
    hierarchy:
        Optional :class:`~repro.sim.hierarchy.HierarchyConfig` replacing
        the single proxy with a multi-cache fleet: per-pop edge caches,
        parent tiers joined by static uplinks, and optional ICP-style
        sibling lookups, each tier running its own store and policy
        instance.  ``None`` (default) is bit-identical to the
        single-proxy simulator.  Incompatible with
        ``streaming`` and the reactive re-keying machinery (both assume
        the single proxy store); see ``docs/hierarchy.md``.
    observability:
        Optional :class:`~repro.obs.config.ObservabilityConfig` switching
        on the run's observability layers: the windowed metrics timeline
        (``SimulationResult.timeline``), the JSONL event trace, and the
        per-stage profiler (``SimulationResult.profile``).  ``None``
        (default) records nothing and keeps the replay kernel on its
        uninstrumented hot path — simulated results are bit-identical
        either way; see ``docs/observability.md``.
    seed:
        Non-negative seed for the simulation's random number generator
        (path bandwidth assignment and per-request variability draws).
    verify_store:
        When True the simulator asserts cache-store consistency after every
        request; slows the run, intended for tests.
    """

    cache_size_gb: float = 16.0
    bandwidth_distribution: BandwidthDistribution = field(
        default_factory=NLANRBandwidthDistribution
    )
    variability: BandwidthVariabilityModel = field(default_factory=ConstantVariability)
    bandwidth_knowledge: BandwidthKnowledge = BandwidthKnowledge.ORACLE
    warmup_fraction: float = 0.5
    min_path_bandwidth: float = 4.0
    passive_smoothing: float = 0.25
    remeasurement: Optional[RemeasurementConfig] = None
    client_clouds: Optional[ClientCloudConfig] = None
    reactive_threshold: Optional[float] = None
    reactive_passive: bool = False
    reactive_hysteresis: Optional[float] = None
    reactive_rekey_cap: Optional[int] = None
    faults: Optional[FaultConfig] = None
    streaming: Optional[StreamingConfig] = None
    hierarchy: Optional[HierarchyConfig] = None
    observability: Optional[ObservabilityConfig] = None
    seed: int = 0
    verify_store: bool = False

    def __post_init__(self) -> None:
        _check_model(
            "bandwidth_distribution", self.bandwidth_distribution, BandwidthDistribution
        )
        _check_model("variability", self.variability, BandwidthVariabilityModel)
        _check_model("remeasurement", self.remeasurement, RemeasurementConfig)
        _check_model("client_clouds", self.client_clouds, ClientCloudConfig)
        _check_model("faults", self.faults, FaultConfig)
        _check_model("streaming", self.streaming, StreamingConfig)
        _check_model("hierarchy", self.hierarchy, HierarchyConfig)
        _check_model("observability", self.observability, ObservabilityConfig)
        if not isinstance(self.bandwidth_knowledge, BandwidthKnowledge):
            raise ConfigurationError(
                "bandwidth_knowledge must be a BandwidthKnowledge, "
                f"got {self.bandwidth_knowledge!r}"
            )
        check_scalars(
            self, Real,
            "cache_size_gb", "warmup_fraction", "min_path_bandwidth", "passive_smoothing",
        )
        check_scalars(
            self, Real, "reactive_threshold", "reactive_hysteresis", optional=True
        )
        check_scalars(self, Integral, "reactive_rekey_cap", optional=True)
        check_scalars(self, Integral, "seed")
        check_scalars(self, bool, "reactive_passive", "verify_store")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")
        if not self.cache_size_gb >= 0:
            raise ConfigurationError(
                f"cache_size_gb must be non-negative, got {self.cache_size_gb}"
            )
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ConfigurationError(
                f"warmup_fraction must be in [0, 1), got {self.warmup_fraction}"
            )
        if not self.min_path_bandwidth >= 0:
            raise ConfigurationError(
                f"min_path_bandwidth must be non-negative, got {self.min_path_bandwidth}"
            )
        if not 0.0 < self.passive_smoothing <= 1.0:
            raise ConfigurationError(
                f"passive_smoothing must be in (0, 1], got {self.passive_smoothing}"
            )
        if self.reactive_threshold is not None:
            if not self.reactive_threshold > 0:
                raise ConfigurationError(
                    f"reactive_threshold must be positive, got {self.reactive_threshold}"
                )
            if self.remeasurement is None and not self.reactive_passive:
                raise ConfigurationError(
                    "reactive_threshold requires a shift source: enable periodic "
                    "remeasurement, passive-driven re-keying (reactive_passive), "
                    "or both"
                )
            if self.bandwidth_knowledge is not BandwidthKnowledge.PASSIVE:
                raise ConfigurationError(
                    "reactive_threshold requires BandwidthKnowledge.PASSIVE: under "
                    "oracle knowledge the believed bandwidth never shifts"
                )
        elif self.reactive_passive:
            raise ConfigurationError(
                "reactive_passive requires reactive_threshold: without a "
                "threshold no shift is ever actionable"
            )
        if self.reactive_hysteresis is not None:
            if self.reactive_threshold is None:
                raise ConfigurationError(
                    "reactive_hysteresis requires reactive_threshold"
                )
            if not 0.0 < self.reactive_hysteresis <= self.reactive_threshold:
                raise ConfigurationError(
                    f"reactive_hysteresis must be in (0, reactive_threshold="
                    f"{self.reactive_threshold}], got {self.reactive_hysteresis}"
                )
        if self.reactive_rekey_cap is not None:
            if self.reactive_threshold is None:
                raise ConfigurationError(
                    "reactive_rekey_cap requires reactive_threshold"
                )
            if self.reactive_rekey_cap <= 0:
                raise ConfigurationError(
                    f"reactive_rekey_cap must be positive, got {self.reactive_rekey_cap}"
                )
        if self.hierarchy is not None:
            if self.streaming is not None:
                raise ConfigurationError(
                    "hierarchy cannot be combined with streaming: segment-"
                    "aware sessions assume the single proxy store (planned "
                    "follow-up, see docs/hierarchy.md)"
                )
            if self.reactive_threshold is not None:
                raise ConfigurationError(
                    "hierarchy cannot be combined with reactive re-keying: "
                    "the re-keyer walks the single proxy's policy heap "
                    "(planned follow-up, see docs/hierarchy.md)"
                )

    @property
    def cache_size_kb(self) -> float:
        """Cache capacity in KB."""
        return gb_to_kb(self.cache_size_gb)

    def with_cache_size(self, cache_size_gb: float) -> "SimulationConfig":
        """Copy of this config with a different cache capacity."""
        return replace(self, cache_size_gb=cache_size_gb)

    def with_seed(self, seed: int) -> "SimulationConfig":
        """Copy of this config with a different random seed."""
        return replace(self, seed=seed)

    def with_variability(
        self, variability: Optional[BandwidthVariabilityModel]
    ) -> "SimulationConfig":
        """Copy of this config with a different variability model."""
        return replace(self, variability=variability or ConstantVariability())

    def with_client_clouds(
        self, client_clouds: Optional[ClientCloudConfig]
    ) -> "SimulationConfig":
        """Copy of this config with a different client-cloud model.

        Pass ``None`` to return to the paper's unmodeled abundant last
        mile (the default).
        """
        return replace(self, client_clouds=client_clouds)

    def with_hierarchy(
        self, hierarchy: Optional[HierarchyConfig]
    ) -> "SimulationConfig":
        """Copy of this config with a different cache-hierarchy layout.

        Pass ``None`` to return to the single network-aware proxy (the
        default).
        """
        return replace(self, hierarchy=hierarchy)

    def with_observability(
        self, observability: Optional[ObservabilityConfig]
    ) -> "SimulationConfig":
        """Copy of this config with a different observability setup.

        Pass ``None`` to record nothing (the default).
        """
        return replace(self, observability=observability)

    def cache_fraction_of(self, total_unique_kb: float) -> float:
        """Cache size as a fraction of the total unique object size."""
        if total_unique_kb <= 0:
            return 0.0
        return self.cache_size_kb / total_unique_kb
