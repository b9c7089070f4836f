"""The trace-driven proxy-cache simulator.

The simulator replays a request trace against one proxy cache managed by a
policy, following the paper's methodology (Sections 3 and 4.1):

* each origin server is assigned a base path bandwidth drawn from the
  configured distribution (NLANR-derived by default),
* each request experiences the base bandwidth modulated by the configured
  variability model,
* the first ``warmup_fraction`` of the trace only warms the cache; metrics
  are collected over the remainder,
* for every request the simulator computes the joint cache + server delivery
  outcome *before* letting the policy react, so metrics reflect the cache
  state a real client would have found.

The per-request service sequence lives in one place —
:func:`repro.sim.kernel.serve_batch` — and the simulator owns one thin
*driver* (:meth:`ProxyCacheSimulator._replay`, see
``docs/architecture.md``).  Every run replays the workload's
:class:`~repro.trace.columnar.ColumnarTrace` columns as they are, and the
kernel context prefills one entry per distinct object plus a vectorised
observed-bandwidth column.  The driver then splits the
trace into the longest runs uninterrupted by *typed* auxiliary events
(:mod:`repro.sim.events`, e.g. periodic bandwidth re-measurement from
:attr:`~repro.sim.config.SimulationConfig.remeasurement`), merged by
``(time, priority)``, and serves each run through ``serve_batch``; runs
also end where a window of :data:`repro.sim.kernel.WINDOW_ROWS` requests
does, so with no events scheduled each window is one chunk.

Per-client last-mile bandwidth
(:attr:`~repro.sim.config.SimulationConfig.client_clouds`) is resolved
once per run by the kernel context builder
(:func:`repro.sim.kernel.last_mile_sequences`), and each request's
delivered bandwidth becomes the bottleneck of its two hops — see
``docs/clients.md``.
"""

from __future__ import annotations

import time as _time
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.core.store import CacheStore
from repro.network.measurement import BandwidthMeasurementLog, PassiveEstimator
from repro.network.topology import DeliveryTopology
from repro.obs.profiling import StageProfiler
from repro.obs.timeline import MetricsTimeline
from repro.obs.tracing import ObservedCacheStore, TraceSink
from repro.sim.config import BandwidthKnowledge, SimulationConfig
from repro.sim.events import (
    AuxiliarySchedule,
    ReactiveRekeyer,
    build_remeasurement_events,
)
from repro.sim.faults import FaultInjector, FaultReport
from repro.sim.hierarchy import HierarchyEngine, HierarchyReport
from repro.sim.kernel import KernelContext, build_context, serve_batch
from repro.sim.metrics import MetricsCollector, SimulationMetrics
from repro.sim.streaming import StreamingDeliveryEngine, StreamingReport
from repro.trace.columnar import ColumnarTrace
from repro.workload.gismo import Workload

#: Entropy tag mixed into the client-cloud generator's seed so last-mile
#: construction and per-request last-mile draws never collide with the
#: request stream (bare config seed) or the re-measurement stream.
_CLIENT_CLOUD_STREAM_TAG = 0x434C49


@dataclass
class SimulationResult:
    """Everything a single simulation run produces.

    ``auxiliary_events_fired`` counts typed periodic-event firings (e.g.
    bandwidth re-measurements), and ``measurement_log`` carries their
    per-server sample statistics when the run had re-measurement
    configured.  ``reactive_shifts`` /
    ``reactive_rekeys`` count the threshold crossings and heap entries
    re-keyed by the reactive hook
    (:attr:`~repro.sim.config.SimulationConfig.reactive_threshold`);
    ``reactive_suppressed`` counts crossings swallowed by the per-server
    re-key budget
    (:attr:`~repro.sim.config.SimulationConfig.reactive_rekey_cap`), and
    ``reactive_rekeys_by_server`` the per-server re-key counts that budget
    bounds.  ``fault_report`` carries the whole-run fault accounting
    (episode counts, retries, stale serves, estimate recovery times) when
    the run had :attr:`~repro.sim.config.SimulationConfig.faults`
    enabled; the measurement-phase view (availability, failed / stale /
    retried requests) lives on :attr:`metrics`.  ``streaming_report``
    carries the QoE accounting (startup delay, rebuffer ratio, delivered
    quality, abandonment) when the run had
    :attr:`~repro.sim.config.SimulationConfig.streaming` enabled.
    ``hierarchy_report`` carries the per-tier hit/byte accounting (tier-
    absorbed vs origin bytes, sibling hits) when the run had
    :attr:`~repro.sim.config.SimulationConfig.hierarchy` enabled — in
    which case ``final_cache_occupancy`` / ``final_cached_objects``
    aggregate over every tier store in the fleet and ``heap_statistics``
    is ``None`` (each tier owns its own policy heap).

    The observability fields (:mod:`repro.obs`) are populated when the
    config carries an
    :attr:`~repro.sim.config.SimulationConfig.observability` block:
    ``timeline`` is the finished windowed
    :class:`~repro.obs.timeline.MetricsTimeline`, and ``profile`` the
    per-stage wall-clock
    report of :class:`~repro.obs.profiling.StageProfiler`.
    ``heap_statistics`` is recorded on every run whose policy exposes it
    (the heap-backed paper policies do): peak/live/stale entry counts and
    compaction totals, so heap health is visible per run rather than
    only in the benchmark suite.
    """

    metrics: SimulationMetrics
    policy_name: str
    config: SimulationConfig
    final_cache_occupancy: float
    final_cached_objects: int
    warmup_requests: int
    auxiliary_events_fired: int = 0
    measurement_log: Optional[BandwidthMeasurementLog] = None
    reactive_shifts: int = 0
    reactive_rekeys: int = 0
    reactive_suppressed: int = 0
    reactive_rekeys_by_server: Dict[int, int] = field(default_factory=dict)
    fault_report: Optional[FaultReport] = None
    streaming_report: Optional[StreamingReport] = None
    hierarchy_report: Optional[HierarchyReport] = None
    timeline: Optional[MetricsTimeline] = None
    profile: Optional[Dict[str, Dict[str, float]]] = None
    heap_statistics: Optional[Dict[str, int]] = None

    def as_dict(self) -> Dict[str, float]:
        """Flatten result and headline metrics into one dictionary."""
        data = self.metrics.as_dict()
        data.update(
            {
                "final_cache_occupancy": self.final_cache_occupancy,
                "final_cached_objects": float(self.final_cached_objects),
                "warmup_requests": float(self.warmup_requests),
            }
        )
        return data


class ProxyCacheSimulator:
    """Replay a workload against one policy-managed proxy cache."""

    def __init__(self, workload: Workload, config: Optional[SimulationConfig] = None):
        self.workload = workload
        self.config = config or SimulationConfig()

    def build_topology(self, rng: np.random.Generator) -> DeliveryTopology:
        """Draw per-server base bandwidths and assemble the topology.

        When the config carries a
        :class:`~repro.sim.config.ClientCloudConfig`, the client cloud's
        last-mile paths are built here too — from a dedicated generator, so
        attaching a cloud never perturbs the origin-path draws (the
        unconstrained-cloud bit-identity of ``tests/test_sim_clients.py``).
        """
        topology = DeliveryTopology.build(
            catalog=self.workload.catalog,
            bandwidth_distribution=self.config.bandwidth_distribution,
            variability=self.config.variability,
            rng=rng,
        )
        floor = self.config.min_path_bandwidth
        if floor > 0:
            for path in topology.paths:
                if path.base_bandwidth < floor:
                    path.base_bandwidth = floor
        if self.config.client_clouds is not None:
            cloud_rng = np.random.default_rng(self._client_cloud_seed(0))
            topology.clients = self.config.client_clouds.build_cloud(cloud_rng)
        return topology

    def _client_cloud_seed(self, purpose: int) -> tuple:
        """Seed of one client-cloud random stream.

        ``purpose`` separates the cloud's two uses of randomness —
        construction (group base-bandwidth draws, 0) and per-request
        last-mile variability (1) — so the request-time ratio stream never
        replays the values that provisioned the groups.
        """
        cloud_seed = (
            self.config.client_clouds.seed
            if self.config.client_clouds is not None
            else 0
        )
        return (
            _CLIENT_CLOUD_STREAM_TAG,
            purpose,
            self.config.seed & 0xFFFFFFFF,
            cloud_seed & 0xFFFFFFFF,
        )

    def build_auxiliary_schedule(
        self,
        topology: DeliveryTopology,
        estimator: Optional[PassiveEstimator],
        measurement_log: Optional[BandwidthMeasurementLog],
        rekeyer: Optional[ReactiveRekeyer] = None,
    ) -> AuxiliarySchedule:
        """Expand the config's typed periodic events into a schedule.

        Currently this covers periodic bandwidth re-measurement
        (:attr:`~repro.sim.config.SimulationConfig.remeasurement`), with
        ``rekeyer`` attached to every stream when the run is reactive
        (:attr:`~repro.sim.config.SimulationConfig.reactive_threshold`);
        subclasses adding further typed event families extend this.
        """
        if self.config.remeasurement is None:
            return AuxiliarySchedule()
        trace = self.workload.trace
        return AuxiliarySchedule(
            build_remeasurement_events(
                self.config.remeasurement,
                topology,
                estimator,
                measurement_log,
                trace_start=trace.start_time,
                trace_end=trace.end_time,
                base_seed=self.config.seed,
                listener=rekeyer,
            )
        )

    def run(
        self,
        policy,
        topology: Optional[DeliveryTopology] = None,
    ) -> SimulationResult:
        """Run the simulation for one policy.

        Parameters
        ----------
        policy:
            Any object with the :class:`~repro.core.policies.base.CachePolicy`
            interface (``name``, ``on_request``) — including
            :class:`~repro.core.policies.optimal.StaticAllocationPolicy`.
        topology:
            Optionally reuse a pre-built topology so several policies can be
            compared on *identical* bandwidth assignments; when omitted a new
            topology is drawn from the config's seed.
        """
        obs = self.config.observability
        profiler: Optional[StageProfiler] = None
        sink: Optional[TraceSink] = None
        if obs is not None and obs.profile:
            profiler = StageProfiler()
        # Each side effect on a file or on an object the caller keeps
        # registers its undo as it happens, so a run that raises, even
        # before its first request, leaves nothing behind.
        with ExitStack() as undo:
            if obs is not None and obs.trace_path is not None:
                sink = undo.enter_context(
                    TraceSink(
                        obs.trace_path, level=obs.trace_level, sample=obs.trace_sample
                    )
                )

            rng = np.random.default_rng(self.config.seed)
            if topology is None:
                if profiler is not None:
                    with profiler.stage("topology_build"):
                        topology = self.build_topology(rng)
                else:
                    topology = self.build_topology(rng)

            if sink is not None:
                store: CacheStore = ObservedCacheStore(self.config.cache_size_kb, sink)
            else:
                store = CacheStore(self.config.cache_size_kb)
            hierarchy: Optional[HierarchyEngine] = None
            if self.config.hierarchy is not None:
                # Tiers without a policy name run copies of the run policy,
                # taken before anything touches it; the instance itself is
                # never installed — each tier owns a policy on its own store.
                hierarchy = HierarchyEngine(
                    self.config.hierarchy, self.workload.catalog, default_policy=policy
                )
            elif hasattr(policy, "install"):
                policy.install(store, self.workload.catalog)

            streaming: Optional[StreamingDeliveryEngine] = None
            if self.config.streaming is not None:
                streaming = StreamingDeliveryEngine(
                    self.config.streaming,
                    self.workload.catalog,
                    store,
                    sim_seed=self.config.seed,
                )
                # Heap-engine policies get the segment-aware admission /
                # trimming hooks for the run; policies without the hooks
                # (e.g. static allocations) still serve sessions, they just
                # keep their own byte targets.
                if hasattr(policy, "stream_quantize"):
                    undo.callback(setattr, policy, "stream_quantize", None)
                    undo.callback(setattr, policy, "stream_trim", None)
                    policy.stream_quantize = streaming.admission_target
                    if self.config.streaming.prefix_caching:
                        policy.stream_trim = streaming.trim_victim

            collector = MetricsCollector()
            estimator: Optional[PassiveEstimator] = None
            if self.config.bandwidth_knowledge is BandwidthKnowledge.PASSIVE:
                estimator = PassiveEstimator(smoothing=self.config.passive_smoothing)

            measurement_log: Optional[BandwidthMeasurementLog] = None
            if self.config.remeasurement is not None:
                measurement_log = BandwidthMeasurementLog()
            rekeyer: Optional[ReactiveRekeyer] = None
            if (
                self.config.reactive_threshold is not None
                and estimator is not None
                and hasattr(policy, "on_bandwidth_shift")
            ):
                # With a modeled client cloud, a request from group g never
                # believes more than that group's last-mile base; the rekeyer
                # keeps one anchor per (server, group) view so shift detection
                # and heap keys stay consistent with the per-request
                # composition.  An all-inf cloud degrades to the uncapped view.
                group_caps = topology.last_mile_caps()
                if group_caps is not None and all(
                    cap == float("inf") for cap in group_caps
                ):
                    group_caps = None
                rekeyer = ReactiveRekeyer(
                    policy,
                    estimator,
                    self.config.reactive_threshold,
                    group_caps=group_caps,
                    hysteresis=self.config.reactive_hysteresis,
                    rekey_cap=self.config.reactive_rekey_cap,
                    group_estimation=(
                        self.config.client_clouds is not None
                        and self.config.client_clouds.estimate_last_mile
                    ),
                )
            schedule = self.build_auxiliary_schedule(
                topology, estimator, measurement_log, rekeyer
            )

            trace = self.workload.trace
            total_requests = len(trace)
            warmup_cutoff = int(self.config.warmup_fraction * total_requests)

            injector: Optional[FaultInjector] = None
            if self.config.faults is not None:
                fault_schedule = self.config.faults.build_schedule(
                    topology,
                    trace_start=trace.start_time,
                    trace_end=trace.end_time,
                    base_seed=self.config.seed,
                )
                injector = FaultInjector(
                    fault_schedule, self.config.faults, estimator=estimator
                )

            timeline: Optional[MetricsTimeline] = None
            if obs is not None and obs.timeline:
                timeline = MetricsTimeline(
                    obs.window_s, trace.start_time if total_requests else 0.0
                )
                timeline.bind(
                    store=store if hierarchy is None else hierarchy.primary_edge_store,
                    rekeyer=rekeyer,
                    injector=injector,
                    streaming=streaming,
                )
            if sink is not None:
                for traced in (rekeyer, injector):
                    if traced is not None:
                        traced.trace = sink
                        undo.callback(setattr, traced, "trace", None)

            if profiler is not None:
                # Instance-attribute wrappers shadow the bound methods the
                # kernel context binds; detach_all() removes them again so
                # profiling leaves no trace on the shared objects.  The
                # context is built *after* attach so it captures the
                # wrappers.
                undo.callback(profiler.detach_all)
                profiler.attach(policy, "on_request", "policy_ops")
                if estimator is not None:
                    profiler.attach(estimator, "estimate", "estimator")
                    profiler.attach(estimator, "observe", "estimator")
                if injector is not None:
                    profiler.attach(injector, "intercept", "fault_evaluation")

            # One kernel context per run: the replay delegates the whole
            # per-request service sequence (repro.sim.kernel) to it, and the
            # passive-driven rekeyer is notified after every request's
            # estimator update (docs/events.md).
            ctx = build_context(
                catalog=self.workload.catalog,
                trace=trace,
                topology=topology,
                policy=policy,
                store=store,
                collector=collector,
                estimator=estimator,
                rekeyer=rekeyer if self.config.reactive_passive else None,
                injector=injector,
                timeline=timeline,
                streaming=streaming,
                hierarchy=hierarchy,
                rng=rng,
                warmup_cutoff=warmup_cutoff,
                verify_store=self.config.verify_store,
                num_pops=(
                    self.config.hierarchy.num_pops if hierarchy is not None else 1
                ),
                client_cloud_seed=self._client_cloud_seed(1),
            )

            if sink is not None:
                sink.emit(
                    "info",
                    "run-start",
                    trace.start_time if total_requests else 0.0,
                    policy=getattr(policy, "name", type(policy).__name__),
                    seed=self.config.seed,
                    requests=total_requests,
                )

            replay_started = _time.perf_counter() if profiler is not None else 0.0
            self._replay(ctx, trace, schedule)
            ctx.finish(trace.end_time if total_requests else 0.0)
            metrics = collector.finalize()
            if sink is not None:
                sink.emit(
                    "info",
                    "run-end",
                    trace.end_time if total_requests else 0.0,
                    requests=metrics.requests,
                    hit_ratio=metrics.hit_ratio,
                    byte_hit_ratio=metrics.byte_hit_ratio,
                    evictions=store.evictions,
                )
            if profiler is not None:
                profiler.add("replay", _time.perf_counter() - replay_started)

        return SimulationResult(
            metrics=metrics,
            policy_name=getattr(policy, "name", type(policy).__name__),
            config=self.config,
            final_cache_occupancy=(
                store.occupancy if hierarchy is None else hierarchy.final_occupancy()
            ),
            final_cached_objects=(
                len(store) if hierarchy is None else hierarchy.total_cached_objects()
            ),
            warmup_requests=collector.warmup_requests,
            auxiliary_events_fired=schedule.fired,
            measurement_log=measurement_log,
            reactive_shifts=rekeyer.shifts if rekeyer is not None else 0,
            reactive_rekeys=rekeyer.entries_rekeyed if rekeyer is not None else 0,
            reactive_suppressed=rekeyer.suppressed if rekeyer is not None else 0,
            reactive_rekeys_by_server=(
                dict(rekeyer.rekeys_by_server) if rekeyer is not None else {}
            ),
            fault_report=injector.report() if injector is not None else None,
            streaming_report=streaming.report() if streaming is not None else None,
            hierarchy_report=hierarchy.report() if hierarchy is not None else None,
            timeline=timeline,
            profile=profiler.report() if profiler is not None else None,
            heap_statistics=(
                policy.heap_statistics()
                if hierarchy is None and hasattr(policy, "heap_statistics")
                else None
            ),
        )

    # ------------------------------------------------------------------
    # The replay driver: chunked replay + auxiliary events.
    # ------------------------------------------------------------------
    @staticmethod
    def _replay(
        ctx: KernelContext, trace: ColumnarTrace, schedule: AuxiliarySchedule
    ) -> None:
        """Serve the trace in chunks, firing auxiliary events between them.

        The loop owns the auxiliary-event merge and the windows: it
        splits the trace into the longest runs of requests uninterrupted
        by an auxiliary event or a window end.  Events are ordered by
        ``(time, priority)``, with the request stream at priority 0
        (auxiliary priorities are non-zero by construction, so the merge
        is never ambiguous); the due ones fire between runs.  At each
        window start the loop loads the next window's lists
        (:meth:`repro.sim.kernel.KernelContext.load_window`), and it
        serves each run through :func:`repro.sim.kernel.serve_batch`.
        Auxiliary events draw from their own random generators (see
        :mod:`repro.sim.events`), so the kernel's pre-drawn bandwidth
        draws stay valid even while events fire between chunks.  With no
        auxiliary events scheduled each window is one chunk.
        """
        times_array = trace.times_array
        total = len(times_array)

        aux_heap = schedule.begin()
        fire_before = schedule.fire_before

        start = window_end = 0
        while start < total:
            if start == window_end:
                window_end = ctx.load_window(start)
            stop = window_end
            if aux_heap:
                head_time = aux_heap[0][0]
                head_priority = aux_heap[0][1]
                next_time = ctx.times[start - ctx.window_start]
                if (head_time, head_priority) < (next_time, 0):
                    # The event runs before the next request (strictly
                    # earlier time, or same time with a negative priority).
                    fire_before(next_time)
                    continue
                # The longest run the head event does not interrupt:
                # requests strictly before the event in (time, priority)
                # order.  Guaranteed non-empty — the head is not due
                # before request ``start`` (checked above).
                cut = int(
                    np.searchsorted(
                        times_array,
                        head_time,
                        side="left" if head_priority < 0 else "right",
                    )
                )
                if cut < stop:
                    stop = cut
            serve_batch(ctx, start, stop)
            start = stop

        # Auxiliary events scheduled after the last request still fire.
        schedule.drain()
