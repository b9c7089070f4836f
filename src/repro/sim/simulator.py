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
kernel context prefills one entry per distinct object.  ``_replay`` then
splits the trace into the longest runs uninterrupted by a periodic
bandwidth re-measurement round
(:class:`~repro.sim.events.ProbeRounds`, configured by
:attr:`~repro.sim.config.SimulationConfig.remeasurement`), which fires
after every request strictly before it, and serves each run through
``serve_batch``; runs also end where a window of
:data:`repro.sim.kernel.WINDOW_ROWS` requests does, so without probes
each window is one chunk.

Each window's observed bandwidths are drawn when
:meth:`~repro.sim.kernel.KernelContext.load_window` lists it: the origin
side from the run's generator and, with per-client last-mile bandwidth
(:attr:`~repro.sim.config.SimulationConfig.client_clouds`), the last
mile from the client cloud's own, and each request's delivered
bandwidth becomes the bottleneck of its two hops — see
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
from repro.sim.events import ProbeRounds, ReactiveRekeyer
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

    ``auxiliary_events_fired`` counts the bandwidth re-measurement
    probes fired (rounds times origin paths), and ``measurement_log``
    carries their per-server sample statistics when the run had
    re-measurement configured.  ``reactive_shifts`` /
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
            # Sized here, so a policy without ``install`` replays too.
            store.reserve(self.workload.catalog)
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
            measurement_log: Optional[BandwidthMeasurementLog] = None
            probes: Optional[ProbeRounds] = None
            if self.config.remeasurement is not None:
                measurement_log = BandwidthMeasurementLog()
                probes = ProbeRounds(
                    self.config.remeasurement.interval,
                    topology.paths,
                    measurement_log,
                    estimator=estimator,
                    rekeyer=rekeyer,
                    seed=self.config.seed,
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

            # One kernel context per run: the replay delegates the whole
            # per-request service sequence (repro.sim.kernel) to it, and the
            # passive-driven rekeyer is notified after every request's
            # estimator update (docs/events.md).  With a profiler, the
            # context binds the timed stage calls.
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
                profiler=profiler,
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
            self._replay(ctx, trace, probes)
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
                    evictions=(
                        store.evictions
                        if hierarchy is None
                        else hierarchy.total_evictions()
                    ),
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
            auxiliary_events_fired=probes.fired if probes is not None else 0,
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
    # The replay loop: chunked replay + probe rounds.
    # ------------------------------------------------------------------
    @staticmethod
    def _replay(
        ctx: KernelContext, trace: ColumnarTrace, probes: Optional[ProbeRounds]
    ) -> None:
        """Serve the trace in chunks, firing the probe rounds between them.

        Before each round the loop serves every request strictly earlier
        than the round, so a round fires before a request at its own
        time; then it fires the round and serves the rest.  Every round
        falls at or before the last request.  At each window start the
        loop loads the next window's lists
        (:meth:`repro.sim.kernel.KernelContext.load_window`), and it
        serves each run of requests inside one window and between two
        rounds through :func:`repro.sim.kernel.serve_batch`.  Each window
        is loaded once, in trace order, since loading it draws its
        bandwidths; probes draw from their own random generator
        (:mod:`repro.sim.events`), so rounds fired between chunks move no
        request's draw.  Without probes each window is one chunk.
        """
        start = window_end = 0

        def serve_until(cut: int) -> None:
            nonlocal start, window_end
            while start < cut:
                if start == window_end:
                    window_end = ctx.load_window(start)
                stop = min(cut, window_end)
                serve_batch(ctx, start, stop)
                start = stop

        if probes is not None:
            times = trace.times_array
            for now in probes.times(trace.start_time, trace.end_time):
                serve_until(int(np.searchsorted(times, now, side="left")))
                probes.fire(now)
        serve_until(len(trace))
