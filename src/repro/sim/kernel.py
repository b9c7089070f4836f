"""The per-request service kernel behind the simulator's replay driver.

This module is the single home of the per-request service sequence.  The
driver in :mod:`repro.sim.simulator` owns *iteration* (trace order and
auxiliary-event merging); the kernel owns *service*:

1. **window** — close due metrics-timeline windows,
2. **warmup** — flip from warm-up to measurement at the cutoff index,
3. **resolve** — object / delivery-path / cached-entry resolution,
4. **bandwidth** — origin bandwidth draw + last-mile bottleneck
   composition (``min(origin, uplinks, last-mile)``),
5. **belief** — estimator belief lookup + last-mile base cap,
6. **faults** — fault-injector interception (outages, retries, backoff),
7. **residency** — hierarchy residency / escalation, or flat store read,
8. **delivery** — streaming session or delivery-session arithmetic,
9. **policy** — policy admit / evict (skipped under a hierarchy, whose
   tiers run their own policies),
10. **metrics** — the request's outcome row (measured requests only),
11. **passive** — passive bandwidth observation + reactive trigger,
12. **verify** — optional store-consistency verification.

:data:`KERNEL_STAGES` lists the stages in canonical order.

The kernel's one entry point is :func:`serve_batch`, which the driver
feeds with ``[start, stop)`` runs of the trace: the longest runs
uninterrupted by auxiliary events.  Chunks are the seam for later
vectorisation — the kernel is free to process a run however it likes as
long as the observable sequence is preserved, and splitting a run at any
request must not change a bit of the result (``tests/test_sim_kernel.py``
checks this down to one request per chunk).

Each measured request ends in one *outcome row* (cache KB, server KB,
delay, quality, added value, status, retries; see
:data:`repro.sim.metrics.OUTCOME_COLUMNS`), written by one shared tail
into the run's outcome block.  The block is reduced into the collector
when it fills (:data:`BLOCK_ROWS` rows) and once more when the run ends
(:meth:`KernelContext.finish`), never per chunk, by one ordered
accumulate per sum — floating-point addition order is part of the
bit-identity contract.  Timeline markers take their metric sums from the
same reduction.

A :class:`KernelContext` is assembled once per run by
:func:`build_context` from the simulator's configured subsystems
(:class:`~repro.sim.faults.FaultInjector`,
:class:`~repro.sim.hierarchy.HierarchyEngine`,
:class:`~repro.sim.streaming.StreamingDeliveryEngine`,
:class:`~repro.sim.events.ReactiveRekeyer`,
:class:`~repro.obs.timeline.MetricsTimeline`): it binds the methods and
attributes each stage calls onto the context once per run.  Adding a
subsystem to the simulator means adding one stage hook here (see
``docs/architecture.md``).

All pre-draw logic also lives here: :func:`predraw_ratios` (every
request's origin variability ratio, in one batch),
:func:`last_mile_sequences` (per-request last-mile base / observed /
group), and :func:`pop_sequence` (per-request hierarchy pop affinity) are
resolved once by :func:`build_context` before replay starts, so chunk
boundaries never move a random draw.  Each side's batch comes from the
one variability model its paths share; a topology whose origin paths, or
whose client-cloud paths, carry more than one model instance is refused
with a :class:`~repro.exceptions.ConfigurationError` before the first
request.
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.sim.faults import stale_quality
from repro.sim.metrics import FAILED, OUTCOME_COLUMNS, SERVED, STALE
from repro.workload.catalog import id_table

#: The canonical per-request stage order.  A request runs a subsequence of
#: these stages: those whose subsystem is disabled, or that a branch skips
#: (e.g. ``policy`` on a failed fetch), do not run.
KERNEL_STAGES = (
    "window",
    "warmup",
    "resolve",
    "bandwidth",
    "belief",
    "faults",
    "residency",
    "delivery",
    "policy",
    "metrics",
    "passive",
    "verify",
)

_INF = float("inf")

#: Rows of the outcome block.  A full block is reduced before the next
#: row is written, so a run holds at most 7 columns x 8 B x 4,096 rows
#: (224 KiB) of outcomes whatever its length; larger blocks measured no
#: faster and cost peak memory.
BLOCK_ROWS = 4_096


# ----------------------------------------------------------------------
# Pre-draw logic (one home; used by build_context only).
# ----------------------------------------------------------------------
def _shared_model(paths, side: str):
    """The one variability model instance all of ``paths`` carry
    (``None`` when there are no paths).

    Raises :class:`ConfigurationError` naming ``side`` when two paths
    carry different instances: the replay draws a side's ratios as one
    batch from one model.
    """
    model = None
    for path in paths:
        if model is None:
            model = path.variability
        elif path.variability is not model:
            raise ConfigurationError(
                f"the {side} paths carry more than one variability model "
                f"instance (path {path.server_id} differs from the first); "
                "build them with one shared model"
            )
    return model


def predraw_ratios(topology, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw all ``count`` per-request origin variability ratios in one
    numpy batch from the model the origin paths share.

    A bundled model's ``sample_ratio(rng, size=n)`` consumes the generator
    exactly like ``n`` consecutive ``size=1`` draws, so the batch is
    elementwise IEEE-identical to drawing each request in turn.  Origin
    paths carrying more than one model instance are refused.
    """
    model = _shared_model(topology.paths, "origin")
    if model is None:  # An empty registry: the trace has no request.
        return np.empty(0)
    return np.asarray(model.sample_ratio(rng, size=count), dtype=np.float64)


def last_mile_sequences(topology, trace, seed: tuple) -> Optional[tuple]:
    """Per-request last-mile ``(base, observed, group)`` sequences.

    Returns ``None`` when the topology's client cloud has no modeled
    last-mile paths — the kernel then skips the composition entirely,
    reproducing the pre-heterogeneity arithmetic exactly.

    Otherwise every request is resolved to its client's group path
    (``client_id % groups``) and three aligned lists are returned: the
    group's *base* bandwidth (what the cache believes its own last mile
    sustains — the cache knows its client side, so no estimator is
    involved), the *observed* last-mile bandwidth for that request (base
    modulated by the model the group paths share, floor 1 KB/s), and the
    request's client-group index (consumed by the reactive rekeyer's
    per-group anchors; see :mod:`repro.sim.events`).  The ratios are one
    batch from a dedicated generator seeded with ``seed``, in request
    order, drawn once per run *before* replay starts.  Cloud paths
    carrying more than one model instance are refused.
    """
    paths = topology.clients.paths
    if not paths:
        return None
    model = _shared_model(paths, "client-cloud")
    groups = trace.client_ids_array.astype(np.int64, copy=False) % len(paths)
    base_lut = np.array([path.base_bandwidth for path in paths], dtype=np.float64)
    base = base_lut[groups]
    ratios = model.sample_ratio(np.random.default_rng(seed), size=len(trace))
    observed = base * np.asarray(ratios, dtype=np.float64)
    np.maximum(observed, 1.0, out=observed)
    return base.tolist(), observed.tolist(), groups.tolist()


def pop_sequence(trace, num_pops: int) -> Optional[List[int]]:
    """Per-request pop indices (``client_id % num_pops``), resolved once.

    Mirrors the affinity rule of :func:`last_mile_sequences` (clients are
    pinned by id modulo the replica count).  Returns ``None`` for a
    single-pop hierarchy so the kernel skips the lookup entirely.
    """
    if num_pops <= 1:
        return None
    return (trace.client_ids_array.astype(np.int64, copy=False) % num_pops).tolist()


# ----------------------------------------------------------------------
# Per-object resolution.
# ----------------------------------------------------------------------
def _make_entry(catalog_get, path_for, object_id: int) -> tuple:
    """Resolve one object to the kernel's cached per-object tuple.

    ``(obj, base_bw, size, duration, bitrate, quantum, value, server_id)``
    — ``base_bw`` is immutable for the duration of a run (the floor from
    ``build_topology`` is applied before replay starts), so caching it is
    safe.
    """
    obj = catalog_get(object_id)
    return (
        obj,
        path_for(obj).base_bandwidth,
        obj.size,
        obj.duration,
        obj.bitrate,
        1.0 / obj.layers,
        obj.value,
        obj.server_id,
    )


# ----------------------------------------------------------------------
# The per-run kernel context.
# ----------------------------------------------------------------------
class KernelContext:
    """Everything one run's service sequence needs, bound once.

    Built by :func:`build_context`; consumed by :func:`serve_batch`.  The
    outcome block (``outcomes``, whose row 0 is request
    ``outcome_origin``) and the ``tl_boundary`` cursor are *run state*
    carried across driver chunks; everything else is read-only for the
    run.  Call :meth:`finish` exactly once after the driver completes.
    """

    __slots__ = (
        # Static bindings (read-only during replay).
        "requests",
        "warmup_cutoff",
        "verify_store",
        "verify_consistency",
        "store",
        "store_kb",
        "policy_on_request",
        "collector",
        "estimator_estimate",
        "estimator_observe",
        "rekeyer_request",
        "intercept",
        "record_unserved",
        "serve_stale",
        "stream_serve",
        "stream_failed",
        "stream_ids",
        "hier_serve",
        "hier_edge",
        "timeline",
        "entries",
        "observed_seq",
        "lm_base",
        "lm_observed",
        "lm_groups",
        "pops",
        # Run state (carried across chunks).
        "tl_boundary",
        "outcomes",
        "outcome_origin",
    )

    def reduce(self, count: int) -> None:
        """Sum the block's first ``count`` rows into the collector, in row
        order, and settle the timeline markers waiting for those sums.

        The status and retries columns are cleared afterwards: the kernel
        writes them only for requests the fault model touched.
        """
        timeline = self.timeline
        first = self.outcome_origin
        rows = timeline.pending_rows(first) if timeline is not None else []
        cores = self.collector.absorb_rows(self.outcomes, count, rows)
        if timeline is not None:
            timeline.settle(cores)
        *_, status, retries = self.outcomes
        np.frombuffer(status)[:count] = SERVED
        np.frombuffer(retries)[:count] = 0.0
        self.outcome_origin = first + count

    def finish(self, end_time: float) -> None:
        """Close the run: seal the timeline at ``end_time``, reduce the
        rows still in the block and count the warm-up requests (the
        warm-up cutoff: warm-up requests write no row)."""
        if self.timeline is not None:
            self.timeline.finish(end_time, self.requests)
        self.reduce(self.requests - self.outcome_origin)
        self.collector.absorb(warmup_requests=self.warmup_cutoff)


def build_context(
    *,
    catalog,
    trace,
    topology,
    policy,
    store,
    collector,
    estimator=None,
    rekeyer=None,
    injector=None,
    timeline=None,
    streaming=None,
    hierarchy=None,
    rng: np.random.Generator,
    warmup_cutoff: int,
    verify_store: bool,
    num_pops: int = 1,
    client_cloud_seed: tuple = (0,),
) -> KernelContext:
    """Assemble the per-run :class:`KernelContext` for a columnar ``trace``.

    Binds each configured subsystem's stage methods and attributes,
    resolves every pre-drawn sequence (last-mile draws, pop affinity),
    prefills the per-object entry table and vectorises the whole
    observed-bandwidth column from one batch of ratios drawn from ``rng``.

    ``rekeyer`` is the *passive-reactive* rekeyer (already gated by the
    config).
    """
    catalog_get = catalog.get
    path_for = topology.path_for
    total = len(trace)

    ctx = KernelContext()
    ctx.requests = total
    ctx.warmup_cutoff = warmup_cutoff
    ctx.verify_store = verify_store
    ctx.store = store
    # The flat store's id -> KB table, sized by the policy's install.
    ctx.store_kb = store.cached_kb
    ctx.policy_on_request = policy.on_request
    ctx.collector = collector
    ctx.estimator_estimate = estimator.estimate if estimator is not None else None
    ctx.estimator_observe = estimator.observe if estimator is not None else None

    ctx.rekeyer_request = rekeyer.observe_request if rekeyer is not None else None

    if injector is not None:
        ctx.intercept = injector.intercept
        ctx.record_unserved = injector.record_unserved
        ctx.serve_stale = injector.serve_stale
    else:
        ctx.intercept = None
        ctx.record_unserved = None
        ctx.serve_stale = False

    if streaming is not None:
        ctx.stream_serve = streaming.serve
        ctx.stream_failed = streaming.record_failed
        ctx.stream_ids = streaming.stream_ids
    else:
        ctx.stream_serve = None
        ctx.stream_failed = None
        ctx.stream_ids = None

    if hierarchy is not None:
        ctx.hier_serve = hierarchy.serve
        ctx.hier_edge = hierarchy.edge_cached
        ctx.verify_consistency = hierarchy.verify_consistency
    else:
        ctx.hier_serve = None
        ctx.hier_edge = None
        ctx.verify_consistency = store.verify_consistency

    ctx.timeline = timeline
    ctx.tl_boundary = timeline.first_boundary if timeline is not None else _INF

    # Pre-drawn sequences.
    last_mile = last_mile_sequences(topology, trace, client_cloud_seed)
    ctx.lm_base, ctx.lm_observed, ctx.lm_groups = (
        last_mile if last_mile is not None else (None, None, None)
    )
    ctx.pops = pop_sequence(trace, num_pops) if hierarchy is not None else None

    # Resolve every distinct object once.  Dense ids (0..N-1 for
    # generated and ingested catalogs) index a list; sparse ids key a
    # dict, so ``entries[object_id]`` serves both without a remap.
    ids_array = trace.object_ids_array
    object_ids = np.unique(ids_array).tolist()
    entries = id_table(object_ids, total, None)
    for object_id in object_ids:
        entries[object_id] = _make_entry(catalog_get, path_for, object_id)
    ctx.entries = entries

    # Vectorise the whole observed-bandwidth column (elementwise
    # IEEE-identical to the scalar base * ratio, floor 1.0).
    ratio_array = predraw_ratios(topology, rng, total)
    if isinstance(entries, list):
        base_lut = np.zeros(len(entries), dtype=np.float64)
        for object_id in object_ids:
            base_lut[object_id] = entries[object_id][1]
        base = base_lut[ids_array]
    else:
        base = np.array([entries[oid][1] for oid in ids_array.tolist()])
    observed_array = base * ratio_array
    np.maximum(observed_array, 1.0, out=observed_array)
    ctx.observed_seq = observed_array.tolist()

    # The outcome block: one typed double per column and measured request,
    # at most BLOCK_ROWS of them.
    rows = min(BLOCK_ROWS, total - warmup_cutoff)
    ctx.outcomes = tuple(
        memoryview(array("d", [0.0]) * rows) for _ in OUTCOME_COLUMNS
    )
    ctx.outcome_origin = warmup_cutoff
    return ctx


# ----------------------------------------------------------------------
# The chunk-oriented service path.
# ----------------------------------------------------------------------
def serve_batch(
    ctx: KernelContext,
    ids: Sequence[int],
    times: Sequence[float],
    start: int,
    stop: int,
) -> None:
    """Serve the trace run ``[start, stop)`` through the kernel.

    The driver guarantees no auxiliary event is due inside the run, so
    the kernel owns the whole chunk: the context is unpacked into locals
    once per chunk and the stages run inline per request.  Every measured
    request ends in one outcome row, written by the shared tail below.
    """
    if stop <= start:
        return

    # Unpack the context once per chunk.
    warmup_cutoff = ctx.warmup_cutoff
    verify_store = ctx.verify_store
    verify_consistency = ctx.verify_consistency
    store = ctx.store
    store_kb = ctx.store_kb
    policy_on_request = ctx.policy_on_request
    estimator_estimate = ctx.estimator_estimate
    estimator_observe = ctx.estimator_observe
    rekeyer_request = ctx.rekeyer_request
    intercept = ctx.intercept
    record_unserved = ctx.record_unserved
    serve_stale = ctx.serve_stale
    stream_serve = ctx.stream_serve
    stream_failed = ctx.stream_failed
    stream_ids = ctx.stream_ids
    hier_serve = ctx.hier_serve
    hier_edge = ctx.hier_edge
    tl_close = ctx.timeline.close if ctx.timeline is not None else None
    entries = ctx.entries
    observed_seq = ctx.observed_seq
    lm_base = ctx.lm_base
    lm_observed = ctx.lm_observed
    lm_groups = ctx.lm_groups
    pops = ctx.pops
    inf = _INF

    out_cache, out_server, out_delay, out_quality, out_value, out_status, out_retries = (
        ctx.outcomes
    )
    block_rows = len(out_cache)
    origin = ctx.outcome_origin
    measuring = start >= warmup_cutoff
    tl_boundary = ctx.tl_boundary

    id_run = ids if start == 0 and stop == len(ids) else ids[start:stop]
    for index, object_id in enumerate(id_run, start):
        req_time = times[index]
        if req_time >= tl_boundary:
            tl_boundary = tl_close(req_time, index)
        if index == warmup_cutoff:
            measuring = True

        entry = entries[object_id]
        obj, base_bw, size, duration, bitrate, quantum, value, server_id = entry

        observed = observed_seq[index]
        origin_observed = observed
        if lm_observed is not None:
            cap = lm_observed[index]
            if cap < observed:
                observed = cap

        if estimator_estimate is not None:
            believed = estimator_estimate(server_id)
        else:
            believed = base_bw
        prior_estimate = believed
        if lm_base is not None:
            cap = lm_base[index]
            if cap < believed:
                believed = cap

        disposition = None
        if intercept is not None:
            disposition = intercept(
                req_time,
                server_id,
                lm_groups[index] if lm_groups is not None else None,
                origin_observed,
                lm_observed[index] if lm_observed is not None else None,
            )
            if disposition is not None:
                observed = disposition[1]
                origin_observed = disposition[2]

        if disposition is None or disposition[0] == 0:  # FETCH_OK
            if hier_serve is not None:
                cached, observed = hier_serve(
                    pops[index] if pops is not None else 0,
                    object_id,
                    obj,
                    size,
                    observed,
                    lm_observed[index] if lm_observed is not None else None,
                    believed,
                    prior_estimate,
                    req_time,
                    measuring,
                )
            if stream_serve is not None and object_id in stream_ids:
                # Segment-aware session through the shared streaming
                # engine; value accrues only for immediate full-quality
                # sessions (Section 2.6's full-quality condition).
                cache_kb, server_kb, delay, quality, full = stream_serve(
                    object_id,
                    observed,
                    req_time,
                    measuring,
                    disposition[3] if disposition is not None else 0.0,
                )
                added = value if delay <= 0.0 and full else 0.0
                status = SERVED
            elif measuring:
                if hier_serve is None:
                    cached = store_kb[object_id]

                # DeliverySession.outcome(), inlined with identical
                # floating-point operation order.
                if cached > size:
                    cached = size
                missing = size - duration * observed - cached
                if missing <= 0:
                    delay = 0.0
                elif observed <= 0:
                    delay = inf
                else:
                    delay = missing / observed
                supported_rate = cached / duration + (
                    observed if observed > 0.0 else 0.0
                )
                fraction = supported_rate / bitrate
                if fraction >= 1.0:
                    quality = 1.0
                else:
                    quality = int(fraction / quantum + 1e-9) * quantum
                if disposition is not None and disposition[3] > 0.0:
                    # Retry backoff delays playout start.
                    delay = delay + disposition[3]
                cache_kb = cached
                server_kb = size - cached
                added = value if delay <= 0.0 else 0.0
                status = SERVED
            if hier_serve is None:
                policy_on_request(obj, believed, req_time, store)
        else:
            # Fetch failed after the retry budget: serve the cached
            # prefix stale, or fail the request outright.  No
            # policy_on_request — the origin is unreachable, so there
            # is nothing to fetch or admit.
            if hier_edge is not None:
                cached = hier_edge(
                    pops[index] if pops is not None else 0, object_id
                )
            else:
                cached = store_kb[object_id]
            if cached > size:
                cached = size
            stale = serve_stale and cached > 0.0
            record_unserved(stale)
            if measuring:
                delay = disposition[3]
                server_kb = 0.0
                added = 0.0
                if stale:
                    cache_kb = cached
                    quality = stale_quality(cached, duration, bitrate, quantum)
                    status = STALE
                else:
                    cache_kb = 0.0
                    quality = 0.0
                    status = FAILED
                if stream_failed is not None and object_id in stream_ids:
                    stream_failed(delay, quality)

        # The one outcome row of a measured request.  Status and retries
        # are written only for requests the fault model touched: every
        # other row keeps the zeros (served, no retries) that a fresh or
        # just-reduced block holds.
        if measuring:
            row = index - origin
            if row == block_rows:
                ctx.reduce(row)
                origin = index
                row = 0
            out_cache[row] = cache_kb
            out_server[row] = server_kb
            out_delay[row] = delay
            out_quality[row] = quality
            out_value[row] = added
            if disposition is not None:
                out_status[row] = status
                out_retries[row] = disposition[4]

        if estimator_observe is not None:
            estimate = estimator_observe(server_id, origin_observed)
            if rekeyer_request is not None:
                rekeyer_request(
                    req_time,
                    server_id,
                    lm_groups[index] if lm_groups is not None else None,
                    prior_estimate,
                    observed,
                    estimate,
                )
        if verify_store and not verify_consistency():
            raise AssertionError(
                "cache store accounting became inconsistent "
                f"after request {index} (object {object_id})"
            )

    ctx.tl_boundary = tl_boundary
