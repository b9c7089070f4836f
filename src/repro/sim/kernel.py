"""The per-request service kernel behind the simulator's replay driver.

This module is the single home of the per-request service sequence.  The
driver in :mod:`repro.sim.simulator` owns *iteration* (trace order and
where the re-measurement rounds fall); the kernel owns *service*:

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
uninterrupted by a re-measurement round or a window end.  Chunks are the
seam for later vectorisation — the kernel is free to process a run
however it likes as long as the observable sequence is preserved, and
splitting a run at any request must not change a bit of the result
(``tests/test_sim_kernel.py`` checks this down to one request per chunk).

The only whole-trace columns are the trace's own numpy arrays (object
ids, times, client ids).  The loop reads Python lists, which cost 32 to
36 bytes per element where the array costs 8, so the context lists one
*window* of :data:`WINDOW_ROWS` requests at a time
(:meth:`KernelContext.load_window`): it derives the window's client
groups, group base bandwidths and pops from its client ids and draws the
window's observed bandwidths (below).  A replay's memory beyond the trace
and its catalog-sized tables is one window, whatever the trace's length.
The loop indexes a window's lists with window-local indices.

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
attributes each stage calls onto the context once per run, through the
run's :class:`~repro.obs.profiling.StageProfiler` timers when it has
one, so it is the one list of what the loop reads.  Adding a subsystem
to the simulator means adding one stage hook here (see
``docs/architecture.md``).

All bandwidth-draw logic also lives here.  A request's observed origin
bandwidth is its path's base modulated by a variability ratio, and with a
client cloud its observed last mile is its group's base modulated by
another, each floored at 1 KB/s.  :meth:`KernelContext.load_window` draws
each side's ratios for its window as one batch (:func:`_observed`): the
origin's from the run's generator, the last mile's from the client
cloud's own, which :func:`build_context` creates.  A bundled model's
batch of ``n`` consumes its generator exactly like ``n`` one-ratio draws,
so with the windows loaded once each, in trace order, every request gets
the ratio one whole-trace batch would give it: neither chunk boundaries,
window ends nor the probe rounds fired between chunks (whose generator is
their own) move a value.  Each side's batches come from the one
variability model its paths share; a topology whose origin paths, or
whose client-cloud paths, carry more than one model instance is refused
with a :class:`~repro.exceptions.ConfigurationError` by
:func:`build_context`, before the first request.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.exceptions import ConfigurationError
from repro.sim.faults import stale_quality
from repro.sim.metrics import FAILED, OUTCOME_COLUMNS, SERVED, STALE
from repro.workload.catalog import dense_ids, id_table

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

#: Requests per replay window: how many rows of each per-request column
#: the context holds as Python lists at once (about 100 bytes a row with
#: ids, times and observed bandwidth, so 1.6 MB), and how many ratios a
#: side draws in one batch.
WINDOW_ROWS = 16_384


# ----------------------------------------------------------------------
# Bandwidth-draw logic (one home; used by build_context and load_window).
# ----------------------------------------------------------------------
def _shared_model(paths, side: str):
    """The one variability model instance all of ``paths`` carry
    (``None`` when there are no paths).

    Raises :class:`ConfigurationError` naming ``side`` when two paths
    carry different instances: the replay draws a side's ratios in
    batches from one model.
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


def _observed(base: np.ndarray, model, rng: np.random.Generator) -> list:
    """The observed bandwidths of one window: each request's ``base``
    times the next ratio ``model`` draws from ``rng``, floor 1 KB/s, as a
    list.  ``base`` is a fresh gather, computed over in place.

    The window's ratios are one batch of ``len(base)``.  A bundled
    model's ``sample_ratio(rng, size=n)`` consumes the generator exactly
    like ``n`` consecutive ``size=1`` draws, so the batches of a run's
    windows, drawn in trace order, are elementwise IEEE-identical to one
    whole-trace batch or to drawing each request in turn.
    """
    ratios = np.asarray(model.sample_ratio(rng, size=len(base)), dtype=np.float64)
    np.multiply(base, ratios, out=base)
    np.maximum(base, 1.0, out=base)
    return base.tolist()


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
    ``outcome_origin``), the ``tl_boundary`` cursor and the two
    generators (``origin_rng``, ``cloud_rng``) are *run state* carried
    across chunks.  ``id_column``, ``time_column`` and ``client_column``
    are the trace's whole numpy columns (``client_column`` only with a
    client cloud or several pops).  The window slots (``ids``,
    ``times``, ``observed_seq``, ``lm_groups``, ``lm_base``,
    ``lm_observed``, ``pops``) hold, as lists, the rows of the window
    :meth:`load_window` loaded last, whose row 0 is request
    ``window_start``; a slot the run has no use for holds ``None``.
    Everything else is read-only for the run.  Call :meth:`finish`
    exactly once after the replay completes.
    """

    __slots__ = (
        # Static bindings (read-only during replay).
        "requests",
        "id_column",
        "time_column",
        "client_column",
        "base_keys",
        "base_lut",
        "origin_model",
        "group_base",
        "cloud_model",
        "num_pops",
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
        # The loaded window's lists.
        "window_start",
        "ids",
        "times",
        "observed_seq",
        "lm_base",
        "lm_observed",
        "lm_groups",
        "pops",
        # Run state (carried across chunks).
        "origin_rng",
        "cloud_rng",
        "tl_boundary",
        "outcomes",
        "outcome_origin",
    )

    def load_window(self, start: int) -> int:
        """Load the window that starts at request ``start``: the next
        :data:`WINDOW_ROWS` requests (fewer at the trace's end) as lists
        of their ids, times and observed bandwidths, and of what the run
        derives from their client ids (client group, the group's base and
        observed last mile, pop).  Returns the request the window stops
        before.

        Each side draws the window's ratios as the next batch from its
        generator, so the replay loads every window once, in trace order.
        """
        stop = min(start + WINDOW_ROWS, self.requests)
        self.window_start = start
        # Drop the last window's lists first, so that a window switch
        # never holds two lists of one column, and draw before listing
        # ids and times, so that the draws' arrays are gone by then.
        self.ids = self.times = self.observed_seq = None
        self.lm_groups = self.lm_base = self.lm_observed = self.pops = None
        ids = self.id_column[start:stop]
        keys = ids if self.base_keys is None else np.searchsorted(self.base_keys, ids)
        self.observed_seq = _observed(
            self.base_lut[keys], self.origin_model, self.origin_rng
        )
        if self.client_column is not None:
            clients = self.client_column[start:stop]
            group_base = self.group_base
            if group_base is not None:
                groups = clients % len(group_base)
                base = group_base[groups]
                self.lm_base = base.tolist()
                self.lm_observed = _observed(base, self.cloud_model, self.cloud_rng)
                self.lm_groups = groups.tolist()
            if self.num_pops > 1:
                self.pops = (clients % self.num_pops).tolist()
        self.ids = ids.tolist()
        self.times = self.time_column[start:stop].tolist()
        return stop

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
    profiler=None,
) -> KernelContext:
    """Assemble the per-run :class:`KernelContext` for a columnar ``trace``.

    Binds each configured subsystem's stage methods and attributes,
    prefills the per-object entry table and base-bandwidth lookup, and
    checks that each side's paths share one variability model.  The
    per-request columns stay numpy arrays; the replay loop loads each
    window's lists with :meth:`KernelContext.load_window`, which draws
    the window's origin ratios from ``rng`` and its last-mile ratios
    from a generator seeded with ``client_cloud_seed``, before serving
    it.

    ``rekeyer`` is the *passive-reactive* rekeyer (already gated by the
    config).  With the run's ``profiler``
    (:class:`~repro.obs.profiling.StageProfiler`), the policy's
    ``on_request``, the estimator's ``estimate`` and ``observe`` and the
    injector's ``intercept`` are bound through its timers
    (``policy_ops``, ``estimator``, ``fault_evaluation``), so the stages
    time the kernel's own calls and no two overlap.
    """
    catalog_get = catalog.get
    path_for = topology.path_for
    total = len(trace)
    timed = profiler.wrap if profiler is not None else lambda stage, func: func

    ctx = KernelContext()
    ctx.requests = total
    ctx.warmup_cutoff = warmup_cutoff
    ctx.verify_store = verify_store
    ctx.store = store
    # The flat store's id -> KB table, sized to the catalog by the caller.
    ctx.store_kb = store.cached_kb
    ctx.policy_on_request = timed("policy_ops", policy.on_request)
    ctx.collector = collector
    if estimator is not None:
        ctx.estimator_estimate = timed("estimator", estimator.estimate)
        ctx.estimator_observe = timed("estimator", estimator.observe)
    else:
        ctx.estimator_estimate = ctx.estimator_observe = None

    ctx.rekeyer_request = rekeyer.observe_request if rekeyer is not None else None

    if injector is not None:
        ctx.intercept = timed("fault_evaluation", injector.intercept)
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

    # The per-request columns, kept as numpy arrays for the whole run;
    # load_window lists one window of each at a time, derives the client
    # group, group base and pop columns from the client ids and draws the
    # window's observed bandwidths.
    ids_array = trace.object_ids_array
    ctx.id_column = ids_array
    ctx.time_column = trace.times_array
    ctx.num_pops = num_pops
    # A client cloud's requests come from group ``client_id % groups``;
    # the cache knows its own client side, so each group's base is what
    # it believes that group's last mile sustains.
    cloud_paths = topology.clients.paths
    if cloud_paths:
        ctx.cloud_model = _shared_model(cloud_paths, "client-cloud")
        ctx.cloud_rng = np.random.default_rng(client_cloud_seed)
        ctx.group_base = np.array(
            [path.base_bandwidth for path in cloud_paths], dtype=np.float64
        )
    else:
        ctx.cloud_model = ctx.cloud_rng = ctx.group_base = None
    ctx.client_column = (
        trace.client_ids_array if cloud_paths or num_pops > 1 else None
    )

    # Resolve every distinct object once.  Dense ids (0..N-1 for
    # generated and ingested catalogs) index a list; sparse ids key a
    # dict, so ``entries[object_id]`` serves both without a remap.  Dense
    # ids are found with a presence mask over their range, which sorts no
    # copy of the id column.
    low, high = (int(ids_array.min()), int(ids_array.max())) if total else (0, -1)
    if dense_ids(low, high, total):
        present = np.zeros(high + 1, dtype=bool)
        present[ids_array] = True
        unique_ids = np.flatnonzero(present)
    else:
        unique_ids = np.unique(ids_array)
    object_ids = unique_ids.tolist()
    entries = id_table(object_ids, total, None)
    for object_id in object_ids:
        entries[object_id] = _make_entry(catalog_get, path_for, object_id)
    ctx.entries = entries

    # Each object's base bandwidth, for load_window's gather: dense ids
    # index the lookup, sparse ids their position among the sorted
    # distinct ids.
    unique_base = np.array(
        [entries[object_id][1] for object_id in object_ids], dtype=np.float64
    )
    if isinstance(entries, list):
        ctx.base_keys = None
        ctx.base_lut = np.zeros(len(entries), dtype=np.float64)
        ctx.base_lut[unique_ids] = unique_base
    else:
        ctx.base_keys = unique_ids
        ctx.base_lut = unique_base
    ctx.origin_model = _shared_model(topology.paths, "origin")
    ctx.origin_rng = rng

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
def serve_batch(ctx: KernelContext, start: int, stop: int) -> None:
    """Serve the trace run ``[start, stop)`` through the kernel.

    The replay loop guarantees no re-measurement round is due inside the run
    and that the run lies inside the window it loaded last
    (:meth:`KernelContext.load_window`), so the kernel owns the whole
    chunk: the context is unpacked into locals once per chunk and the
    stages run inline per request.  The loop's ``index`` is window-local:
    the warm-up cutoff and the outcome block's origin are moved into
    window coordinates once per chunk, and ``base + index`` is the
    request's index in the trace.  Every measured request ends in one
    outcome row, written by the shared tail below.
    """
    if stop <= start:
        return

    # Unpack the context once per chunk, in window coordinates.
    base = ctx.window_start
    low = start - base
    high = stop - base
    warmup_cutoff = ctx.warmup_cutoff - base
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
    ids = ctx.ids
    times = ctx.times
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
    origin = ctx.outcome_origin - base
    measuring = low >= warmup_cutoff
    tl_boundary = ctx.tl_boundary

    id_run = ids if low == 0 and high == len(ids) else ids[low:high]
    for index, object_id in enumerate(id_run, low):
        req_time = times[index]
        if req_time >= tl_boundary:
            tl_boundary = tl_close(req_time, base + index)
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
                f"after request {base + index} (object {object_id})"
            )

    ctx.tl_boundary = tl_boundary
