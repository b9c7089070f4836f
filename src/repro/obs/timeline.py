"""Windowed time-series metrics: the :class:`MetricsTimeline` recorder.

The replay kernel checks one precomputed boundary time per request and,
when a window boundary has passed, calls :meth:`MetricsTimeline.close`
with the request's trace index.  The recorder snapshots its gauges and
counters at that moment — evictions and occupancy from the cache store,
the reactive re-keyer's, the fault injector's and the streaming engine's
counters — and leaves the marker's core metric sums (requests, bytes,
delay, quality, value, hits, ...) pending: the kernel writes one outcome
row per measured request and sums the rows in blocks, and each block's
reduction reads its running sums at the pending markers' rows
(:meth:`pending_rows`) — the sums over the requests before each marker's
own — and hands them over (:meth:`settle`).  Window crossings never
force a reduction.

Recording cumulative snapshots — not per-window sums — is what makes the
acceptance criteria cheap to satisfy:

* the final cumulative row *is* the end-of-run aggregate, bit-exactly,
  because it is read from the very reduction the run finalises;
* per-window deltas are differences of exact cumulatives, so integer
  deltas sum back to the aggregate exactly and float deltas telescope to
  it by construction;
* a marker is taken at one sequence point (after the re-measurement
  rounds due before the request fire, before the request is served),
  so the markers — and
  every derived series — do not depend on how the trace is chunked or
  where the outcome blocks are reduced.

Windows are fixed-width in simulated time, anchored at the trace start.
A marker taken at time ``t`` closes every window that ended at or before
``t``; counter movement between two requests (e.g. probe-driven re-keys
fired between requests) is attributed to the window of the request that
follows it.  Derived per-window
series (hit ratio, byte-hit ratio, mean latency, fault state, ...) are
computed lazily with numpy and never stored, so a finished timeline
pickles as plain Python data and compares by value.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["CUMULATIVE_FIELDS", "GAUGE_FIELDS", "MetricsTimeline"]

#: Field names of one cumulative snapshot row, in storage order.  The
#: first fourteen are the core metric sums: the sums of
#: :class:`repro.sim.metrics.MetricsCollector` of the same names, which
#: :meth:`~repro.sim.metrics.MetricsCollector.absorb_rows` returns in
#: this order; the rest are read from the cache store, the reactive
#: re-keyer, the fault injector, and the streaming delivery engine at
#: snapshot time.
CUMULATIVE_FIELDS = (
    "requests",
    "bytes_from_cache",
    "bytes_from_server",
    "delay_sum",
    "quality_sum",
    "value_sum",
    "hits",
    "immediate",
    "delayed",
    "delay_sum_delayed",
    "failed",
    "stale_served",
    "retried",
    "total_retries",
    "evictions",
    "reactive_shifts",
    "reactive_rekeys",
    "fault_degraded",
    "fault_failed_fetches",
    "fault_stale_serves",
    "streaming_sessions",
    "streaming_startup_sum",
    "streaming_rebuffer_sum",
    "streaming_watch_sum",
    "streaming_quality_sum",
    "streaming_abandoned",
)

#: Instantaneous gauges sampled alongside each snapshot (not cumulative).
GAUGE_FIELDS = ("cache_occupancy", "cached_objects")

#: Cumulative fields whose per-window deltas are exact integers.
_INTEGER_FIELDS = frozenset(CUMULATIVE_FIELDS) - {
    "bytes_from_cache",
    "bytes_from_server",
    "delay_sum",
    "quality_sum",
    "value_sum",
    "delay_sum_delayed",
    "streaming_startup_sum",
    "streaming_rebuffer_sum",
    "streaming_watch_sum",
    "streaming_quality_sum",
}

_N_FIELDS = len(CUMULATIVE_FIELDS)


class MetricsTimeline:
    """Fixed-window time series of simulation metrics for one run.

    Lifecycle: the simulator constructs the timeline with the window
    width and the trace start time, :meth:`bind`\\ s the component objects
    whose counters extend each snapshot, receives boundary crossings from
    the replay loop via :meth:`close` and their core sums via
    :meth:`settle`, and seals the record with :meth:`finish` (the run's
    last reduction settles its final marker).  All read accessors
    (:meth:`cumulative`, :meth:`delta`, :meth:`series`, :meth:`totals`,
    :meth:`as_dict`) require a finished timeline.
    """

    def __init__(self, window_s: float, start_time: float) -> None:
        """Create an empty timeline with windows of ``window_s`` seconds
        anchored at ``start_time`` (the first request's timestamp)."""
        self.window_s = float(window_s)
        self.start_time = float(start_time)
        #: Markers ``(window_index, cumulative_tuple, occupancy, objects)``
        #: in strictly increasing window order; plain Python only.
        self._marks: List[Tuple[int, tuple, float, int]] = []
        #: Markers still waiting for their core sums:
        #: ``(window_index, request_index, extras, occupancy, objects)``.
        self._pending: List[Tuple[int, int, tuple, float, int]] = []
        self.num_windows = 0
        self._finished = False
        self._store = None
        self._rekeyer = None
        self._injector = None
        self._streaming = None
        self._cum: Optional[np.ndarray] = None
        self._occ: Optional[np.ndarray] = None
        self._objs: Optional[np.ndarray] = None

    @property
    def first_boundary(self) -> float:
        """End time of the first window — the loop's initial threshold."""
        return self.start_time + self.window_s

    @property
    def finished(self) -> bool:
        """Whether :meth:`finish` has sealed the record."""
        return self._finished

    def bind(self, store=None, rekeyer=None, injector=None, streaming=None) -> None:
        """Attach the components whose counters extend each snapshot.

        ``store`` supplies evictions and the occupancy gauges,
        ``rekeyer`` the reactive shift/re-key counters, ``injector``
        the fault counters, and ``streaming`` the per-session QoE
        accumulators; any of them may be ``None`` (the corresponding
        fields record zero).  References are dropped by :meth:`finish`
        so a finished timeline holds no simulator state.
        """
        self._store = store
        self._rekeyer = rekeyer
        self._injector = injector
        self._streaming = streaming

    def _extras(self) -> tuple:
        store = self._store
        rekeyer = self._rekeyer
        injector = self._injector
        streaming = self._streaming
        return (
            store.evictions if store is not None else 0,
            rekeyer.shifts if rekeyer is not None else 0,
            rekeyer.entries_rekeyed if rekeyer is not None else 0,
            injector.degraded_requests if injector is not None else 0,
            injector.failed_fetches if injector is not None else 0,
            injector.stale_serves if injector is not None else 0,
            streaming.sessions if streaming is not None else 0,
            streaming.startup_sum if streaming is not None else 0.0,
            streaming.rebuffer_sum if streaming is not None else 0.0,
            streaming.watch_sum if streaming is not None else 0.0,
            streaming.quality_sum if streaming is not None else 0.0,
            streaming.abandoned if streaming is not None else 0,
        )

    def _mark(self, window: int, index: int) -> None:
        store = self._store
        self._pending.append(
            (
                window,
                index,
                self._extras(),
                store.occupancy if store is not None else 0.0,
                len(store) if store is not None else 0,
            )
        )

    def close(self, now: float, index: int) -> float:
        """Record a boundary crossing observed at request ``index``, time
        ``now``.

        The marker closes every window that ended at or before ``now``;
        its core sums — over the measured requests before ``index`` — are
        filled in by :meth:`settle`.  Returns the next boundary time the
        replay loop should test against.
        """
        window = int((now - self.start_time) / self.window_s)
        self._mark(window, index)
        return self.start_time + (window + 1) * self.window_s

    def pending_rows(self, first: int) -> List[int]:
        """Rows of the pending markers in the block of outcome rows whose
        row 0 is request ``first`` (row 0 for a marker taken before it,
        during the warm-up)."""
        return [max(index - first, 0) for _, index, _, _, _ in self._pending]

    def settle(self, cores) -> None:
        """Give every pending marker its core sums, one tuple each, in
        marker order (:meth:`repro.sim.metrics.MetricsCollector.absorb_rows`
        at :meth:`pending_rows`)."""
        pending = self._pending
        self._marks.extend(
            (window, core + extras, occupancy, objects)
            for (window, _, extras, occupancy, objects), core in zip(pending, cores)
        )
        pending.clear()

    def finish(self, end_time: float, index: int) -> None:
        """Seal the record at ``end_time``; ``index`` is the request count.

        The final marker is settled, like every other, by the run's last
        reduction, so the final cumulative row is bit-identical to the
        end-of-run aggregates.  Component references taken by
        :meth:`bind` are released so the timeline is self-contained.
        """
        span = max(end_time - self.start_time, 0.0)
        self.num_windows = int(span / self.window_s) + 1
        self._mark(self.num_windows, index)
        self._finished = True
        self._store = None
        self._rekeyer = None
        self._injector = None
        self._streaming = None

    # -- read accessors -------------------------------------------------

    def _require_finished(self) -> None:
        if not self._finished:
            raise RuntimeError("timeline accessors require finish() first")

    def _expand(self) -> None:
        """Densify the sparse markers into per-window cumulative arrays.

        Window ``w``'s row is the last snapshot taken at or before the
        end of window ``w``; windows with no intervening marker carry
        the next marker's value (no requests were processed in them, so
        the accumulators did not move between those boundaries).
        """
        if self._cum is not None:
            return
        self._require_finished()
        n = self.num_windows
        cum = np.zeros((n, _N_FIELDS), dtype=np.float64)
        occ = np.zeros(n, dtype=np.float64)
        objs = np.zeros(n, dtype=np.int64)
        prev = 0
        for index, snapshot, occupancy, objects in self._marks:
            upto = min(index, n)
            if upto > prev:
                cum[prev:upto] = snapshot
                occ[prev:upto] = occupancy
                objs[prev:upto] = objects
                prev = upto
        self._cum = cum
        self._occ = occ
        self._objs = objs

    def window_starts(self) -> np.ndarray:
        """Start time of each window, as a float array."""
        self._require_finished()
        return self.start_time + self.window_s * np.arange(
            self.num_windows, dtype=np.float64
        )

    def cumulative(self, field: str) -> np.ndarray:
        """Cumulative value of ``field`` at the end of each window."""
        self._expand()
        return self._cum[:, CUMULATIVE_FIELDS.index(field)].copy()

    def delta(self, field: str) -> np.ndarray:
        """Per-window increment of ``field`` (differences of cumulatives)."""
        self._expand()
        column = self._cum[:, CUMULATIVE_FIELDS.index(field)]
        out = np.diff(column, prepend=0.0)
        if field in _INTEGER_FIELDS:
            return np.rint(out).astype(np.int64)
        return out

    def gauge(self, name: str) -> np.ndarray:
        """Sampled gauge series (``cache_occupancy`` or ``cached_objects``)."""
        self._expand()
        if name == "cache_occupancy":
            return self._occ.copy()
        if name == "cached_objects":
            return self._objs.astype(np.float64)
        raise KeyError(f"unknown gauge {name!r}; expected one of {GAUGE_FIELDS}")

    def totals(self) -> Dict[str, float]:
        """Final cumulative value per field — the end-of-run aggregates."""
        self._require_finished()
        final = self._marks[-1][1]
        return {
            field: (int(value) if field in _INTEGER_FIELDS else float(value))
            for field, value in zip(CUMULATIVE_FIELDS, final)
        }

    def series(self) -> Dict[str, np.ndarray]:
        """All derived per-window series, keyed by name.

        Ratios guard division by zero with zero; ``fault_state`` encodes
        the per-window fault condition as ``0`` (healthy), ``1``
        (degraded: slowed fetches or stale serves), or ``2`` (failed:
        at least one fetch failure in the window).  The ``streaming_*``
        series are per-session QoE averages over the window — startup
        delay, rebuffer ratio (stall time over stall-plus-watch time),
        delivered quality, and abandonment rate — and are all-zero when
        the run had no streaming workload.
        """
        self._expand()
        requests = self.delta("requests").astype(np.float64)
        hits = self.delta("hits").astype(np.float64)
        from_cache = self.delta("bytes_from_cache")
        from_server = self.delta("bytes_from_server")
        delay = self.delta("delay_sum")
        total_bytes = from_cache + from_server
        safe_requests = np.where(requests > 0, requests, 1.0)
        safe_bytes = np.where(total_bytes > 0, total_bytes, 1.0)
        degraded = (
            (self.delta("fault_degraded") > 0)
            | (self.delta("fault_stale_serves") > 0)
        )
        failed = self.delta("fault_failed_fetches") > 0
        fault_state = np.where(failed, 2, np.where(degraded, 1, 0)).astype(
            np.int64
        )
        sessions = self.delta("streaming_sessions").astype(np.float64)
        startup = self.delta("streaming_startup_sum")
        rebuffer = self.delta("streaming_rebuffer_sum")
        watch = self.delta("streaming_watch_sum")
        stream_quality = self.delta("streaming_quality_sum")
        abandoned = self.delta("streaming_abandoned").astype(np.float64)
        safe_sessions = np.where(sessions > 0, sessions, 1.0)
        stall_and_watch = rebuffer + watch
        safe_stall_watch = np.where(stall_and_watch > 0, stall_and_watch, 1.0)
        return {
            "requests": requests.astype(np.int64),
            "hits": hits.astype(np.int64),
            "hit_ratio": np.where(requests > 0, hits / safe_requests, 0.0),
            "byte_hit_ratio": np.where(
                total_bytes > 0, from_cache / safe_bytes, 0.0
            ),
            "mean_delay": np.where(requests > 0, delay / safe_requests, 0.0),
            "cache_occupancy": self.gauge("cache_occupancy"),
            "cached_objects": self._objs.copy(),
            "evictions": self.delta("evictions"),
            "reactive_shifts": self.delta("reactive_shifts"),
            "reactive_rekeys": self.delta("reactive_rekeys"),
            "fault_state": fault_state,
            "streaming_startup_delay": np.where(
                sessions > 0, startup / safe_sessions, 0.0
            ),
            "streaming_rebuffer_ratio": np.where(
                stall_and_watch > 0, rebuffer / safe_stall_watch, 0.0
            ),
            "streaming_quality": np.where(
                sessions > 0, stream_quality / safe_sessions, 0.0
            ),
            "streaming_abandonment_rate": np.where(
                sessions > 0, abandoned / safe_sessions, 0.0
            ),
        }

    def as_dict(self) -> dict:
        """JSON-serialisable form: window grid, derived series, totals."""
        self._require_finished()
        return {
            "schema": 1,
            "window_s": self.window_s,
            "start_time": self.start_time,
            "num_windows": self.num_windows,
            "window_starts": self.window_starts().tolist(),
            "series": {
                name: values.tolist() for name, values in self.series().items()
            },
            "totals": self.totals(),
        }

    def __eq__(self, other: object) -> bool:
        """Value equality on the recorded markers and window grid."""
        if not isinstance(other, MetricsTimeline):
            return NotImplemented
        return (
            self.window_s == other.window_s
            and self.start_time == other.start_time
            and self.num_windows == other.num_windows
            and self._finished == other._finished
            and self._marks == other._marks
        )

    def __ne__(self, other: object) -> bool:
        """Inverse of :meth:`__eq__`."""
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __getstate__(self) -> dict:
        """Pickle only the plain-Python record, never cached arrays."""
        return {
            "window_s": self.window_s,
            "start_time": self.start_time,
            "num_windows": self.num_windows,
            "_marks": self._marks,
            "_finished": self._finished,
        }

    def __setstate__(self, state: dict) -> None:
        """Restore from :meth:`__getstate__`; caches rebuild lazily."""
        self.window_s = state["window_s"]
        self.start_time = state["start_time"]
        self.num_windows = state["num_windows"]
        self._marks = state["_marks"]
        self._pending = []
        self._finished = state["_finished"]
        self._store = None
        self._rekeyer = None
        self._injector = None
        self._streaming = None
        self._cum = None
        self._occ = None
        self._objs = None

    def __repr__(self) -> str:
        """Compact summary: window width, count, and marker count."""
        return (
            f"MetricsTimeline(window_s={self.window_s}, "
            f"num_windows={self.num_windows}, marks={len(self._marks)})"
        )
