"""Policy framework: the utility-keyed priority-heap replacement engine.

Every online policy in the paper follows the same skeleton (Section 2.4):
maintain a per-object *utility* value, estimate request frequency online,
and on each request try to cache a per-object *target* number of bytes,
evicting the lowest-utility cached content to make room — but never
evicting content whose utility is at least that of the requested object.
Concrete policies differ only in one function, :meth:`CachePolicy.plan`,
which maps a request's believed bandwidth, frequency estimate and time to
two numbers:

* the *target* — how much of the object is worth caching (the whole
  object for integral policies, the ``(r − b) T`` prefix for partial ones,
  zero when bandwidth is abundant), and
* the *utility* — the priority key (e.g. ``F`` for IF, ``F / b`` for
  PB/IB, ``F V / (T r − T b)`` for PB-V).

The engine implements the replacement loop once, with the priority queue
("heap which uses the utility value as the key", Section 2.4) shared by all
policies.  Partial policies may trim the marginal victim and may admit the
requested object partially (the fractional-knapsack behaviour); integral
policies evict and admit whole objects only.
"""

from __future__ import annotations

import heapq
import itertools
from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Tuple

from repro.core.frequency import FrequencyTracker
from repro.core.store import CacheStore
from repro.exceptions import PolicyError
from repro.workload.catalog import MediaObject

#: Byte tolerance below which two cache sizes are considered equal.
_EPSILON_KB = 1e-6


class CachePolicy(ABC):
    """Base class for online replacement policies.

    Subclasses set :attr:`allows_partial` and implement :meth:`plan`;
    everything else (frequency tracking, the priority heap, eviction
    planning) is shared.
    """

    #: Human-readable policy name, used in reports and plots.
    name: str = "base"

    #: Whether the policy may cache and evict fractions of objects.
    allows_partial: bool = False

    #: Whether the utility :meth:`plan` returns depends on the bandwidth.  Only
    #: bandwidth-keyed policies react to out-of-band bandwidth shifts
    #: (:meth:`on_bandwidth_shift`); for the others a re-key would either be
    #: a no-op (frequency-keyed utilities) or outright wrong (recency-keyed
    #: utilities must only move on requests).  Inflation-keyed policies may
    #: opt in with a re-key that preserves each entry's inflation component
    #: (GreedyDual's ``"delay"`` cost model does; see
    #: :meth:`repro.core.policies.greedydual.GreedyDualSizePolicy.on_bandwidth_shift`).
    bandwidth_keyed: bool = False

    #: Extra heap entries tolerated before a compaction pays off; keeps tiny
    #: caches from compacting on every request.
    _COMPACTION_SLACK: int = 64

    #: Streaming hooks, installed per run by the simulator when a
    #: :class:`~repro.sim.streaming.StreamingConfig` is active and removed
    #: again afterwards.  ``stream_quantize(object_id, target_kb, size_kb)``
    #: reshapes the admission target of stream objects (segment-boundary
    #: quantisation plus session prefetch, or whole-object in the ablation
    #: baseline); ``stream_trim(victim_id, needed_kb, now)`` reclaims space
    #: from a stream victim by dropping tail segments at request time
    #: ``now``, returning ``(reclaimed, emptied)``, or ``None`` for
    #: non-stream victims.  Both default to
    #: ``None`` so the streaming-off request path costs one attribute test.
    stream_quantize = None
    stream_trim = None

    def __init__(self) -> None:
        #: Request counts ``F_i``.  The engine is the only writer of the
        #: tracker's table: :meth:`on_request` increments it in place
        #: through ``_counts``, which :meth:`install` binds.
        self.frequencies = FrequencyTracker()
        self._counts = self.frequencies.counts
        self._catalog = None
        self._server_objects: Optional[Dict[int, List[int]]] = None
        self._utilities: Dict[int, float] = {}
        self._heap: List[Tuple[float, int, int]] = []
        self._heap_counter = itertools.count()
        #: Sequence number of each object's *live* heap entry.  A heap entry
        #: ``(utility, seq, object_id)`` is valid iff ``_entry_seq[object_id]
        #: == seq``; every re-push bumps the sequence, so staleness detection
        #: is an exact integer comparison rather than a float-tolerance test.
        self._entry_seq: Dict[int, int] = {}
        self._heap_peak = 0
        self._compactions = 0

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"

    # ------------------------------------------------------------------
    # The hook concrete policies implement.
    # ------------------------------------------------------------------
    @abstractmethod
    def plan(
        self, obj: MediaObject, bandwidth: float, frequency: float, now: float
    ) -> Tuple[float, float]:
        """The policy's decision for one request: ``(target_kb, utility)``.

        ``target_kb`` is how many KB of the object the policy would like
        cached and ``utility`` its priority key (higher-utility content is
        kept in preference).  ``bandwidth`` is what the cache currently
        *believes* the path to the object's origin sustains (KB/s): the
        oracle base bandwidth or a passive estimate, depending on the
        simulator's configuration.  ``frequency`` is the object's
        request-frequency estimate ``F_i`` including the current request,
        and ``now`` the request's simulation time (seconds).
        """

    def on_evict(self, object_id: int, utility: float) -> None:
        """Hook invoked whenever the engine evicts a whole object.

        The default does nothing; GreedyDual-style policies override it to
        update their inflation value (the utility of the last victim).
        """

    def install(self, store: CacheStore, catalog) -> None:
        """Give the policy its pre-replay context (called by the simulator).

        Sizes the store's KB table and the frequency table to the catalog,
        so :meth:`on_request` indexes both by object id with no bounds
        check; it must run before the first request.  The catalog is also
        what lets :meth:`on_bandwidth_shift` resolve tracked object ids
        back to their origin servers.  Subclasses that pre-populate the
        store (:class:`~repro.core.policies.optimal.StaticAllocationPolicy`)
        override this wholesale.
        """
        store.reserve(catalog)
        self.frequencies.reserve(catalog)
        self._counts = self.frequencies.counts
        self._catalog = catalog
        self._server_objects = None

    def _objects_on_server(self, server_id: int) -> List[int]:
        """Catalog object ids hosted on one server (index built lazily).

        The index costs one catalog pass on the first bandwidth shift and
        makes each subsequent shift O(objects on that server) instead of a
        scan over everything the policy has ever tracked.
        """
        if self._server_objects is None:
            by_server: Dict[int, List[int]] = {}
            for obj in self._catalog:
                by_server.setdefault(obj.server_id, []).append(obj.object_id)
            self._server_objects = by_server
        return self._server_objects.get(server_id, [])

    def on_bandwidth_shift(self, server_id: int, bandwidth: float, now: float) -> int:
        """React to a shift in one path's believed bandwidth.

        Called by the simulator's reactive hook
        (``SimulationConfig.reactive_threshold``; see ``docs/events.md``)
        when a bandwidth-belief update — a periodic probe, or a passive
        per-request observation under
        ``SimulationConfig.reactive_passive`` — moves a path's believed
        value past the configured threshold (hysteresis- and
        rate-cap-gated).  Every tracked object served by ``server_id`` has its
        utility recomputed under the new believed ``bandwidth`` (and its
        current frequency estimate) and is re-pushed onto the heap —
        generation-keyed, so the superseded entries become stale garbage
        that the existing lazy-invalidation + compaction machinery reclaims.
        Entries whose utility is unchanged are left alone.

        Returns the number of heap entries re-keyed; 0 when the policy is
        not bandwidth-keyed or no catalog was installed.
        """
        if not self.bandwidth_keyed or self._catalog is None:
            return 0
        bandwidth = float(bandwidth)
        catalog_get = self._catalog.get
        counts = self._counts
        plan = self.plan
        utilities = self._utilities
        rekeyed = 0
        for object_id in self._objects_on_server(server_id):
            old_utility = utilities.get(object_id)
            if old_utility is None:
                continue
            utility = plan(
                catalog_get(object_id), bandwidth, counts[object_id], now
            )[1]
            if utility != old_utility:
                self._set_utility(object_id, utility)
                rekeyed += 1
        return rekeyed

    # ------------------------------------------------------------------
    # Heap maintenance.
    # ------------------------------------------------------------------
    def _set_utility(self, object_id: int, utility: float) -> None:
        seq = next(self._heap_counter)
        self._utilities[object_id] = utility
        self._entry_seq[object_id] = seq
        heap = self._heap
        heapq.heappush(heap, (utility, seq, object_id))
        if len(heap) > self._heap_peak:
            self._heap_peak = len(heap)
        if len(heap) > 2 * len(self._entry_seq) + self._COMPACTION_SLACK:
            self._compact_heap()

    def _drop_utility(self, object_id: int) -> None:
        self._utilities.pop(object_id, None)
        self._entry_seq.pop(object_id, None)

    def _compact_heap(self) -> None:
        """Rebuild the heap from the live entries only.

        Re-keying an object leaves its previous heap entry behind as garbage;
        once stale entries outnumber live ones (~50% of the heap) a rebuild
        amortises to O(1) per request and bounds the heap at twice the number
        of tracked objects.  Live entries keep their original sequence
        numbers, so the pop order — and therefore every eviction decision —
        is exactly what the un-compacted heap would have produced.
        """
        utilities = self._utilities
        self._heap = [
            (utilities[object_id], seq, object_id)
            for object_id, seq in self._entry_seq.items()
        ]
        heapq.heapify(self._heap)
        self._compactions += 1

    def _restore(self, object_id: int, utility: float) -> None:
        """Push a popped-but-not-evicted candidate back onto the heap."""
        seq = next(self._heap_counter)
        self._entry_seq[object_id] = seq
        heapq.heappush(self._heap, (utility, seq, object_id))
        if len(self._heap) > self._heap_peak:
            self._heap_peak = len(self._heap)

    def _renew_blocker(self, heap: list, utility: float, object_id: int) -> None:
        """Give the blocking top entry a fresh sequence number.

        The fresh, highest sequence number moves the blocker behind its
        equals.  When both children's utilities are strictly greater than
        the blocker's, nothing can tie with it, and ``heapq.heapreplace``
        would sift every entry on its path back to its own slot: the entry
        is written into ``heap[0]`` in place, which leaves the same list.
        """
        seq = next(self._heap_counter)
        self._entry_seq[object_id] = seq
        entry = (utility, seq, object_id)
        size = len(heap)
        if (size < 2 or heap[1][0] > utility) and (size < 3 or heap[2][0] > utility):
            heap[0] = entry
        else:
            heapq.heapreplace(heap, entry)

    # ------------------------------------------------------------------
    # The replacement engine.
    # ------------------------------------------------------------------
    def on_request(
        self,
        obj: MediaObject,
        bandwidth: float,
        now: float,
        store: CacheStore,
    ) -> None:
        """Handle one request: update state and adjust the cache contents.

        The request's frequency estimate lands in :attr:`frequencies` and,
        when the object is (or becomes) cached, its new priority key in
        :meth:`cached_utility`.  Both tables are read by object id, so
        :meth:`install` must have sized them to the catalog.
        """
        object_id = obj.object_id
        counts = self._counts
        frequency = counts[object_id] + 1.0
        counts[object_id] = frequency
        target, utility = self.plan(obj, bandwidth, frequency, now)
        current = store.cached_kb[object_id]

        size = obj.size
        if target > size:
            target = size
        quantize = self.stream_quantize
        if quantize is not None:
            target = quantize(object_id, target, size)

        if current > 0:
            # Refresh the requester's key: its frequency just increased.
            self._set_utility(object_id, utility)
            if target <= current + _EPSILON_KB:
                return
        elif target <= _EPSILON_KB:
            return

        free = store.free_kb
        if target - current <= free + _EPSILON_KB:
            store.set_cached_bytes(object_id, target, now)
            self._set_utility(object_id, utility)
            return

        # Most eviction attempts end at the first heap entry: a live entry
        # of another cached object that outranks the requester blocks the
        # plan before anything is popped.  Settle that case here, exactly
        # as the planner would; every other top entry goes to the planner.
        heap = self._heap
        if heap:
            top_utility, top_seq, top_id = heap[0]
            if (
                top_utility >= utility
                and self._entry_seq.get(top_id) == top_seq
                and top_id != object_id
                and store.cached_kb[top_id] > 0
            ):
                self._renew_blocker(heap, top_utility, top_id)
                if self.allows_partial:
                    self._grow_requester(
                        obj, store, current + free, utility, current, free, now
                    )
                return

        self._evict_and_admit(obj, store, target, utility, current, free, now)

    def _evict_and_admit(
        self,
        obj: MediaObject,
        store: CacheStore,
        target: float,
        utility: float,
        current: float,
        free: float,
        now: float,
    ) -> None:
        """Plan evictions of lower-utility content, then admit the object.

        ``current`` and ``free`` are the requester's cached KB and the
        store's free KB as :meth:`on_request` read them.  Integral policies
        admit all-or-nothing; partial policies trim the marginal victim and
        may admit the requested object partially when only some of the
        needed space can be reclaimed.

        The plan reads heap entries in utility order, looking at the top
        entry before it pops anything: stale ones are dropped, the
        requester's own live entry is held aside once (and reinstated
        verbatim unless the object is re-keyed), lower-utility entries
        become victims, and the first entry that outranks the requester
        blocks.  The blocker stays on top of the heap and only gets a fresh
        sequence number (:meth:`_renew_blocker`), which moves it behind its
        equals; victims that survive go back through :meth:`_restore`,
        which does the same for them.  :meth:`on_request` settles a plan
        whose very first entry blocks before calling this method, so the
        planner sees only an empty heap or plans that start with a stale
        entry, the requester's own, an object with nothing cached, or a
        victim.  Sequence numbers break ties between equal utilities, so the
        renewal order is part of every later eviction decision; a victim
        ranks strictly below the blocker, so renewing the blocker first
        decides the same ties as renewing it last.
        """
        object_id = obj.object_id
        shortfall = target - current - free
        heap = self._heap
        entry_seq = self._entry_seq
        cached_kb = store.cached_kb
        heappop = heapq.heappop
        held: Optional[Tuple[float, int, int]] = None
        planned: List[Tuple[int, float, float]] = []  # (victim_id, utility, bytes)
        reclaimed = 0.0

        while shortfall - reclaimed > _EPSILON_KB and heap:
            victim_utility, seq, victim_id = heap[0]
            if entry_seq.get(victim_id) != seq:
                heappop(heap)  # superseded by a later re-key
                continue
            if victim_id == object_id:
                held = heappop(heap)
                continue
            victim_bytes = cached_kb[victim_id]
            if victim_bytes <= 0:
                # Defensive: tracked but no longer cached.  Consume the live
                # entry so a later compaction cannot resurrect it.
                heappop(heap)
                del entry_seq[victim_id]
                continue
            if victim_utility >= utility:
                # It outranks the requester: renew it in place and stop.
                self._renew_blocker(heap, victim_utility, victim_id)
                break
            heappop(heap)
            planned.append((victim_id, victim_utility, victim_bytes))
            reclaimed += victim_bytes

        fully_satisfied = reclaimed + _EPSILON_KB >= shortfall

        if not fully_satisfied and not self.allows_partial:
            # Integral policies refuse partial admission: undo the plan.
            for victim_id, victim_utility, _ in planned:
                self._restore(victim_id, victim_utility)
            if held is not None:
                heapq.heappush(heap, held)
            return

        # Commit evictions.  With full satisfaction a partial policy only
        # trims the marginal (last) victim by what is actually required.
        # Stream victims (streaming hook installed) lose whole tail
        # segments instead: the engine floors the reclaim to segment
        # boundaries and reports whether the victim emptied.
        still_needed = shortfall
        stream_trim = self.stream_trim
        for index, (victim_id, victim_utility, victim_bytes) in enumerate(planned):
            is_last = index == len(planned) - 1
            if stream_trim is not None:
                want = (
                    still_needed
                    if self.allows_partial and fully_satisfied and is_last
                    else victim_bytes
                )
                trimmed = stream_trim(victim_id, want, now)
                if trimmed is not None:
                    reclaimed_kb, emptied = trimmed
                    if emptied:
                        self._drop_utility(victim_id)
                        self.on_evict(victim_id, victim_utility)
                    else:
                        self._restore(victim_id, victim_utility)
                    still_needed -= reclaimed_kb
                    continue
            if self.allows_partial and fully_satisfied and is_last:
                trimmed = store.trim(victim_id, still_needed, now)
                if cached_kb[victim_id] <= _EPSILON_KB:
                    store.evict(victim_id, now)
                    self._drop_utility(victim_id)
                    self.on_evict(victim_id, victim_utility)
                else:
                    self._restore(victim_id, victim_utility)
                still_needed -= trimmed
            else:
                store.evict(victim_id, now)
                self._drop_utility(victim_id)
                self.on_evict(victim_id, victim_utility)
                still_needed -= victim_bytes
        if planned:
            free = store.free_kb

        grow_to = target if fully_satisfied else current + free
        if not self._grow_requester(obj, store, grow_to, utility, current, free, now):
            if held is not None:
                heapq.heappush(heap, held)

    def _grow_requester(
        self,
        obj: MediaObject,
        store: CacheStore,
        grow_to: float,
        utility: float,
        current: float,
        free: float,
        now: float,
    ) -> bool:
        """Grow the requester's cached prefix to ``grow_to`` KB.

        The admission tail shared by the planner and by the blocked path of
        :meth:`on_request`.  ``free`` is the store's free KB the caller read
        last.  Returns False, having changed nothing, when there is no
        growth worth making.
        """
        if grow_to <= current + _EPSILON_KB:
            return False
        if grow_to - current > free + _EPSILON_KB:
            raise PolicyError(
                f"policy {self.name}: planned growth of object {obj.object_id} "
                f"exceeds free space ({grow_to - current:.1f} KB > {free:.1f} KB)"
            )
        store.set_cached_bytes(obj.object_id, min(grow_to, obj.size), now)
        self._set_utility(obj.object_id, utility)
        return True

    # ------------------------------------------------------------------
    # Introspection helpers.
    # ------------------------------------------------------------------
    def cached_utility(self, object_id: int) -> Optional[float]:
        """Current utility key of a cached object (None if not tracked)."""
        return self._utilities.get(object_id)

    def heap_statistics(self) -> Dict[str, int]:
        """Size, staleness, and compaction counters of the priority heap.

        Used by the throughput benchmark (peak heap size) and by tests that
        assert the compaction invariants.
        """
        live = len(self._entry_seq)
        return {
            "size": len(self._heap),
            "live_entries": live,
            "stale_entries": len(self._heap) - live,
            "peak_size": self._heap_peak,
            "compactions": self._compactions,
            "tracked_objects": len(self._utilities),
        }

    def reset(self) -> None:
        """Forget all frequency and heap state (the store is left alone)."""
        self.frequencies.reset()
        self._utilities.clear()
        self._heap.clear()
        self._entry_seq.clear()
        self._heap_counter = itertools.count()
        self._heap_peak = 0
        self._compactions = 0
