"""Unit tests for the cache policies (IF, PB, IB, value-based, classic)."""

import heapq
import itertools
from typing import List, Optional, Tuple

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.core.policies import (
    GreedyDualSizePolicy,
    HybridPartialBandwidthPolicy,
    IntegralBandwidthPolicy,
    IntegralBandwidthValuePolicy,
    IntegralFrequencyPolicy,
    LFUPolicy,
    LRUPolicy,
    PartialBandwidthPolicy,
    PartialBandwidthValuePolicy,
    make_policy,
)
from repro.core.policies.base import _EPSILON_KB
from repro.core.policies.value_based import HybridPartialBandwidthValuePolicy
from repro.core.store import CacheStore
from repro.exceptions import ConfigurationError, PolicyError
from repro.workload.catalog import Catalog, MediaObject


def plan(policy, obj, now=0.0, bandwidth=24.0, frequency=1.0):
    """``policy.plan`` for one request: ``(target_kb, utility)``."""
    return policy.plan(obj, bandwidth, frequency, now)


@pytest.fixture
def obj():
    """A 100-second 48 KB/s object (4800 KB), value $5."""
    return MediaObject(object_id=1, duration=100.0, bitrate=48.0, value=5.0)


class TestUtilityAndTargets:
    def test_if_policy_caches_whole_object_regardless_of_bandwidth(self, obj):
        policy = IntegralFrequencyPolicy()
        assert plan(policy, obj, frequency=3.0)[1] == 3.0
        assert plan(policy, obj, bandwidth=500.0)[0] == obj.size

    def test_pb_policy_targets_required_prefix_only(self, obj):
        policy = PartialBandwidthPolicy()
        assert plan(policy, obj, bandwidth=24.0)[0] == pytest.approx(2400.0)
        assert plan(policy, obj, bandwidth=48.0)[0] == 0.0
        assert plan(policy, obj, bandwidth=100.0)[0] == 0.0

    def test_pb_utility_prefers_slower_paths(self, obj):
        policy = PartialBandwidthPolicy()
        slow = plan(policy, obj, bandwidth=10.0, frequency=1.0)[1]
        fast = plan(policy, obj, bandwidth=40.0, frequency=1.0)[1]
        assert slow > fast

    def test_ib_policy_targets_whole_object_when_bottlenecked(self, obj):
        policy = IntegralBandwidthPolicy()
        assert plan(policy, obj, bandwidth=24.0)[0] == obj.size
        assert plan(policy, obj, bandwidth=60.0)[0] == 0.0

    def test_hybrid_interpolates_between_pb_and_ib(self, obj):
        pb_target = plan(PartialBandwidthPolicy(), obj, bandwidth=24.0)[0]
        hybrid = HybridPartialBandwidthPolicy(estimator_e=0.5)
        hybrid_target = plan(hybrid, obj, bandwidth=24.0)[0]
        # e=0.5 treats the 24 KB/s path as 12 KB/s: prefix (48-12)*100 = 3600.
        assert hybrid_target == pytest.approx(3600.0)
        assert pb_target < hybrid_target < obj.size

    def test_hybrid_estimator_validation(self):
        with pytest.raises(ConfigurationError):
            HybridPartialBandwidthPolicy(estimator_e=0.0)
        with pytest.raises(ConfigurationError):
            HybridPartialBandwidthPolicy(estimator_e=1.5)

    def test_pbv_utility_is_profit_density(self, obj):
        policy = PartialBandwidthValuePolicy()
        utility = plan(policy, obj, bandwidth=24.0, frequency=2.0)[1]
        # F * V / required prefix = 2 * 5 / 2400
        assert utility == pytest.approx(10.0 / 2400.0)
        assert plan(policy, obj, bandwidth=24.0)[0] == pytest.approx(2400.0)

    def test_pbv_ignores_objects_with_enough_bandwidth(self, obj):
        policy = PartialBandwidthValuePolicy()
        assert plan(policy, obj, bandwidth=60.0)[1] == 0.0
        assert plan(policy, obj, bandwidth=60.0)[0] == 0.0

    def test_ibv_utility_prefers_low_bandwidth_high_value_small(self):
        policy = IntegralBandwidthValuePolicy()
        small_valuable = MediaObject(object_id=1, duration=50.0, bitrate=48.0, value=9.0)
        big_cheap = MediaObject(object_id=2, duration=500.0, bitrate=48.0, value=1.0)
        assert plan(policy, small_valuable, bandwidth=10.0)[1] > plan(
            policy, big_cheap, bandwidth=10.0
        )[1]
        assert plan(policy, small_valuable, bandwidth=10.0)[1] > plan(
            policy, small_valuable, bandwidth=40.0
        )[1]

    def test_lru_utility_is_access_time(self, obj):
        policy = LRUPolicy()
        assert plan(policy, obj, now=42.0)[1] == 42.0
        assert plan(policy, obj)[0] == obj.size

    def test_lfu_matches_if(self, obj):
        assert plan(LFUPolicy(), obj, frequency=7.0)[1] == plan(
            IntegralFrequencyPolicy(), obj, frequency=7.0
        )[1]


class TestReplacementEngine:
    def make_objects(self):
        # Three objects, 1000 KB each, on a 10 KB/s path (all bottlenecked).
        return [
            MediaObject(object_id=i, duration=100.0, bitrate=10.0 + 0.0, server_id=0)
            for i in range(3)
        ]

    def test_admission_when_space_available(self, obj):
        policy = PartialBandwidthPolicy()
        store = CacheStore(10_000.0)
        policy.install(store, Catalog([obj]))
        policy.on_request(obj, bandwidth=24.0, now=0.0, store=store)
        assert store.cached_bytes(obj.object_id) == pytest.approx(2400.0)

    def test_integral_policy_caches_whole_object(self, obj):
        policy = IntegralBandwidthPolicy()
        store = CacheStore(10_000.0)
        policy.install(store, Catalog([obj]))
        policy.on_request(obj, bandwidth=24.0, now=0.0, store=store)
        assert store.cached_bytes(obj.object_id) == pytest.approx(obj.size)

    def test_no_caching_when_bandwidth_sufficient(self, obj):
        for policy in (PartialBandwidthPolicy(), IntegralBandwidthPolicy()):
            store = CacheStore(10_000.0)
            policy.install(store, Catalog([obj]))
            policy.on_request(obj, bandwidth=96.0, now=0.0, store=store)
            assert store.cached_bytes(obj.object_id) == 0.0

    def test_higher_frequency_object_evicts_lower(self):
        objects = [
            MediaObject(object_id=i, duration=100.0, bitrate=48.0, server_id=0)
            for i in range(2)
        ]
        policy = IntegralFrequencyPolicy()
        store = CacheStore(objects[0].size)  # room for exactly one object
        policy.install(store, Catalog(objects))
        policy.on_request(objects[0], bandwidth=24.0, now=0.0, store=store)
        assert store.cached_bytes(0) > 0
        # Object 1 requested twice: now more frequent than object 0.
        policy.on_request(objects[1], bandwidth=24.0, now=1.0, store=store)
        policy.on_request(objects[1], bandwidth=24.0, now=2.0, store=store)
        assert store.cached_bytes(1) == pytest.approx(objects[1].size)
        assert store.cached_bytes(0) == 0.0

    def test_integral_policy_never_partially_admits(self):
        objects = [
            MediaObject(object_id=0, duration=100.0, bitrate=48.0),
            MediaObject(object_id=1, duration=150.0, bitrate=48.0),
        ]
        policy = IntegralFrequencyPolicy()
        store = CacheStore(objects[0].size + 100.0)
        policy.install(store, Catalog(objects))
        policy.on_request(objects[0], bandwidth=24.0, now=0.0, store=store)
        policy.on_request(objects[0], bandwidth=24.0, now=1.0, store=store)
        # Object 1 is less frequent; it must not displace object 0, and the
        # integral policy must not squeeze a fragment into the leftover 100 KB.
        policy.on_request(objects[1], bandwidth=24.0, now=2.0, store=store)
        assert store.cached_bytes(1) == 0.0
        assert store.cached_bytes(0) == pytest.approx(objects[0].size)

    def test_partial_policy_admits_fraction_into_leftover_space(self):
        objects = [
            MediaObject(object_id=0, duration=100.0, bitrate=48.0),
            MediaObject(object_id=1, duration=100.0, bitrate=48.0),
        ]
        policy = PartialBandwidthPolicy()
        # Capacity holds object 0's full 2400 KB prefix plus 500 KB extra.
        store = CacheStore(2900.0)
        policy.install(store, Catalog(objects))
        policy.on_request(objects[0], bandwidth=24.0, now=0.0, store=store)
        policy.on_request(objects[0], bandwidth=24.0, now=1.0, store=store)
        policy.on_request(objects[1], bandwidth=24.0, now=2.0, store=store)
        # Object 1 has lower utility, so it only gets the leftover 500 KB.
        assert store.cached_bytes(0) == pytest.approx(2400.0)
        assert store.cached_bytes(1) == pytest.approx(500.0)

    def test_partial_policy_trims_marginal_victim(self):
        objects = [
            MediaObject(object_id=0, duration=100.0, bitrate=48.0),
            MediaObject(object_id=1, duration=100.0, bitrate=48.0),
        ]
        policy = PartialBandwidthPolicy()
        store = CacheStore(2400.0 + 1200.0)
        policy.install(store, Catalog(objects))
        # Object 0 cached fully (2400), object 1 gets leftover 1200.
        policy.on_request(objects[0], bandwidth=24.0, now=0.0, store=store)
        policy.on_request(objects[1], bandwidth=24.0, now=1.0, store=store)
        assert store.cached_bytes(1) == pytest.approx(1200.0)
        # Now object 1 becomes the more frequent one and claims its full prefix,
        # trimming object 0 rather than evicting it entirely.
        policy.on_request(objects[1], bandwidth=24.0, now=2.0, store=store)
        policy.on_request(objects[1], bandwidth=24.0, now=3.0, store=store)
        assert store.cached_bytes(1) == pytest.approx(2400.0)
        assert store.cached_bytes(0) == pytest.approx(1200.0)
        assert store.verify_consistency()

    def test_on_request_records_frequency_and_utility(self, obj):
        policy = PartialBandwidthPolicy()
        store = CacheStore(10_000.0)
        policy.install(store, Catalog([obj]))
        assert policy.on_request(obj, bandwidth=24.0, now=3.0, store=store) is None
        assert policy.frequencies.frequency(obj.object_id) == 1.0
        assert policy.frequencies.total_requests == 1
        # The heap key is F / b at the request's bandwidth.
        assert policy.cached_utility(obj.object_id) == 1.0 / 24.0
        policy.on_request(obj, bandwidth=12.0, now=4.0, store=store)
        assert policy.frequencies.frequency(obj.object_id) == 2.0
        assert policy.cached_utility(obj.object_id) == 2.0 / 12.0

    def test_blocker_requeues_behind_equal_utilities(self):
        """A blocked candidate is re-keyed behind entries of equal utility.

        A and B are cached with the same utility, A first.  C's first
        request ties with A, so A blocks; A's entry then moves behind B's,
        exactly as if it had been popped and pushed back.  C's second
        request outranks both and evicts B, not A.
        """
        objects = [
            MediaObject(object_id=i, duration=100.0, bitrate=48.0, server_id=0)
            for i in range(3)
        ]
        policy = PartialBandwidthPolicy()
        store = CacheStore(2 * 2400.0)
        policy.install(store, Catalog(objects))
        for now, obj in enumerate(objects):
            policy.on_request(obj, bandwidth=24.0, now=float(now), store=store)
        assert store.snapshot() == {0: 2400.0, 1: 2400.0}
        policy.on_request(objects[2], bandwidth=24.0, now=3.0, store=store)
        assert store.snapshot() == {0: 2400.0, 2: 2400.0}
        assert store.verify_consistency()

    def test_integral_give_up_requeues_blocker_behind_its_peer(self):
        """An integral plan that gives up renews its blocker's sequence.

        IB keys on ``F / b``.  V and V2 tie at 0.25, B and B2 at 1.0, each
        pair admitted in that order.  R (0.5) needs three objects' room:
        its plan collects V and V2, meets B and gives up.  X (1/3) then
        evicts V, the older of the renewed victims.  W (2.0) needs three
        objects' room: it evicts V2 and X, then B2 and not B, because B's
        renewal moved it behind its equal.
        """
        sizes = {0: 100.0, 1: 100.0, 2: 100.0, 3: 100.0, 4: 300.0, 5: 100.0, 6: 300.0}
        objects = {
            object_id: MediaObject(object_id=object_id, duration=duration, bitrate=10.0)
            for object_id, duration in sizes.items()
        }
        policy = IntegralBandwidthPolicy()
        store = CacheStore(4_000.0)
        policy.install(store, Catalog(objects.values()))
        requests = [(0, 4.0), (1, 4.0), (2, 1.0), (3, 1.0), (4, 2.0)]
        for now, (object_id, bandwidth) in enumerate(requests):
            policy.on_request(objects[object_id], bandwidth, float(now), store)
        assert store.snapshot() == {0: 1000.0, 1: 1000.0, 2: 1000.0, 3: 1000.0}
        policy.on_request(objects[5], bandwidth=3.0, now=5.0, store=store)
        assert store.snapshot() == {1: 1000.0, 2: 1000.0, 3: 1000.0, 5: 1000.0}
        policy.on_request(objects[6], bandwidth=0.5, now=6.0, store=store)
        assert store.snapshot() == {2: 1000.0, 6: 3000.0}
        assert store.verify_consistency()

    def test_reset_clears_frequencies(self, obj):
        policy = PartialBandwidthPolicy()
        store = CacheStore(10_000.0)
        policy.install(store, Catalog([obj]))
        policy.on_request(obj, bandwidth=24.0, now=0.0, store=store)
        policy.reset()
        assert policy.frequencies.total_requests == 0
        assert policy.cached_utility(obj.object_id) is None

    def test_store_never_overflows_under_any_policy(self):
        objects = [
            MediaObject(object_id=i, duration=50.0 + 10 * i, bitrate=48.0, value=1 + i)
            for i in range(8)
        ]
        for factory in (
            IntegralFrequencyPolicy,
            PartialBandwidthPolicy,
            IntegralBandwidthPolicy,
            PartialBandwidthValuePolicy,
            IntegralBandwidthValuePolicy,
            LRUPolicy,
        ):
            policy = factory()
            store = CacheStore(4_000.0)
            policy.install(store, Catalog(objects))
            for step in range(100):
                obj = objects[step % len(objects)]
                policy.on_request(obj, bandwidth=20.0, now=float(step), store=store)
                assert store.used_kb <= store.capacity_kb + 1e-6
                assert store.verify_consistency()


# ----------------------------------------------------------------------
# Engine-state oracle: the engine against the engine it replaced.
# ----------------------------------------------------------------------
class ReferenceEngine:
    """The request path before blocked admissions were settled by a peek.

    ``on_request`` and ``_evict_and_admit`` as they were: every blocker is
    renewed with ``heapq.heapreplace``, and every admission beyond free
    space goes through the planner.  Mixed in front of a policy class, it
    replaces only those two methods.
    """

    def on_request(self, obj, bandwidth, now, store):
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

        self._evict_and_admit(obj, store, target, utility, current, free, now)

    def _evict_and_admit(self, obj, store, target, utility, current, free, now):
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
                seq = next(self._heap_counter)
                entry_seq[victim_id] = seq
                heapq.heapreplace(heap, (victim_utility, seq, victim_id))
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
        if grow_to <= current + _EPSILON_KB:
            if held is not None:
                heapq.heappush(heap, held)
            return
        if grow_to - current > free + _EPSILON_KB:
            raise PolicyError(
                f"policy {self.name}: planned growth of object {object_id} exceeds "
                f"free space ({grow_to - current:.1f} KB > {free:.1f} KB)"
            )
        store.set_cached_bytes(object_id, min(grow_to, obj.size), now)
        self._set_utility(object_id, utility)


class ReferenceStore(CacheStore):
    """A store whose free space is computed on every read, as it once was."""

    @property
    def free_kb(self):
        free = self.capacity_kb - self._used
        return free if free > 0.0 else 0.0

    @free_kb.setter
    def free_kb(self, value):
        """Ignore the write: the getter derives the value from the total."""


#: The policies the oracle drives: (class, constructor arguments).
ORACLE_POLICIES = {
    "PB": (PartialBandwidthPolicy, {}),
    "PB(e=0.5)": (HybridPartialBandwidthPolicy, {"estimator_e": 0.5}),
    "IB": (IntegralBandwidthPolicy, {}),
    "IF": (IntegralFrequencyPolicy, {}),
    "LRU": (LRUPolicy, {}),
    "GDS(delay)": (GreedyDualSizePolicy, {"cost_model": "delay"}),
}

#: Small value sets, so that ``F / b``, ``F`` and GDS credits tie often.
_DURATIONS = (10.0, 20.0, 30.0)
_BITRATES = (10.0, 20.0, 40.0)
_BANDWIDTHS = (5.0, 10.0, 20.0, 40.0)


@st.composite
def engine_scenarios(draw):
    """3-12 objects on 1-3 servers, a cache of 1-3 objects, one stream.

    Each event is ``(object index, bandwidth, time step, shift)``: a
    request at a non-decreasing time (a step of 0 makes LRU keys tie),
    or, when ``shift`` is 0, a bandwidth shift of the object's server.
    """
    num_objects = draw(st.integers(min_value=3, max_value=12))
    num_servers = draw(st.integers(min_value=1, max_value=3))
    objects = [
        MediaObject(
            object_id=object_id,
            duration=draw(st.sampled_from(_DURATIONS)),
            bitrate=draw(st.sampled_from(_BITRATES)),
            server_id=draw(st.integers(min_value=0, max_value=num_servers - 1)),
        )
        for object_id in range(num_objects)
    ]
    capacity = draw(st.integers(min_value=1, max_value=3)) * draw(
        st.sampled_from([obj.size for obj in objects])
    )
    events = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=num_objects - 1),
                st.sampled_from(_BANDWIDTHS),
                st.integers(min_value=0, max_value=2),
                st.integers(min_value=0, max_value=9),
            ),
            min_size=20,
            max_size=200,
        )
    )
    return objects, capacity, events


def _engine_state(policy, store):
    """Everything a later request can read, with the heap's layout."""
    return {
        "heap": list(policy._heap),
        "entry_seq": dict(policy._entry_seq),
        "utilities": dict(policy._utilities),
        "counts": list(policy.frequencies.counts),
        "cached_kb": list(store.cached_kb),
        "used_kb": store.used_kb,
        "free_kb": store.free_kb,
        "heap_statistics": policy.heap_statistics(),
        "inflation": getattr(policy, "inflation", None),
    }


def _apply(action):
    """Run one engine call; a ``PolicyError`` is an outcome to compare."""
    try:
        action()
    except PolicyError as error:
        return str(error)
    return None


#: A blocked admission with free space left: object 1 ranks below object
#: 0, which fills most of the cache, so a partial policy grows object 1
#: into what is left.  Drawn streams reach this state only now and then.
_BLOCKED_WITH_FREE_SPACE = (
    [MediaObject(object_id=i, duration=10.0, bitrate=40.0) for i in range(3)],
    400.0,
    [(0, 10.0, 1, 1), (1, 20.0, 1, 1), (1, 20.0, 1, 1), (2, 5.0, 1, 1)],
)


@pytest.mark.parametrize("policy_name", sorted(ORACLE_POLICIES))
@settings(max_examples=20, deadline=None)
@given(scenario=engine_scenarios())
@example(scenario=_BLOCKED_WITH_FREE_SPACE)
def test_engine_state_matches_reference_engine(policy_name, scenario):
    """After every event the engine's state equals the reference engine's.

    The heap is compared as a list, so the in-place renewal must leave
    the layout ``heapreplace`` leaves, not only the same entries.
    """
    objects, capacity, events = scenario
    policy_class, kwargs = ORACLE_POLICIES[policy_name]
    reference_class = type(
        f"Reference{policy_class.__name__}", (ReferenceEngine, policy_class), {}
    )
    catalog = Catalog(objects)
    policy, store = policy_class(**kwargs), CacheStore(capacity)
    reference, reference_store = reference_class(**kwargs), ReferenceStore(capacity)
    policy.install(store, catalog)
    reference.install(reference_store, catalog)
    now = 0.0
    for object_index, bandwidth, step, shift in events:
        obj = objects[object_index]
        now += step
        if shift == 0:
            outcomes = [
                engine.on_bandwidth_shift(obj.server_id, bandwidth, now)
                for engine in (policy, reference)
            ]
        else:
            outcomes = [
                _apply(lambda: engine.on_request(obj, bandwidth, now, cache))
                for engine, cache in ((policy, store), (reference, reference_store))
            ]
        assert outcomes[0] == outcomes[1]
        assert _engine_state(policy, store) == _engine_state(reference, reference_store)


@settings(max_examples=200, deadline=None)
@given(
    utilities=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=40),
    pushes=st.lists(st.integers(min_value=0, max_value=4), max_size=10),
)
def test_blocker_renewal_leaves_the_heapreplace_layout(utilities, pushes):
    """Renewing the top entry leaves the list ``heapreplace`` would leave.

    Entries are ``(utility, seq, object_id)`` with distinct sequence
    numbers, and the renewal's is the largest, as in the engine.  Small
    integer utilities make the top tie with a child often, the case in
    which the entry must move.
    """
    heap = [(float(u), seq, seq) for seq, u in enumerate(utilities)]
    heapq.heapify(heap)
    for seq, u in enumerate(pushes, start=len(utilities)):
        heapq.heappush(heap, (float(u), seq, seq))
    fresh_seq = len(utilities) + len(pushes)
    top_utility, _, top_id = heap[0]
    expected = list(heap)
    heapq.heapreplace(expected, (top_utility, fresh_seq, top_id))

    policy = PartialBandwidthPolicy()
    policy._heap = heap
    policy._heap_counter = itertools.count(fresh_seq)
    policy._renew_blocker(heap, top_utility, top_id)
    assert heap == expected
    assert policy._entry_seq[top_id] == fresh_seq


class TestRegistry:
    def test_known_policies(self):
        for name in ("IF", "PB", "IB", "PB-V", "IB-V", "LRU", "LFU"):
            policy = make_policy(name)
            assert policy.name.upper().startswith(name.split("-")[0])

    def test_case_insensitive(self):
        assert make_policy("pb").name == "PB"

    def test_estimator_e_builds_hybrids(self):
        policy = make_policy("PB", estimator_e=0.5)
        assert isinstance(policy, HybridPartialBandwidthPolicy)
        value_policy = make_policy("PB-V", estimator_e=0.5)
        assert isinstance(value_policy, HybridPartialBandwidthValuePolicy)

    def test_estimator_e_rejected_for_integral_policies(self):
        with pytest.raises(ConfigurationError):
            make_policy("IB", estimator_e=0.5)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            make_policy("NOPE")
