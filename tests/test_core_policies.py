"""Unit tests for the cache policies (IF, PB, IB, value-based, classic)."""

import pytest

from repro.core.policies import (
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
from repro.core.policies.value_based import HybridPartialBandwidthValuePolicy
from repro.core.store import CacheStore
from repro.exceptions import ConfigurationError
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
