"""Tests for the cache store's byte accounting."""

import os

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.store import CacheStore
from repro.exceptions import CapacityError, ConfigurationError
from repro.obs.tracing import ObservedCacheStore, TraceSink
from repro.workload.catalog import Catalog, MediaObject

NAN = float("nan")


class TestCacheStoreBasics:
    def test_empty_store(self):
        store = CacheStore(1_000.0)
        assert len(store) == 0
        assert store.used_kb == 0.0
        assert store.free_kb == 1_000.0
        assert store.occupancy == 0.0
        assert store.cached_bytes(5) == 0.0

    def test_zero_capacity_store_is_legal(self):
        store = CacheStore(0.0)
        assert store.occupancy == 0.0
        with pytest.raises(CapacityError):
            store.set_cached_bytes(1, 10.0)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheStore(-1.0)


class TestSetGrowTrim:
    def test_set_and_get(self):
        store = CacheStore(1_000.0)
        store.set_cached_bytes(1, 300.0)
        assert store.cached_bytes(1) == 300.0
        assert store.used_kb == 300.0
        assert 1 in store

    def test_grow(self):
        store = CacheStore(1_000.0)
        store.set_cached_bytes(1, 300.0)
        store.grow(1, 200.0)
        assert store.cached_bytes(1) == 500.0

    def test_grow_beyond_capacity_raises(self):
        store = CacheStore(400.0)
        store.set_cached_bytes(1, 300.0)
        with pytest.raises(CapacityError):
            store.grow(1, 200.0)

    def test_shrink_via_set(self):
        store = CacheStore(1_000.0)
        store.set_cached_bytes(1, 500.0)
        store.set_cached_bytes(1, 100.0)
        assert store.used_kb == 100.0

    def test_set_to_zero_removes_entry(self):
        store = CacheStore(1_000.0)
        store.set_cached_bytes(1, 500.0)
        store.set_cached_bytes(1, 0.0)
        assert 1 not in store
        assert store.used_kb == 0.0

    def test_trim_partial_and_full(self):
        store = CacheStore(1_000.0)
        store.set_cached_bytes(1, 500.0)
        assert store.trim(1, 200.0) == 200.0
        assert store.cached_bytes(1) == 300.0
        assert store.trim(1, 1_000.0) == 300.0
        assert 1 not in store

    def test_trim_absent_object_is_noop(self):
        store = CacheStore(1_000.0)
        assert store.trim(9, 100.0) == 0.0

    def test_evict(self):
        store = CacheStore(1_000.0)
        store.set_cached_bytes(1, 250.0)
        assert store.evict(1) == 250.0
        assert store.free_kb == 1_000.0

    def test_validation(self):
        store = CacheStore(1_000.0)
        with pytest.raises(ConfigurationError):
            store.set_cached_bytes(1, -5.0)
        with pytest.raises(ConfigurationError):
            store.grow(1, -5.0)
        with pytest.raises(ConfigurationError):
            store.trim(1, -5.0)


class TestBookkeeping:
    def test_snapshot_is_a_copy(self):
        store = CacheStore(1_000.0)
        store.set_cached_bytes(1, 100.0)
        snapshot = store.snapshot()
        snapshot[1] = 999.0
        assert store.cached_bytes(1) == 100.0

    def test_clear(self):
        store = CacheStore(1_000.0)
        store.set_cached_bytes(1, 100.0)
        store.set_cached_bytes(2, 200.0)
        store.clear()
        assert len(store) == 0
        assert store.used_kb == 0.0

    def test_verify_consistency(self):
        store = CacheStore(1_000.0)
        store.set_cached_bytes(1, 100.0)
        store.set_cached_bytes(2, 200.0)
        store.trim(1, 50.0)
        assert store.verify_consistency()

    def test_occupancy(self):
        store = CacheStore(1_000.0)
        store.set_cached_bytes(1, 250.0)
        assert store.occupancy == pytest.approx(0.25)


class TestTable:
    @staticmethod
    def catalog(*object_ids):
        return Catalog(
            [MediaObject(object_id=i, duration=10.0, bitrate=10.0) for i in object_ids]
        )

    def test_reserve_gives_dense_ids_a_list_and_keeps_content(self):
        store = CacheStore(1_000.0)
        store.set_cached_bytes(2, 40.0)
        store.reserve(self.catalog(0, 1, 2, 3))
        assert store.cached_kb == [0.0, 0.0, 40.0, 0.0]
        assert len(store) == 1 and 2 in store and 3 not in store
        assert store.object_ids() == [2]
        assert store.verify_consistency()

    def test_reserve_gives_sparse_ids_a_dict(self):
        store = CacheStore(1_000.0)
        store.reserve(self.catalog(5, 30_000_000))
        assert store.cached_kb == {5: 0.0, 30_000_000: 0.0}
        store.set_cached_bytes(30_000_000, 10.0)
        assert store.snapshot() == {30_000_000: 10.0}

    def test_cold_methods_accept_ids_outside_the_catalog(self):
        store = CacheStore(1_000.0)
        store.reserve(self.catalog(0, 1))
        assert store.cached_bytes(-1) == 0.0 and store.cached_bytes(7) == 0.0
        store.set_cached_bytes(7, 30.0)
        assert store.cached_kb[7] == 30.0
        assert store.trim(-1, 5.0) == 0.0
        assert store.verify_consistency()

    def test_clear_keeps_the_table(self):
        store = CacheStore(1_000.0)
        store.reserve(self.catalog(0, 1))
        table = store.cached_kb
        store.set_cached_bytes(1, 30.0)
        store.clear()
        assert store.cached_kb is table and table == [0.0, 0.0]
        assert len(store) == 0 and store.verify_consistency()


class TestNonFiniteKB:
    """NaN is rejected as the capacity and as every KB argument, and an
    infinite amount as a cached size."""

    def test_nan_capacity_rejected(self):
        with pytest.raises(ConfigurationError, match="capacity_kb"):
            CacheStore(NAN)

    def test_infinite_capacity_is_legal(self):
        store = CacheStore(float("inf"))
        store.set_cached_bytes(1, 1e12)
        assert store.free_kb == float("inf") and store.verify_consistency()

    def test_nan_target_rejected_and_store_untouched(self):
        store = CacheStore(1_000.0)
        with pytest.raises(ConfigurationError, match="target_bytes"):
            store.set_cached_bytes(2, NAN)
        assert store.used_kb == 0.0 and store.free_kb == 1_000.0
        assert len(store) == 0 and store.verify_consistency()

    def test_nan_growth_rejected(self):
        store = CacheStore(1_000.0)
        store.set_cached_bytes(1, 300.0)
        with pytest.raises(ConfigurationError, match="additional_bytes"):
            store.grow(1, NAN)
        assert store.cached_bytes(1) == 300.0 and store.verify_consistency()

    def test_infinite_target_rejected(self):
        store = CacheStore(float("inf"))
        with pytest.raises(ConfigurationError, match="target_bytes"):
            store.set_cached_bytes(0, float("inf"))
        with pytest.raises(ConfigurationError, match="additional_bytes"):
            store.grow(0, float("inf"))
        assert store.used_kb == 0.0 and store.verify_consistency()

    def test_nan_trim_rejected_and_prefix_kept(self):
        store = CacheStore(1_000.0)
        store.set_cached_bytes(1, 300.0)
        with pytest.raises(ConfigurationError, match="bytes_to_remove"):
            store.trim(1, NAN)
        assert store.cached_bytes(1) == 300.0 and store.evictions == 0


#: One store operation: (name, object id, KB).  ``reserve`` sizes the table
#: to a catalog of ids 0-5; ``clear`` and ``evict`` ignore the KB.
store_operations = st.lists(
    st.tuples(
        st.sampled_from(["set", "grow", "trim", "evict", "clear", "reserve"]),
        st.integers(min_value=0, max_value=5),
        st.sampled_from([0.0, 50.0, 100.0, 250.0, 400.0, 1_000.0, float("inf")]),
    ),
    max_size=40,
)


@pytest.mark.parametrize("observed", [False, True], ids=["CacheStore", "ObservedCacheStore"])
@settings(max_examples=60, deadline=None)
@given(
    capacity=st.sampled_from([0.0, 300.0, 1_000.0, float("inf")]),
    operations=store_operations,
)
def test_free_kb_field_tracks_used_kb(observed, capacity, operations):
    """``free_kb`` equals ``max(capacity_kb - used_kb, 0)`` after every write."""
    catalog = Catalog(
        [MediaObject(object_id=i, duration=10.0, bitrate=10.0) for i in range(6)]
    )
    sink = TraceSink(os.devnull, level="debug") if observed else None
    store = ObservedCacheStore(capacity, sink) if observed else CacheStore(capacity)
    try:
        assert store.free_kb == max(store.capacity_kb - store.used_kb, 0.0)
        for name, object_id, kb in operations:
            try:
                if name == "set":
                    store.set_cached_bytes(object_id, kb)
                elif name == "grow":
                    store.grow(object_id, kb)
                elif name == "trim":
                    store.trim(object_id, kb)
                elif name == "evict":
                    store.evict(object_id)
                elif name == "clear":
                    store.clear()
                else:
                    store.reserve(catalog)
            except (CapacityError, ConfigurationError):
                pass  # an infinite size, or no room: the store is untouched
            assert store.free_kb == max(store.capacity_kb - store.used_kb, 0.0)
            assert store.verify_consistency()
    finally:
        if sink is not None:
            sink.close()
