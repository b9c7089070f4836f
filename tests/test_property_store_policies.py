"""Property-based tests (hypothesis) for the cache store and the policies.

These check the structural invariants the paper's formalisation relies on:
the capacity constraint is never violated, byte accounting stays consistent,
and the policies' cache-size targets never exceed what is useful.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.policies import (
    IntegralBandwidthPolicy,
    IntegralFrequencyPolicy,
    PartialBandwidthPolicy,
    PartialBandwidthValuePolicy,
)
from repro.core.store import CacheStore
from repro.exceptions import CapacityError
from repro.workload.catalog import Catalog, MediaObject

# ----------------------------------------------------------------------
# CacheStore invariants
# ----------------------------------------------------------------------
store_ops = st.lists(
    st.tuples(
        st.sampled_from(["set", "grow", "trim", "evict"]),
        st.integers(min_value=0, max_value=9),
        st.floats(min_value=0.0, max_value=400.0, allow_nan=False),
    ),
    min_size=1,
    max_size=60,
)


@given(operations=store_ops)
@settings(max_examples=100, deadline=None)
def test_store_accounting_consistent_under_random_operations(operations):
    store = CacheStore(1_000.0)
    for op, object_id, amount in operations:
        try:
            if op == "set":
                store.set_cached_bytes(object_id, amount)
            elif op == "grow":
                store.grow(object_id, amount)
            elif op == "trim":
                store.trim(object_id, amount)
            else:
                store.evict(object_id)
        except CapacityError:
            pass  # a rejected operation must leave the store untouched
        assert store.verify_consistency()
        assert store.used_kb <= store.capacity_kb + 1e-6
        assert store.free_kb >= -1e-6


@given(
    capacity=st.floats(min_value=0.0, max_value=10_000.0, allow_nan=False),
    amount=st.floats(min_value=0.0, max_value=20_000.0, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_store_single_set_respects_capacity(capacity, amount):
    store = CacheStore(capacity)
    tolerance = 1e-6 * max(capacity, 1.0)
    if amount <= capacity:
        store.set_cached_bytes(1, amount)
        assert store.cached_bytes(1) == pytest.approx(amount)
    elif amount > capacity + tolerance:
        with pytest.raises(CapacityError):
            store.set_cached_bytes(1, amount)
    # Amounts within the store's float tolerance of the capacity may be
    # accepted or rejected; either way the accounting must stay consistent.
    assert store.verify_consistency()


# ----------------------------------------------------------------------
# Policy target / utility invariants
# ----------------------------------------------------------------------
objects = st.builds(
    MediaObject,
    object_id=st.integers(min_value=0, max_value=1_000),
    duration=st.floats(min_value=1.0, max_value=10_000.0, allow_nan=False),
    bitrate=st.floats(min_value=1.0, max_value=500.0, allow_nan=False),
    server_id=st.integers(min_value=0, max_value=50),
    value=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)
#: Keyword arguments of one ``CachePolicy.plan`` call besides the object.
plan_inputs = st.fixed_dictionaries(
    {
        "now": st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        "bandwidth": st.floats(min_value=0.5, max_value=1_000.0, allow_nan=False),
        "frequency": st.floats(min_value=1.0, max_value=1e4, allow_nan=False),
    }
)

ALL_POLICIES = [
    IntegralFrequencyPolicy,
    PartialBandwidthPolicy,
    IntegralBandwidthPolicy,
    PartialBandwidthValuePolicy,
]


@given(obj=objects, inputs=plan_inputs)
@settings(max_examples=200, deadline=None)
def test_targets_are_bounded_and_utilities_nonnegative(obj, inputs):
    for factory in ALL_POLICIES:
        target, utility = factory().plan(obj, **inputs)
        assert target >= 0.0
        # No policy ever wants more than the whole object.
        assert min(target, obj.size) <= obj.size + 1e-9
        assert utility >= 0.0


@given(obj=objects, inputs=plan_inputs)
@settings(max_examples=200, deadline=None)
def test_bandwidth_aware_policies_skip_well_connected_objects(obj, inputs):
    if obj.bitrate <= inputs["bandwidth"]:
        for factory in (PartialBandwidthPolicy, IntegralBandwidthPolicy, PartialBandwidthValuePolicy):
            assert factory().plan(obj, **inputs)[0] == 0.0


@given(obj=objects, inputs=plan_inputs)
@settings(max_examples=200, deadline=None)
def test_pb_target_is_exactly_the_delay_hiding_prefix(obj, inputs):
    bandwidth = inputs["bandwidth"]
    target = PartialBandwidthPolicy().plan(obj, **inputs)[0]
    assert target == pytest.approx(obj.minimum_prefix_for_bandwidth(bandwidth))
    # Caching the target leaves zero startup delay at the believed bandwidth.
    assert obj.startup_delay(bandwidth, min(target, obj.size)) == pytest.approx(0.0, abs=1e-6)


request_streams = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7),            # object index
        st.floats(min_value=2.0, max_value=120.0, allow_nan=False),  # bandwidth
    ),
    min_size=1,
    max_size=120,
)


@given(stream=request_streams)
@settings(max_examples=60, deadline=None)
def test_policies_never_violate_capacity_over_request_streams(stream):
    catalog = [
        MediaObject(object_id=i, duration=20.0 + 15.0 * i, bitrate=48.0, value=1.0 + i)
        for i in range(8)
    ]
    for factory in ALL_POLICIES:
        policy = factory()
        store = CacheStore(2_500.0)
        policy.install(store, Catalog(catalog))
        for step, (index, bandwidth) in enumerate(stream):
            policy.on_request(catalog[index], bandwidth, float(step), store)
            assert store.verify_consistency()
            assert store.used_kb <= store.capacity_kb + 1e-6
            for object_id, cached_kb in store.snapshot().items():
                assert cached_kb <= catalog[object_id].size + 1e-6
