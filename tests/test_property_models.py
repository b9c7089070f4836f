"""Property-based tests for workload, network, streaming, and knapsack models."""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.policies.optimal import optimal_allocation, optimal_average_delay
from repro.network.distributions import HistogramBandwidthDistribution
from repro.streaming.media import VBRStream
from repro.streaming.session import DeliverySession
from repro.streaming.smoothing import optimal_smoothing, verify_feasible
from repro.trace.columnar import ColumnarTrace
from repro.workload.catalog import Catalog, MediaObject
from repro.workload.popularity import ZipfPopularity
from repro.workload.trace import Request


# ----------------------------------------------------------------------
# Zipf popularity
# ----------------------------------------------------------------------
@given(
    alpha=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    num_objects=st.integers(min_value=1, max_value=2_000),
)
@settings(max_examples=100, deadline=None)
def test_zipf_probabilities_valid_distribution(alpha, num_objects):
    probs = ZipfPopularity(alpha).probabilities(num_objects)
    assert probs.shape == (num_objects,)
    assert np.all(probs >= 0)
    assert probs.sum() == pytest.approx(1.0)
    assert np.all(np.diff(probs) <= 1e-15)


# ----------------------------------------------------------------------
# Histogram bandwidth distributions
# ----------------------------------------------------------------------
@given(
    masses=st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=15),
    probability=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=100, deadline=None)
def test_histogram_cdf_quantile_consistency(masses, probability):
    edges = np.arange(len(masses) + 1) * 10.0
    dist = HistogramBandwidthDistribution(edges, masses)
    value = dist.quantile(probability)
    assert edges[0] <= value <= edges[-1]
    assert dist.cdf(value) == pytest.approx(probability, abs=1e-6)


# ----------------------------------------------------------------------
# Delivery sessions: the delay formula and byte accounting
# ----------------------------------------------------------------------
@given(
    duration=st.floats(min_value=1.0, max_value=10_000.0),
    bitrate=st.floats(min_value=1.0, max_value=300.0),
    bandwidth=st.floats(min_value=0.1, max_value=600.0),
    cached_fraction=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_delivery_session_invariants(duration, bitrate, bandwidth, cached_fraction):
    obj = MediaObject(object_id=0, duration=duration, bitrate=bitrate)
    cached = cached_fraction * obj.size
    outcome = DeliverySession(obj, cached, bandwidth).outcome()
    # Byte conservation.
    assert outcome.total_bytes == pytest.approx(obj.size)
    assert 0.0 <= outcome.bytes_from_cache <= obj.size + 1e-9
    # Delay matches the paper's closed form.
    expected = max(obj.size - duration * bandwidth - cached, 0.0) / bandwidth
    assert outcome.service_delay == pytest.approx(expected, rel=1e-9, abs=1e-9)
    # Quality bounded and monotone with caching.
    assert 0.0 <= outcome.stream_quality <= 1.0
    no_cache = DeliverySession(obj, 0.0, bandwidth).outcome()
    assert outcome.service_delay <= no_cache.service_delay + 1e-9
    assert outcome.stream_quality >= no_cache.stream_quality - 1e-9


# ----------------------------------------------------------------------
# Optimal smoothing feasibility
# ----------------------------------------------------------------------
@given(
    frames=st.lists(st.floats(min_value=0.0, max_value=20.0), min_size=2, max_size=120),
    buffer_kb=st.floats(min_value=0.0, max_value=500.0),
)
@settings(max_examples=100, deadline=None)
def test_smoothing_schedules_always_feasible(frames, buffer_kb):
    stream = VBRStream(frames, frame_rate=24.0)
    schedule = optimal_smoothing(stream, buffer_kb=buffer_kb)
    assert verify_feasible(stream, schedule, buffer_kb)
    assert schedule.cumulative_transmission()[-1] == pytest.approx(stream.size, abs=1e-6)


# ----------------------------------------------------------------------
# Fractional knapsack optimality and feasibility
# ----------------------------------------------------------------------
knapsack_instances = st.lists(
    st.tuples(
        st.floats(min_value=10.0, max_value=2_000.0),  # duration
        st.floats(min_value=1.0, max_value=120.0),     # bandwidth
        st.floats(min_value=0.1, max_value=50.0),      # request rate
    ),
    min_size=1,
    max_size=12,
)


@given(instance=knapsack_instances, capacity=st.floats(min_value=0.0, max_value=50_000.0))
@settings(max_examples=100, deadline=None)
def test_optimal_allocation_feasible_and_bounded(instance, capacity):
    catalog = Catalog(
        [
            MediaObject(object_id=i, duration=duration, bitrate=48.0, server_id=i)
            for i, (duration, _, _) in enumerate(instance)
        ]
    )
    bandwidths = {i: bandwidth for i, (_, bandwidth, _) in enumerate(instance)}
    rates = {i: rate for i, (_, _, rate) in enumerate(instance)}
    allocation = optimal_allocation(catalog, bandwidths, rates, capacity)
    assert sum(allocation.values()) <= capacity + 1e-6
    for object_id, cached in allocation.items():
        obj = catalog.get(object_id)
        assert cached <= obj.minimum_prefix_for_bandwidth(bandwidths[object_id]) + 1e-6
    # More capacity can never hurt the objective.
    richer = optimal_allocation(catalog, bandwidths, rates, capacity * 2 + 1.0)
    assert optimal_average_delay(catalog, bandwidths, rates, richer) <= (
        optimal_average_delay(catalog, bandwidths, rates, allocation) + 1e-9
    )


@given(instance=knapsack_instances, capacity=st.floats(min_value=100.0, max_value=50_000.0))
@settings(max_examples=60, deadline=None)
def test_optimal_allocation_beats_proportional_split(instance, capacity):
    catalog = Catalog(
        [
            MediaObject(object_id=i, duration=duration, bitrate=48.0, server_id=i)
            for i, (duration, _, _) in enumerate(instance)
        ]
    )
    bandwidths = {i: bandwidth for i, (_, bandwidth, _) in enumerate(instance)}
    rates = {i: rate for i, (_, _, rate) in enumerate(instance)}
    best = optimal_allocation(catalog, bandwidths, rates, capacity)
    # Naive alternative: split capacity equally across all bottlenecked objects.
    needy = [
        obj.object_id
        for obj in catalog
        if obj.bitrate > bandwidths[obj.object_id]
    ]
    naive = {}
    if needy:
        share = capacity / len(needy)
        for object_id in needy:
            obj = catalog.get(object_id)
            naive[object_id] = min(
                share, obj.minimum_prefix_for_bandwidth(bandwidths[object_id])
            )
    assert optimal_average_delay(catalog, bandwidths, rates, best) <= (
        optimal_average_delay(catalog, bandwidths, rates, naive) + 1e-9
    )


# ----------------------------------------------------------------------
# Request traces round-trip
# ----------------------------------------------------------------------
@given(
    times=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=0, max_size=50),
    seed=st.integers(min_value=0, max_value=1_000),
)
@settings(max_examples=60, deadline=None)
def test_trace_csv_roundtrip_preserves_requests(tmp_path_factory, times, seed):
    rng = np.random.default_rng(seed)
    sorted_times = sorted(times)
    requests = [
        Request(time=t, object_id=int(rng.integers(0, 100)), client_id=int(rng.integers(0, 5)))
        for t in sorted_times
    ]
    trace = ColumnarTrace(
        [r.time for r in requests],
        [r.object_id for r in requests],
        [r.client_id for r in requests],
    )
    path = tmp_path_factory.mktemp("traces") / "trace.csv"
    trace.to_csv(path)
    assert list(ColumnarTrace.from_csv(path)) == requests
