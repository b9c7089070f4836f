"""Tests for the offline optimal (fractional knapsack) allocation."""

import pytest

from repro.core.policies.optimal import (
    StaticAllocationPolicy,
    optimal_allocation,
    optimal_average_delay,
)
from repro.core.store import CacheStore
from repro.exceptions import ConfigurationError
from repro.workload.catalog import Catalog, MediaObject


@pytest.fixture
def knapsack_catalog():
    """Three bottlenecked objects plus one with abundant bandwidth."""
    return Catalog(
        [
            MediaObject(object_id=0, duration=100.0, bitrate=48.0, server_id=0),
            MediaObject(object_id=1, duration=100.0, bitrate=48.0, server_id=1),
            MediaObject(object_id=2, duration=100.0, bitrate=48.0, server_id=2),
            MediaObject(object_id=3, duration=100.0, bitrate=48.0, server_id=3),
        ]
    )


@pytest.fixture
def bandwidths():
    # Object 3's path already covers the bit-rate; the others do not.
    return {0: 8.0, 1: 24.0, 2: 24.0, 3: 96.0}


@pytest.fixture
def rates():
    return {0: 10.0, 1: 10.0, 2: 1.0, 3: 100.0}


class TestOptimalAllocation:
    def test_never_caches_objects_with_abundant_bandwidth(
        self, knapsack_catalog, bandwidths, rates
    ):
        allocation = optimal_allocation(knapsack_catalog, bandwidths, rates, 1e9)
        assert 3 not in allocation

    def test_caches_at_most_required_prefix(self, knapsack_catalog, bandwidths, rates):
        allocation = optimal_allocation(knapsack_catalog, bandwidths, rates, 1e9)
        assert allocation[0] == pytest.approx((48.0 - 8.0) * 100.0)
        assert allocation[1] == pytest.approx((48.0 - 24.0) * 100.0)
        assert allocation[2] == pytest.approx((48.0 - 24.0) * 100.0)

    def test_ranking_by_rate_over_bandwidth(self, knapsack_catalog, bandwidths, rates):
        # Capacity for one full prefix only: object 0 has lambda/b = 10/8, the
        # highest, so it must be served first.
        allocation = optimal_allocation(knapsack_catalog, bandwidths, rates, 4_000.0)
        assert allocation[0] == pytest.approx(4_000.0)
        assert 1 not in allocation and 2 not in allocation

    def test_marginal_object_gets_fraction(self, knapsack_catalog, bandwidths, rates):
        capacity = 4_000.0 + 1_000.0
        allocation = optimal_allocation(knapsack_catalog, bandwidths, rates, capacity)
        assert allocation[0] == pytest.approx(4_000.0)
        assert allocation[1] == pytest.approx(1_000.0)

    def test_respects_capacity(self, knapsack_catalog, bandwidths, rates):
        capacity = 3_456.0
        allocation = optimal_allocation(knapsack_catalog, bandwidths, rates, capacity)
        assert sum(allocation.values()) <= capacity + 1e-9

    def test_zero_capacity_allocates_nothing(self, knapsack_catalog, bandwidths, rates):
        assert optimal_allocation(knapsack_catalog, bandwidths, rates, 0.0) == {}

    def test_validation(self, knapsack_catalog, rates):
        with pytest.raises(ConfigurationError):
            optimal_allocation(knapsack_catalog, {0: 8.0}, rates, -1.0)
        with pytest.raises(ConfigurationError):
            optimal_allocation(
                knapsack_catalog, {0: 0.0, 1: 1.0, 2: 1.0, 3: 1.0}, rates, 100.0
            )

    def test_nan_capacity_rejected(self, knapsack_catalog, bandwidths, rates):
        with pytest.raises(ConfigurationError):
            optimal_allocation(knapsack_catalog, bandwidths, rates, float("nan"))

    def test_optimality_against_exhaustive_alternatives(
        self, knapsack_catalog, bandwidths, rates
    ):
        """The greedy fractional-knapsack solution beats perturbed allocations."""
        capacity = 5_000.0
        best = optimal_allocation(knapsack_catalog, bandwidths, rates, capacity)
        best_delay = optimal_average_delay(knapsack_catalog, bandwidths, rates, best)
        # Move 500 KB from the most valuable object to each other object in
        # turn; the objective must never improve.
        for other in (1, 2):
            perturbed = dict(best)
            perturbed[0] = perturbed.get(0, 0.0) - 500.0
            perturbed[other] = perturbed.get(other, 0.0) + 500.0
            delay = optimal_average_delay(knapsack_catalog, bandwidths, rates, perturbed)
            assert delay >= best_delay - 1e-9


class TestOptimalAverageDelay:
    def test_zero_rates_give_zero_delay(self, knapsack_catalog, bandwidths):
        assert optimal_average_delay(knapsack_catalog, bandwidths, {}, {}) == 0.0

    def test_full_allocation_eliminates_delay(self, knapsack_catalog, bandwidths, rates):
        allocation = optimal_allocation(knapsack_catalog, bandwidths, rates, 1e9)
        assert optimal_average_delay(
            knapsack_catalog, bandwidths, rates, allocation
        ) == pytest.approx(0.0)

    def test_empty_allocation_matches_manual_computation(
        self, knapsack_catalog, bandwidths, rates
    ):
        delay = optimal_average_delay(knapsack_catalog, bandwidths, rates, {})
        total_rate = sum(rates.values())
        expected = (
            rates[0] * (48.0 - 8.0) * 100.0 / 8.0
            + rates[1] * (48.0 - 24.0) * 100.0 / 24.0
            + rates[2] * (48.0 - 24.0) * 100.0 / 24.0
        ) / total_rate
        assert delay == pytest.approx(expected)


class TestStaticAllocationPolicy:
    def test_install_populates_store(self, knapsack_catalog, bandwidths, rates):
        allocation = optimal_allocation(knapsack_catalog, bandwidths, rates, 6_000.0)
        policy = StaticAllocationPolicy(allocation)
        store = CacheStore(6_000.0)
        policy.install(store, knapsack_catalog)
        assert store.used_kb == pytest.approx(sum(allocation.values()))

    def test_on_request_never_changes_cache(self, knapsack_catalog):
        policy = StaticAllocationPolicy({0: 1_000.0})
        store = CacheStore(5_000.0)
        policy.install(store, knapsack_catalog)
        before = store.snapshot()
        policy.on_request(knapsack_catalog.get(1), bandwidth=5.0, now=1.0, store=store)
        assert store.snapshot() == before
        assert policy.frequencies.total_requests == 1

    def test_install_caps_at_object_size(self, knapsack_catalog):
        policy = StaticAllocationPolicy({0: 1e9})
        store = CacheStore(1e9)
        policy.install(store, knapsack_catalog)
        assert store.cached_bytes(0) == pytest.approx(knapsack_catalog.get(0).size)

    def test_reset_keeps_allocation(self, knapsack_catalog):
        policy = StaticAllocationPolicy({0: 500.0})
        store = CacheStore(5_000.0)
        policy.install(store, knapsack_catalog)
        policy.on_request(knapsack_catalog.get(0), bandwidth=5.0, now=0.0, store=store)
        policy.reset()
        assert policy.frequencies.total_requests == 0
        assert store.cached_bytes(0) == 500.0
