"""Tests for the GreedyDual-Size and popularity-aware GDS baselines."""

import pytest

from repro.core.policies import (
    GreedyDualSizePolicy,
    PopularityAwareGreedyDualSizePolicy,
    make_policy,
)
from repro.core.store import CacheStore
from repro.exceptions import ConfigurationError
from repro.workload.catalog import Catalog, MediaObject


def plan(policy, obj, now=0.0, bandwidth=24.0, frequency=1.0):
    """``policy.plan`` for one request: ``(target_kb, utility)``."""
    return policy.plan(obj, bandwidth, frequency, now)


@pytest.fixture
def small_object():
    return MediaObject(object_id=1, duration=10.0, bitrate=48.0)


@pytest.fixture
def large_object():
    return MediaObject(object_id=2, duration=1_000.0, bitrate=48.0)


class TestGreedyDualSize:
    def test_uniform_cost_prefers_small_objects(self, small_object, large_object):
        policy = GreedyDualSizePolicy(cost_model="uniform")
        assert plan(policy, small_object)[1] > plan(policy, large_object)[1]

    def test_size_cost_is_size_neutral(self, small_object, large_object):
        policy = GreedyDualSizePolicy(cost_model="size")
        assert plan(policy, small_object)[1] == pytest.approx(
            plan(policy, large_object)[1]
        )

    def test_delay_cost_prefers_slow_paths(self, large_object):
        policy = GreedyDualSizePolicy(cost_model="delay")
        slow = plan(policy, large_object, bandwidth=10.0)[1]
        fast = plan(policy, large_object, bandwidth=40.0)[1]
        assert slow > fast
        # No delay saved when the path covers the bit-rate.
        assert policy.credit(large_object, 96.0, 1.0) == 0.0

    def test_unknown_cost_model_rejected(self):
        with pytest.raises(ConfigurationError):
            GreedyDualSizePolicy(cost_model="bogus")

    def test_inflation_rises_on_eviction(self):
        policy = GreedyDualSizePolicy(cost_model="uniform")
        large = MediaObject(object_id=0, duration=100.0, bitrate=48.0)
        small = MediaObject(object_id=1, duration=50.0, bitrate=48.0)
        store = CacheStore(large.size)  # room for the large object only
        policy.install(store, Catalog([large, small]))
        assert policy.inflation == 0.0
        policy.on_request(large, bandwidth=24.0, now=0.0, store=store)
        # Under the uniform cost model the smaller object has the higher
        # credit (1 / size), so it evicts the large one and the inflation
        # value rises to the victim's utility.
        policy.on_request(small, bandwidth=24.0, now=1.0, store=store)
        assert store.cached_bytes(small.object_id) == pytest.approx(small.size)
        assert store.cached_bytes(large.object_id) == 0.0
        assert policy.inflation > 0.0

    def test_reset_clears_inflation(self):
        policy = GreedyDualSizePolicy()
        policy.inflation = 5.0
        policy.reset()
        assert policy.inflation == 0.0

    def test_caches_whole_objects(self, small_object):
        policy = GreedyDualSizePolicy()
        store = CacheStore(10_000.0)
        policy.install(store, Catalog([small_object]))
        policy.on_request(small_object, bandwidth=24.0, now=0.0, store=store)
        assert store.cached_bytes(small_object.object_id) == pytest.approx(small_object.size)


class TestPopularityAwareGDS:
    def test_frequency_scales_credit(self, small_object):
        policy = PopularityAwareGreedyDualSizePolicy()
        low = plan(policy, small_object, frequency=1.0)[1]
        high = plan(policy, small_object, frequency=5.0)[1]
        assert high > low

    def test_name_includes_cost_model(self):
        assert PopularityAwareGreedyDualSizePolicy("delay").name == "GDSP(delay)"

    def test_registry_builds_gds_variants(self):
        assert isinstance(make_policy("GDS"), GreedyDualSizePolicy)
        assert isinstance(make_policy("GDSP"), PopularityAwareGreedyDualSizePolicy)


class TestGDSInSimulation:
    def test_runs_through_simulator_and_respects_capacity(self, tiny_workload):
        from repro.sim.config import SimulationConfig
        from repro.sim.simulator import ProxyCacheSimulator

        config = SimulationConfig(cache_size_gb=0.5, seed=3, verify_store=True)
        for name in ("GDS", "GDSP"):
            result = ProxyCacheSimulator(tiny_workload, config).run(make_policy(name))
            assert result.metrics.requests > 0
            assert 0.0 <= result.metrics.traffic_reduction_ratio <= 1.0
