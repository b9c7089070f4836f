"""Tests for network paths, the path registry, and the delivery topology."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, UnknownObjectError
from repro.network.distributions import ConstantBandwidthDistribution, NLANRBandwidthDistribution
from repro.network.path import NetworkPath, PathRegistry
from repro.network.topology import ClientCloud, DeliveryTopology, ProxyNode
from repro.network.variability import LognormalRatioVariability


class TestNetworkPath:
    def test_observed_bandwidth_constant_without_variability(self, rng):
        path = NetworkPath(server_id=1, base_bandwidth=80.0)
        assert path.observed_bandwidth(rng) == pytest.approx(80.0)

    def test_observed_bandwidth_varies_with_model(self, rng):
        path = NetworkPath(
            server_id=1, base_bandwidth=80.0, variability=LognormalRatioVariability(0.5)
        )
        samples = [path.observed_bandwidth(rng) for _ in range(2_000)]
        assert np.std(samples) > 0
        assert np.mean(samples) == pytest.approx(80.0, rel=0.1)

    def test_observed_bandwidth_floor(self, rng):
        path = NetworkPath(
            server_id=1, base_bandwidth=2.0, variability=LognormalRatioVariability(2.0)
        )
        assert min(path.observed_bandwidth(rng) for _ in range(500)) >= 1.0

    def test_rejects_nonpositive_base(self):
        with pytest.raises(ConfigurationError):
            NetworkPath(server_id=1, base_bandwidth=0.0)

    def test_rejects_nan_base(self):
        with pytest.raises(ConfigurationError):
            NetworkPath(server_id=1, base_bandwidth=float("nan"))


class TestPathRegistry:
    def test_add_get_and_contains(self):
        registry = PathRegistry([NetworkPath(0, 50.0), NetworkPath(1, 100.0)])
        assert len(registry) == 2
        assert 0 in registry and 2 not in registry
        assert registry.get(1).base_bandwidth == 100.0

    def test_duplicate_server_rejected(self):
        registry = PathRegistry([NetworkPath(0, 50.0)])
        with pytest.raises(ConfigurationError):
            registry.add(NetworkPath(0, 60.0))

    def test_get_unknown_raises(self):
        with pytest.raises(UnknownObjectError):
            PathRegistry().get(7)

    def test_from_distribution_creates_one_path_per_server(self, rng):
        registry = PathRegistry.from_distribution(
            range(20), NLANRBandwidthDistribution(), rng
        )
        assert len(registry) == 20
        assert registry.server_ids() == list(range(20))
        assert all(path.base_bandwidth >= 1.0 for path in registry)

    def test_from_distribution_requires_servers(self, rng):
        with pytest.raises(ConfigurationError):
            PathRegistry.from_distribution([], NLANRBandwidthDistribution(), rng)


class TestTopologyComponents:
    def test_client_cloud_defaults(self):
        cloud = ClientCloud()
        assert cloud.num_clients == 1
        assert cloud.last_mile_bandwidth == float("inf")

    def test_client_cloud_validation(self):
        with pytest.raises(ConfigurationError):
            ClientCloud(num_clients=0)
        with pytest.raises(ConfigurationError):
            ClientCloud(last_mile_bandwidth=0.0)

    def test_proxy_node_validation(self):
        assert ProxyNode(capacity_kb=0.0).capacity_kb == 0.0
        with pytest.raises(ConfigurationError):
            ProxyNode(capacity_kb=-1.0)

    def test_client_cloud_rejects_nan_last_mile(self):
        with pytest.raises(ConfigurationError):
            ClientCloud(last_mile_bandwidth=float("nan"))

    def test_proxy_node_rejects_nan_capacity(self):
        with pytest.raises(ConfigurationError):
            ProxyNode(capacity_kb=float("nan"))


class TestDeliveryTopology:
    def test_build_assigns_paths_to_all_servers(self, small_catalog, rng):
        topology = DeliveryTopology.build(
            small_catalog, cache_capacity_kb=1_000.0, rng=rng
        )
        for obj in small_catalog:
            assert topology.path_for(obj).server_id == obj.server_id

    def test_servers_grouping(self, uniform_bandwidth_topology):
        servers = uniform_bandwidth_topology.servers()
        by_id = {server.server_id: server for server in servers}
        assert set(by_id) == {0, 1, 2}
        assert set(by_id[0].object_ids) == {0, 3}

    def test_missing_path_rejected(self, small_catalog):
        registry = PathRegistry([NetworkPath(0, 50.0)])  # servers 1, 2 missing
        with pytest.raises(ConfigurationError):
            DeliveryTopology(
                catalog=small_catalog, paths=registry, proxy=ProxyNode(capacity_kb=10.0)
            )

    def test_build_with_constant_distribution(self, small_catalog, rng):
        topology = DeliveryTopology.build(
            small_catalog,
            cache_capacity_kb=500.0,
            bandwidth_distribution=ConstantBandwidthDistribution(10.0),
            rng=rng,
        )
        assert all(path.base_bandwidth == pytest.approx(10.0) for path in topology.paths)


class TestSampleObserved:
    def test_batch_matches_consecutive_scalar_draws(self):
        path = NetworkPath(0, 80.0, variability=LognormalRatioVariability(1.2))
        batch = path.sample_observed(np.random.default_rng(42), size=64)
        scalar_rng = np.random.default_rng(42)
        scalars = [path.observed_bandwidth(scalar_rng) for _ in range(64)]
        assert batch.tolist() == scalars  # elementwise IEEE-identical

    def test_floor_and_shapes(self):
        path = NetworkPath(0, 1e-6 + 1.0)  # constant variability, near the floor
        samples = path.sample_observed(np.random.default_rng(0), size=5)
        assert samples.shape == (5,)
        assert np.all(samples >= 1.0)
        assert path.sample_observed(np.random.default_rng(0), size=0).size == 0
        with pytest.raises(ConfigurationError):
            path.sample_observed(np.random.default_rng(0), size=-1)
