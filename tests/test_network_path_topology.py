"""Tests for network paths, the path registry, and the delivery topology."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, UnknownObjectError
from repro.network.distributions import ConstantBandwidthDistribution, NLANRBandwidthDistribution
from repro.network.path import NetworkPath, PathRegistry
from repro.network.topology import DeliveryTopology
from repro.network.variability import (
    MEASURED_PATH_PROFILES,
    ConstantVariability,
    LognormalRatioVariability,
    MeasuredPathVariability,
    NLANRRatioVariability,
)

#: One instance of every variability model this package ships.
BUNDLED_MODELS = {
    "constant": ConstantVariability(),
    "lognormal": LognormalRatioVariability(1.2),
    "nlanr": NLANRRatioVariability(),
    **{
        f"measured-{name}": MeasuredPathVariability(name)
        for name in ("average", *MEASURED_PATH_PROFILES)
    },
}


class TestNetworkPath:
    def test_sample_observed_constant_without_variability(self, rng):
        path = NetworkPath(server_id=1, base_bandwidth=80.0)
        assert path.sample_observed(rng, size=10).tolist() == [80.0] * 10

    def test_paths_without_a_model_share_one(self):
        # A hand-built registry of default paths shares one model, as the
        # replay requires.
        assert NetworkPath(0, 50.0).variability is NetworkPath(1, 60.0).variability

    def test_sample_observed_varies_with_model(self, rng):
        path = NetworkPath(
            server_id=1, base_bandwidth=80.0, variability=LognormalRatioVariability(0.5)
        )
        samples = path.sample_observed(rng, size=2_000)
        assert np.std(samples) > 0
        assert np.mean(samples) == pytest.approx(80.0, rel=0.1)

    def test_sample_observed_floor(self, rng):
        path = NetworkPath(
            server_id=1, base_bandwidth=2.0, variability=LognormalRatioVariability(2.0)
        )
        assert path.sample_observed(rng, size=500).min() >= 1.0

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


class TestDeliveryTopology:
    def test_build_assigns_paths_to_all_servers(self, small_catalog, rng):
        topology = DeliveryTopology.build(small_catalog, rng=rng)
        for obj in small_catalog:
            assert topology.path_for(obj).server_id == obj.server_id

    def test_missing_path_rejected(self, small_catalog):
        registry = PathRegistry([NetworkPath(0, 50.0)])  # servers 1, 2 missing
        with pytest.raises(ConfigurationError):
            DeliveryTopology(catalog=small_catalog, paths=registry)

    def test_build_with_constant_distribution(self, small_catalog, rng):
        topology = DeliveryTopology.build(
            small_catalog,
            bandwidth_distribution=ConstantBandwidthDistribution(10.0),
            rng=rng,
        )
        assert all(path.base_bandwidth == pytest.approx(10.0) for path in topology.paths)


class TestSampleObserved:
    @pytest.mark.parametrize("name", sorted(BUNDLED_MODELS))
    def test_batch_matches_consecutive_scalar_draws(self, name):
        """The replay draws its requests' ratios in one batch per window,
        and the windows' sizes are the replay's choice: for each bundled
        model a batch must equal one-at-a-time draws, and consecutive
        batches of uneven sizes, from the same seed, elementwise and
        IEEE-identical."""
        model = BUNDLED_MODELS[name]
        scalar_rng = np.random.default_rng(42)
        scalars = [float(model.sample_ratio(scalar_rng, size=1)[0]) for _ in range(64)]
        batch = model.sample_ratio(np.random.default_rng(42), size=64)
        assert batch.tolist() == scalars
        split_rng = np.random.default_rng(42)
        split = [model.sample_ratio(split_rng, size=size) for size in (1, 7, 56)]
        assert np.concatenate(split).tolist() == scalars
        path = NetworkPath(0, 80.0, variability=model)
        expected = [max(80.0 * ratio, 1.0) for ratio in scalars]
        observed = path.sample_observed(np.random.default_rng(42), size=64)
        assert observed.tolist() == expected
        split_rng = np.random.default_rng(42)
        split = [path.sample_observed(split_rng, size=size) for size in (1, 7, 56)]
        assert np.concatenate(split).tolist() == expected

    def test_floor_and_shapes(self):
        path = NetworkPath(0, 1e-6 + 1.0)  # constant variability, near the floor
        samples = path.sample_observed(np.random.default_rng(0), size=5)
        assert samples.shape == (5,)
        assert np.all(samples >= 1.0)
        assert path.sample_observed(np.random.default_rng(0), size=0).size == 0
        with pytest.raises(ConfigurationError):
            path.sample_observed(np.random.default_rng(0), size=-1)
