"""Heterogeneous client clouds and the reactive re-keying hook.

Three families of guarantees are pinned here:

* **Bit-identity when nothing binds** — a single homogeneous client cloud
  (the default, effectively infinite last mile) routed *through* the
  composition code is bit-identical to the pre-change simulator
  (``client_clouds=None``) (property-tested over seeds), and attaching a
  cloud never perturbs origin-path construction.
* **Recorded behaviour when clouds bind** — with heterogeneous per-group
  last-mile bandwidth enabled, runs match their recorded goldens, per
  policy — including runs that add re-measurement and reactive re-keying
  on top.
* **Reactive re-keying semantics** — threshold gating, the
  ``bandwidth_keyed`` guard, configuration validation, and the
  end-to-end real-log pipeline (``repro ingest`` → per-client clouds →
  ``repro run``) of the acceptance criteria.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import POLICY_REGISTRY, make_policy
from repro.exceptions import ConfigurationError
from repro.network.distributions import (
    ConstantBandwidthDistribution,
    NLANRBandwidthDistribution,
)
from repro.network.topology import ClientCloud
from repro.network.variability import NLANRRatioVariability
from repro.sim.config import BandwidthKnowledge, ClientCloudConfig, SimulationConfig
from repro.sim.events import ReactiveRekeyer, RemeasurementConfig
from repro.sim.simulator import ProxyCacheSimulator
from repro.trace.ingest import ingest_access_log
from repro.workload.gismo import GismoWorkloadGenerator, WorkloadConfig

from conftest import assert_golden, replay_golden

REPO_ROOT = Path(__file__).resolve().parent.parent
SAMPLE_SQUID = REPO_ROOT / "examples" / "data" / "sample_squid.log"


@pytest.fixture(scope="module")
def client_workload():
    """A small multi-client columnar workload (100 objects, 2000 requests)."""
    config = replace(WorkloadConfig(seed=7).scaled(0.02), num_clients=24)
    return GismoWorkloadGenerator(config).generate()


def _config(**overrides):
    defaults = dict(
        cache_size_gb=0.5, variability=NLANRRatioVariability(), seed=11
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)




# ----------------------------------------------------------------------
# The ClientCloud model itself.
# ----------------------------------------------------------------------
class TestClientCloud:
    def test_default_cloud_is_unmodeled(self):
        cloud = ClientCloud()
        assert not cloud.constrains
        assert cloud.group_count == 0
        assert cloud.last_mile_for(3) is None
        assert cloud.base_bandwidth_for(3) == float("inf")

    def test_homogeneous_groups_share_base_and_model(self):
        cloud = ClientCloud.homogeneous(200.0, groups=4)
        assert cloud.constrains and cloud.group_count == 4
        assert {path.base_bandwidth for path in cloud.paths} == {200.0}
        assert len({id(path.variability) for path in cloud.paths}) == 1
        # Modulo mapping: client 6 of 4 groups lands in group 2.
        assert cloud.last_mile_for(6) is cloud.paths[2]
        assert cloud.base_bandwidth_for(6) == 200.0

    def test_from_distribution_draws_one_base_per_group(self):
        rng = np.random.default_rng(3)
        cloud = ClientCloud.from_distribution(8, NLANRBandwidthDistribution(), rng)
        assert cloud.group_count == 8
        bases = [path.base_bandwidth for path in cloud.paths]
        assert len(set(bases)) > 1  # heterogeneous
        assert all(base >= 1.0 for base in bases)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ClientCloud(paths=())
        with pytest.raises(ConfigurationError):
            ClientCloud.homogeneous(100.0, groups=0)
        with pytest.raises(ConfigurationError):
            ClientCloud.from_distribution(
                0, ConstantBandwidthDistribution(50.0), np.random.default_rng(0)
            )


class TestClientCloudConfig:
    def test_rejects_conflicting_modes(self):
        with pytest.raises(ConfigurationError):
            ClientCloudConfig(
                bandwidth=100.0, distribution=ConstantBandwidthDistribution(50.0)
            )
        with pytest.raises(ConfigurationError):
            ClientCloudConfig(groups=0)
        with pytest.raises(ConfigurationError):
            ClientCloudConfig(bandwidth=0.0)
        with pytest.raises(ConfigurationError):
            ClientCloudConfig(bandwidth=float("nan"))

    def test_default_builds_non_binding_cloud(self):
        cloud = ClientCloudConfig(groups=3).build_cloud(np.random.default_rng(0))
        assert cloud.group_count == 3
        assert all(path.base_bandwidth == float("inf") for path in cloud.paths)

    def test_distribution_builds_heterogeneous_cloud(self):
        config = ClientCloudConfig(groups=5, distribution=NLANRBandwidthDistribution())
        cloud = config.build_cloud(np.random.default_rng(1))
        assert len({path.base_bandwidth for path in cloud.paths}) > 1


# ----------------------------------------------------------------------
# Property: a single homogeneous cloud is bit-identical to the
# pre-change simulator.
# ----------------------------------------------------------------------
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16), groups=st.integers(1, 5))
def test_homogeneous_cloud_bit_identical_to_unmodeled(seed, groups):
    config = replace(WorkloadConfig(seed=3).scaled(0.005), num_clients=6)
    workload = GismoWorkloadGenerator(config).generate()
    plain = _config(seed=seed)
    clouded = plain.with_client_clouds(ClientCloudConfig(groups=groups))
    a = ProxyCacheSimulator(workload, plain).run(make_policy("PB"))
    b = ProxyCacheSimulator(workload, clouded).run(make_policy("PB"))
    assert a.as_dict() == b.as_dict()


def test_homogeneous_cloud_bit_identical_for_every_policy(client_workload):
    plain = _config()
    clouded = plain.with_client_clouds(ClientCloudConfig(groups=1))
    for policy_name in sorted(POLICY_REGISTRY):
        a = ProxyCacheSimulator(client_workload, plain).run(make_policy(policy_name))
        b = ProxyCacheSimulator(client_workload, clouded).run(make_policy(policy_name))
        assert a.as_dict() == b.as_dict(), policy_name


def test_cloud_attachment_never_perturbs_origin_paths(client_workload):
    plain = ProxyCacheSimulator(client_workload, _config())
    clouded = ProxyCacheSimulator(
        client_workload,
        _config().with_client_clouds(
            ClientCloudConfig(groups=8, distribution=NLANRBandwidthDistribution())
        ),
    )
    topo_plain = plain.build_topology(np.random.default_rng(11))
    topo_cloud = clouded.build_topology(np.random.default_rng(11))
    assert [p.base_bandwidth for p in topo_plain.paths] == [
        p.base_bandwidth for p in topo_cloud.paths
    ]
    assert topo_cloud.clients.constrains and not topo_plain.clients.constrains
    assert topo_cloud.clients.last_mile_for(5) is topo_cloud.clients.paths[5 % 8]


# ----------------------------------------------------------------------
# Heterogeneous clouds: runs match their goldens, and the hop binds.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy_name", sorted(POLICY_REGISTRY))
def test_heterogeneous_cloud_bit_identical_across_paths(client_workload, policy_name):
    config = _config().with_client_clouds(
        ClientCloudConfig(groups=8, distribution=NLANRBandwidthDistribution())
    )
    replay_golden(f"clients/hetero/{policy_name}", client_workload, config, policy_name)


def test_binding_cloud_changes_outcomes_and_monotonically_hurts(client_workload):
    plain = ProxyCacheSimulator(client_workload, _config()).run(make_policy("PB"))
    capped = ProxyCacheSimulator(
        client_workload,
        _config().with_client_clouds(ClientCloudConfig(groups=4, bandwidth=30.0)),
    ).run(make_policy("PB"))
    assert capped.as_dict() != plain.as_dict()
    # A binding last mile can only slow delivery, never speed it up.
    assert capped.metrics.average_service_delay >= plain.metrics.average_service_delay
    assert capped.metrics.average_stream_quality <= plain.metrics.average_stream_quality


def test_heterogeneous_cloud_with_remeasurement_paths_agree(client_workload):
    config = _config(
        bandwidth_knowledge=BandwidthKnowledge.PASSIVE,
        remeasurement=RemeasurementConfig(interval=150.0),
    ).with_client_clouds(
        ClientCloudConfig(groups=8, distribution=NLANRBandwidthDistribution())
    )
    simulator = ProxyCacheSimulator(client_workload, config)
    topology = simulator.build_topology(np.random.default_rng(config.seed))
    result = simulator.run(make_policy("PB"), topology=topology)
    assert result.auxiliary_events_fired > 0
    assert_golden("clients/hetero-remeasure", result)


# ----------------------------------------------------------------------
# Reactive re-keying.
# ----------------------------------------------------------------------
def _reactive_config(**overrides):
    defaults = dict(
        bandwidth_knowledge=BandwidthKnowledge.PASSIVE,
        remeasurement=RemeasurementConfig(interval=120.0),
        reactive_threshold=0.15,
    )
    defaults.update(overrides)
    return _config(**defaults)


class TestReactiveRekeying:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            _config(reactive_threshold=0.2)  # no remeasurement
        with pytest.raises(ConfigurationError):
            _config(
                remeasurement=RemeasurementConfig(interval=60.0),
                reactive_threshold=0.2,
            )  # oracle knowledge: nothing ever shifts
        with pytest.raises(ConfigurationError):
            _reactive_config(reactive_threshold=-0.1)

    def test_shifts_fire_and_rekey_bandwidth_keyed_policies(self, client_workload):
        result = ProxyCacheSimulator(client_workload, _reactive_config()).run(
            make_policy("PB")
        )
        assert result.reactive_shifts > 0
        assert result.reactive_rekeys > 0
        assert result.auxiliary_events_fired > 0

    def test_rekeying_changes_eviction_outcomes(self, client_workload):
        reactive = ProxyCacheSimulator(client_workload, _reactive_config()).run(
            make_policy("PB")
        )
        passive = ProxyCacheSimulator(
            client_workload, _reactive_config(reactive_threshold=None)
        ).run(make_policy("PB"))
        assert reactive.as_dict() != passive.as_dict()

    def test_non_bandwidth_keyed_policies_are_never_rekeyed(self, client_workload):
        for policy_name in ("LRU", "LFU", "IF"):
            result = ProxyCacheSimulator(client_workload, _reactive_config()).run(
                make_policy(policy_name)
            )
            assert result.reactive_rekeys == 0, policy_name

    def test_reactive_runs_bit_identical_across_event_paths(self, client_workload):
        config = _reactive_config()
        simulator = ProxyCacheSimulator(client_workload, config)
        topology = simulator.build_topology(np.random.default_rng(config.seed))
        result = simulator.run(make_policy("PB"), topology=topology)
        assert result.reactive_shifts > 0
        assert_golden("clients/reactive-remeasure", result)

    def test_threshold_gates_rekeying(self, client_workload):
        tight = ProxyCacheSimulator(
            client_workload, _reactive_config(reactive_threshold=0.01)
        ).run(make_policy("PB"))
        loose = ProxyCacheSimulator(
            client_workload, _reactive_config(reactive_threshold=10.0)
        ).run(make_policy("PB"))
        assert tight.reactive_shifts > loose.reactive_shifts
        assert loose.reactive_shifts == 0

    def test_on_bandwidth_shift_rekeys_only_matching_server(self, small_catalog):
        from repro.core.store import CacheStore

        policy = make_policy("PB")
        store = CacheStore(capacity_kb=1e9)
        policy.install(store, small_catalog)
        for obj in small_catalog:
            policy.on_request(obj, 20.0, 0.0, store)
        before = {
            oid: policy.cached_utility(oid)
            for oid in (0, 1, 2, 3)
        }
        # Server 0 hosts objects 0 and 3; double their believed bandwidth.
        rekeyed = policy.on_bandwidth_shift(0, 40.0, 1.0)
        assert rekeyed == 2
        assert policy.cached_utility(1) == before[1]
        assert policy.cached_utility(2) == before[2]
        assert policy.cached_utility(0) == pytest.approx(before[0] / 2.0)
        assert policy.cached_utility(3) == pytest.approx(before[3] / 2.0)
        # Generation-keyed: the superseded entries linger as stale garbage.
        stats = policy.heap_statistics()
        assert stats["stale_entries"] >= 0
        assert stats["live_entries"] == 4

    def test_rekeyer_anchor_semantics(self, small_catalog):
        from repro.core.store import CacheStore
        from repro.network.measurement import PassiveEstimator

        policy = make_policy("PB")
        store = CacheStore(capacity_kb=1e9)
        policy.install(store, small_catalog)
        policy.on_request(small_catalog.get(0), 20.0, 0.0, store)
        estimator = PassiveEstimator(smoothing=1.0)
        rekeyer = ReactiveRekeyer(policy, estimator, threshold=0.5)

        prior = estimator.estimate(0)  # the initial estimate, 100
        estimator.observe(0, 120.0)
        rekeyer.notify(1.0, 0, prior)  # anchor seeds at 100; 20% < 50%: no shift
        assert rekeyer.shifts == 0
        estimator.observe(0, 300.0)
        rekeyer.notify(2.0, 0, 120.0)  # 200% > 50%: re-key, move the anchor
        assert rekeyer.shifts == 1 and rekeyer.entries_rekeyed == 1
        estimator.observe(0, 310.0)
        rekeyer.notify(3.0, 0, 300.0)  # small move relative to the *new* anchor
        assert rekeyer.shifts == 1
        with pytest.raises(ConfigurationError):
            ReactiveRekeyer(policy, estimator, threshold=0.0)


# ----------------------------------------------------------------------
# End-to-end: real ingested log -> per-client clouds -> replay.
# ----------------------------------------------------------------------
def test_ingested_log_heterogeneity_end_to_end():
    result = ingest_access_log(SAMPLE_SQUID)
    assert result.summary.unique_clients > 1  # real per-client identity survives
    workload = result.to_workload()
    assert set(workload.trace.client_ids_array.tolist()) == set(
        result.client_ids.values()
    )
    config = SimulationConfig(
        cache_size_gb=max(0.1 * workload.catalog.total_size_gb, 1e-6),
        variability=NLANRRatioVariability(),
        client_clouds=ClientCloudConfig(
            groups=4, distribution=NLANRBandwidthDistribution()
        ),
        seed=5,
    )
    reference = replay_golden("clients/ingested-log", workload, config).as_dict()
    # The same pipeline without the clouds differs: heterogeneity binds.
    plain = ProxyCacheSimulator(workload, config.with_client_clouds(None)).run(
        make_policy("PB")
    )
    assert plain.as_dict() != reference


# ----------------------------------------------------------------------
# Regressions from review: stream separation and the re-key cap.
# ----------------------------------------------------------------------
def test_construction_and_request_streams_are_separated(client_workload):
    """The per-request last-mile draws must not replay the base draws.

    Both streams derive from the cloud's tagged seed, but with distinct
    purpose tags: a generator seeded for construction reproduces the group
    bases exactly (that is what makes topologies deterministic), while the
    request-time ratio stream starts from a different state.
    """
    config = _config().with_client_clouds(
        ClientCloudConfig(groups=4, distribution=NLANRBandwidthDistribution())
    )
    simulator = ProxyCacheSimulator(client_workload, config)
    topology = simulator.build_topology(np.random.default_rng(config.seed))
    bases = sorted(path.base_bandwidth for path in topology.clients.paths)
    construction = np.maximum(
        NLANRBandwidthDistribution().sample(
            4, np.random.default_rng(simulator._client_cloud_seed(0))
        ),
        1.0,
    )
    request_stream = NLANRBandwidthDistribution().sample(
        4, np.random.default_rng(simulator._client_cloud_seed(1))
    )
    assert sorted(construction.tolist()) == pytest.approx(bases)
    assert not np.allclose(construction, request_stream)


def test_rekeyer_caps_shift_detection_at_last_mile_ceiling(small_catalog):
    """Estimate movement entirely above the cloud ceiling re-keys nothing."""
    from repro.core.store import CacheStore
    from repro.network.measurement import PassiveEstimator

    policy = make_policy("PB")
    store = CacheStore(capacity_kb=1e9)
    policy.install(store, small_catalog)
    policy.on_request(small_catalog.get(0), 20.0, 0.0, store)
    estimator = PassiveEstimator(smoothing=1.0)
    rekeyer = ReactiveRekeyer(policy, estimator, threshold=0.2, group_caps=(50.0,))

    prior = estimator.estimate(0)  # initial 100, capped to 50 when seeding
    estimator.observe(0, 100.0)
    rekeyer.notify(1.0, 0, prior)  # anchor seeds at the *capped* value, 50
    assert rekeyer.shifts == 0
    estimator.observe(0, 300.0)
    rekeyer.notify(2.0, 0, 100.0)  # still capped to 50: no client would notice
    assert rekeyer.shifts == 0
    estimator.observe(0, 30.0)
    rekeyer.notify(3.0, 0, 300.0)  # below the cap: a real believed-bandwidth shift
    assert rekeyer.shifts == 1
    with pytest.raises(ConfigurationError):
        ReactiveRekeyer(policy, estimator, threshold=0.2, group_caps=(0.0,))


def test_reactive_cap_derived_from_cloud_ceiling(client_workload):
    """A binding homogeneous cloud suppresses shifts above its ceiling."""
    capped = ProxyCacheSimulator(
        client_workload,
        _reactive_config().with_client_clouds(
            ClientCloudConfig(groups=4, bandwidth=2.0)
        ),
    ).run(make_policy("PB"))
    uncapped = ProxyCacheSimulator(client_workload, _reactive_config()).run(
        make_policy("PB")
    )
    # With every believed bandwidth clamped to 2 KB/s, estimates moving in
    # the tens-to-hundreds range can never cross the threshold.
    assert capped.reactive_shifts == 0
    assert uncapped.reactive_shifts > 0
