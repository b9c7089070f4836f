"""Integration tests for the trace-driven simulator and the experiment runner."""

import numpy as np
import pytest

from repro.core.policies import make_policy
from repro.core.policies.optimal import StaticAllocationPolicy, optimal_allocation
from repro.exceptions import ConfigurationError
from repro.network.distributions import ConstantBandwidthDistribution
from repro.network.variability import NLANRRatioVariability
from repro.sim.config import BandwidthKnowledge, SimulationConfig
from repro.sim.runner import compare_policies, run_replications, sweep_cache_sizes
from repro.sim.simulator import ProxyCacheSimulator


def small_config(**kwargs):
    defaults = dict(cache_size_gb=0.5, seed=3, verify_store=True)
    defaults.update(kwargs)
    return SimulationConfig(**defaults)


class TestProxyCacheSimulator:
    def test_runs_and_reports_metrics(self, tiny_workload):
        simulator = ProxyCacheSimulator(tiny_workload, small_config())
        result = simulator.run(make_policy("PB"))
        assert result.policy_name == "PB"
        assert result.metrics.requests == len(tiny_workload.trace) // 2
        assert 0.0 <= result.metrics.traffic_reduction_ratio <= 1.0
        assert 0.0 <= result.metrics.average_stream_quality <= 1.0
        assert result.metrics.average_service_delay >= 0.0
        assert result.warmup_requests == len(tiny_workload.trace) // 2

    def test_deterministic_given_seed(self, tiny_workload):
        config = small_config(seed=11)
        first = ProxyCacheSimulator(tiny_workload, config).run(make_policy("IB"))
        second = ProxyCacheSimulator(tiny_workload, config).run(make_policy("IB"))
        assert first.metrics.as_dict() == second.metrics.as_dict()

    def test_different_seeds_differ(self, tiny_workload):
        first = ProxyCacheSimulator(tiny_workload, small_config(seed=1)).run(make_policy("IB"))
        second = ProxyCacheSimulator(tiny_workload, small_config(seed=2)).run(make_policy("IB"))
        assert first.metrics.as_dict() != second.metrics.as_dict()

    def test_zero_cache_serves_everything_from_servers(self, tiny_workload):
        config = small_config(cache_size_gb=0.0)
        result = ProxyCacheSimulator(tiny_workload, config).run(make_policy("PB"))
        assert result.metrics.traffic_reduction_ratio == 0.0
        assert result.metrics.hit_ratio == 0.0

    def test_huge_cache_with_abundant_bandwidth_never_delays(self, tiny_workload):
        config = small_config(
            cache_size_gb=1_000.0,
            bandwidth_distribution=ConstantBandwidthDistribution(500.0),
        )
        result = ProxyCacheSimulator(tiny_workload, config).run(make_policy("PB"))
        assert result.metrics.average_service_delay == 0.0
        assert result.metrics.average_stream_quality == 1.0

    def test_min_path_bandwidth_floor_applied(self, tiny_workload, rng):
        config = small_config(
            bandwidth_distribution=ConstantBandwidthDistribution(2.0),
            min_path_bandwidth=10.0,
        )
        simulator = ProxyCacheSimulator(tiny_workload, config)
        topology = simulator.build_topology(rng)
        assert all(path.base_bandwidth >= 10.0 for path in topology.paths)

    def test_shared_topology_reused_across_policies(self, tiny_workload):
        config = small_config()
        simulator = ProxyCacheSimulator(tiny_workload, config)
        topology = simulator.build_topology(np.random.default_rng(config.seed))
        result_a = simulator.run(make_policy("PB"), topology=topology)
        result_b = simulator.run(make_policy("PB"), topology=topology)
        assert result_a.metrics.as_dict() == result_b.metrics.as_dict()

    def test_passive_bandwidth_knowledge_runs(self, tiny_workload):
        config = small_config(bandwidth_knowledge=BandwidthKnowledge.PASSIVE)
        result = ProxyCacheSimulator(tiny_workload, config).run(make_policy("PB"))
        assert result.metrics.requests > 0

    def test_static_optimal_policy_runs(self, tiny_workload):
        config = small_config()
        simulator = ProxyCacheSimulator(tiny_workload, config)
        topology = simulator.build_topology(np.random.default_rng(config.seed))
        bandwidths = {
            obj.object_id: topology.path_for(obj).base_bandwidth
            for obj in tiny_workload.catalog
        }
        rates = {
            i: float(rate) for i, rate in enumerate(tiny_workload.expected_rates)
        }
        allocation = optimal_allocation(
            tiny_workload.catalog, bandwidths, rates, config.cache_size_kb
        )
        result = simulator.run(StaticAllocationPolicy(allocation), topology=topology)
        assert result.policy_name == "OPT"
        assert result.metrics.requests > 0

    def test_optimal_static_beats_or_matches_lru_on_delay(self, tiny_workload):
        config = small_config(cache_size_gb=0.3)
        simulator = ProxyCacheSimulator(tiny_workload, config)
        topology = simulator.build_topology(np.random.default_rng(config.seed))
        bandwidths = {
            obj.object_id: topology.path_for(obj).base_bandwidth
            for obj in tiny_workload.catalog
        }
        rates = {i: float(r) for i, r in enumerate(tiny_workload.expected_rates)}
        allocation = optimal_allocation(
            tiny_workload.catalog, bandwidths, rates, config.cache_size_kb
        )
        optimal = simulator.run(StaticAllocationPolicy(allocation), topology=topology)
        lru = simulator.run(make_policy("LRU"), topology=topology)
        assert (
            optimal.metrics.average_service_delay
            <= lru.metrics.average_service_delay + 1e-9
        )


class TestRunner:
    def test_run_replications_averages(self, tiny_workload):
        metrics = run_replications(
            tiny_workload, lambda: make_policy("IB"), small_config(), num_runs=2
        )
        assert metrics.requests > 0
        with pytest.raises(ConfigurationError):
            run_replications(tiny_workload, lambda: make_policy("IB"), small_config(), 0)

    def test_compare_policies_same_conditions(self, tiny_workload):
        comparison = compare_policies(
            tiny_workload,
            {"IF": lambda: make_policy("IF"), "PB": lambda: make_policy("PB")},
            small_config(),
            num_runs=2,
        )
        assert set(comparison.policies()) == {"IF", "PB"}
        trr = comparison.metric("traffic_reduction_ratio")
        assert set(trr) == {"IF", "PB"}

    def test_compare_policies_validation(self, tiny_workload):
        with pytest.raises(ConfigurationError):
            compare_policies(tiny_workload, {}, small_config())

    def test_sweep_cache_sizes_structure(self, tiny_workload):
        sweep = sweep_cache_sizes(
            tiny_workload,
            {"PB": lambda: make_policy("PB")},
            cache_sizes_gb=[0.1, 0.5],
            config=small_config(),
            num_runs=1,
        )
        assert sweep.parameter_values == [0.1, 0.5]
        assert len(sweep.series("PB", "traffic_reduction_ratio")) == 2

    def test_larger_cache_improves_traffic_reduction(self, tiny_workload):
        sweep = sweep_cache_sizes(
            tiny_workload,
            {"IF": lambda: make_policy("IF")},
            cache_sizes_gb=[0.05, 1.0],
            config=small_config(),
            num_runs=1,
        )
        series = sweep.series("IF", "traffic_reduction_ratio")
        assert series[1] >= series[0]

    def test_sweep_requires_values(self, tiny_workload):
        with pytest.raises(ConfigurationError):
            sweep_cache_sizes(
                tiny_workload, {"PB": lambda: make_policy("PB")}, [], small_config()
            )

    def test_variable_bandwidth_increases_delay(self, small_workload):
        constant = compare_policies(
            small_workload,
            {"PB": lambda: make_policy("PB")},
            small_config(cache_size_gb=1.0),
            num_runs=2,
        )
        variable = compare_policies(
            small_workload,
            {"PB": lambda: make_policy("PB")},
            small_config(cache_size_gb=1.0, variability=NLANRRatioVariability()),
            num_runs=2,
        )
        assert (
            variable.metrics_by_policy["PB"].average_service_delay
            >= constant.metrics_by_policy["PB"].average_service_delay
        )
