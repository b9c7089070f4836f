"""The replay loop against its recorded goldens.

These tests pin the replay to ``tests/data/replay_goldens.json`` for every
registered policy, for every bundled variability model, and for passive
bandwidth estimation — using strict ``==`` on the full recorded result,
not approximate comparison.  The workload is an object-per-request trace,
so the conversion to columns at the start of every run is covered too.
"""

import numpy as np
import pytest

from repro.analysis.experiments import build_workload
from repro.core.policies import POLICY_REGISTRY, make_policy
from repro.network.variability import (
    ConstantVariability,
    MeasuredPathVariability,
    NLANRRatioVariability,
)
from repro.sim.config import BandwidthKnowledge, SimulationConfig
from repro.sim.simulator import ProxyCacheSimulator
from repro.workload.gismo import GismoWorkloadGenerator, WorkloadConfig

from conftest import assert_golden, replay_golden


@pytest.fixture(scope="module")
def workload():
    config = WorkloadConfig(seed=7).scaled(0.02)  # 100 objects, 2000 requests
    return GismoWorkloadGenerator(config).generate()


@pytest.mark.parametrize("policy_name", sorted(POLICY_REGISTRY))
@pytest.mark.parametrize(
    "variability",
    [ConstantVariability(), NLANRRatioVariability()],
    ids=["constant", "nlanr"],
)
def test_fast_path_bit_identical_for_every_policy(workload, policy_name, variability):
    config = SimulationConfig(cache_size_gb=0.5, variability=variability, seed=11)
    name = type(variability).__name__
    replay_golden(f"fast-path/{name}/{policy_name}", workload, config, policy_name)


def test_fast_path_bit_identical_measured_paths(workload):
    config = SimulationConfig(
        cache_size_gb=0.5, variability=MeasuredPathVariability("average"), seed=3
    )
    replay_golden("fast-path/measured-paths", workload, config)


def test_fast_path_bit_identical_with_passive_estimation(workload):
    config = SimulationConfig(
        cache_size_gb=0.5,
        variability=NLANRRatioVariability(),
        bandwidth_knowledge=BandwidthKnowledge.PASSIVE,
        seed=5,
    )
    replay_golden("fast-path/passive", workload, config)


def test_fast_path_bit_identical_with_zero_warmup(workload):
    config = SimulationConfig(
        cache_size_gb=0.5, variability=NLANRRatioVariability(), warmup_fraction=0.0, seed=2
    )
    result = replay_golden("fast-path/zero-warmup", workload, config, "IB")
    assert result.metrics.requests == len(workload.trace)


def test_fast_path_respects_verify_store(workload):
    config = SimulationConfig(cache_size_gb=0.5, seed=1, verify_store=True)
    result = ProxyCacheSimulator(workload, config).run(make_policy("PB"))
    assert result.metrics.requests > 0


def test_200k_pb_replay_matches_golden():
    """The throughput benchmark's configuration: 200k requests, PB under
    NLANR variability."""
    workload = build_workload(scale=2.0, seed=0)
    config = SimulationConfig(
        cache_size_gb=16.0, variability=NLANRRatioVariability(), seed=0
    )
    simulator = ProxyCacheSimulator(workload, config)
    topology = simulator.build_topology(np.random.default_rng(0))
    result = simulator.run(make_policy("PB"), topology=topology)
    assert result.metrics.requests + result.warmup_requests == 200_000
    assert_golden("perf/200k-pb", result)
