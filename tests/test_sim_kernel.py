"""Conformance suite for the request-service kernel.

The kernel contract (:mod:`repro.sim.kernel`) has three observable
promises, each pinned here:

* **Recorded behaviour** — every config in :data:`STAGE_CONFIGS` (one per
  optional subsystem) replays bit-identically to its recorded golden
  (``tests/data/replay_goldens.json``).
* **Chunk boundaries are invisible** — the driver hands the kernel the
  longest runs uninterrupted by auxiliary events; splitting those runs
  anywhere, down to one request per chunk, must not move a single bit of
  the result, timeline or reports.
* **Degenerate transparency** — with every optional subsystem off, the
  kernel reproduces the pre-kernel seed behaviour bit-for-bit (golden
  fixture captured before the kernel refactor).
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.sim.simulator as simulator_module
from conftest import replay_golden, result_record
from repro.core.policies import make_policy
from repro.network.distributions import NLANRBandwidthDistribution
from repro.sim.config import BandwidthKnowledge, ClientCloudConfig, SimulationConfig
from repro.sim.events import RemeasurementConfig
from repro.sim.faults import FaultConfig
from repro.sim.hierarchy import CacheTier, HierarchyConfig
from repro.sim.simulator import ProxyCacheSimulator
from repro.sim.streaming import StreamingConfig
from repro.workload.gismo import GismoWorkloadGenerator, WorkloadConfig

GOLDEN_PATH = Path(__file__).parent / "data" / "kernel_degenerate_golden.json"

#: Requests in the conformance workload.
REQUESTS = 1_500


@lru_cache(maxsize=None)
def _workload(seed: int = 7):
    return GismoWorkloadGenerator(
        WorkloadConfig(
            num_objects=50, num_requests=REQUESTS, num_servers=10, seed=seed
        )
    ).generate()


def _config(**overrides) -> SimulationConfig:
    base = dict(cache_size_gb=1.0, seed=5, verify_store=True)
    base.update(overrides)
    return SimulationConfig(**base)


#: Config variants that light up different kernel stages.
STAGE_CONFIGS = {
    "plain": lambda: _config(),
    "passive-reactive": lambda: _config(
        bandwidth_knowledge=BandwidthKnowledge.PASSIVE,
        reactive_threshold=0.15,
        reactive_passive=True,
        reactive_hysteresis=0.05,
    ),
    "faults": lambda: _config(
        faults=FaultConfig(
            random_origin_outages=2,
            random_bandwidth_flaps=3,
            mean_duration_s=500.0,
            seed=3,
        )
    ),
    "streaming": lambda: _config(streaming=StreamingConfig(fraction=1.0, seed=2)),
    "clouds": lambda: _config(
        client_clouds=ClientCloudConfig(
            groups=4, distribution=NLANRBandwidthDistribution()
        )
    ),
    "hierarchy": lambda: _config(
        hierarchy=HierarchyConfig(
            tiers=(
                CacheTier(name="edge", cache_kb=200_000.0, uplink_bandwidth=50.0),
                CacheTier(name="parent", cache_kb=800_000.0, uplink_bandwidth=40.0),
            ),
            num_pops=2,
        )
    ),
}


#: The stage configs plus periodic re-measurement feeding passive-driven
#: re-keying, so auxiliary events split the trace before the test does.
CHUNK_CONFIGS = {
    **STAGE_CONFIGS,
    "remeasure-reactive": lambda: _config(
        bandwidth_knowledge=BandwidthKnowledge.PASSIVE,
        remeasurement=RemeasurementConfig(interval=150.0),
        reactive_threshold=0.15,
        reactive_passive=True,
        reactive_hysteresis=0.05,
    ),
}

#: Chunk cut points; ``None`` cuts every request into its own chunk.
CUTS = st.one_of(
    st.none(),
    st.lists(st.integers(min_value=1, max_value=REQUESTS - 1), max_size=40),
)


def _replay(config, cuts=()):
    """Replay the conformance workload, splitting every kernel chunk at
    ``cuts`` (``None``: at every request)."""
    serve_batch = simulator_module.serve_batch

    def split(ctx, ids, times, start, stop):
        inside = range(start + 1, stop) if cuts is None else cuts
        bounds = sorted({start, stop, *(c for c in inside if start < c < stop)})
        for low, high in zip(bounds, bounds[1:]):
            serve_batch(ctx, ids, times, low, high)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator_module, "serve_batch", split)
        return ProxyCacheSimulator(_workload(), config).run(make_policy("PB"))


@lru_cache(maxsize=None)
def _unsplit_record(variant: str) -> str:
    return json.dumps(result_record(_replay(CHUNK_CONFIGS[variant]())))


@pytest.mark.parametrize("variant", sorted(STAGE_CONFIGS))
def test_stage_config_matches_golden(variant):
    replay_golden(f"kernel/{variant}", _workload(), STAGE_CONFIGS[variant]())


@pytest.mark.parametrize("variant", sorted(CHUNK_CONFIGS))
@settings(max_examples=6, deadline=None)
@given(cuts=CUTS)
@example(cuts=None)
def test_chunk_boundaries_are_invisible(variant, cuts):
    """Splitting kernel chunks anywhere, even one request per chunk, leaves
    the result, the timeline and every report bit-identical."""
    split = _replay(CHUNK_CONFIGS[variant](), cuts)
    assert json.dumps(result_record(split)) == _unsplit_record(variant)


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1_000), cuts=CUTS)
def test_chunking_is_invisible_for_any_simulation_seed(seed, cuts):
    """Chunk invariance is a property of the kernel, not of one lucky
    seed: the simulation seed moves bandwidths, warmup draws and cache
    contents, and the split replay must still match the unsplit one."""
    config = SimulationConfig(cache_size_gb=1.0, seed=seed)
    split = _replay(config, cuts)
    assert result_record(split) == result_record(_replay(config))


def test_degenerate_all_off_matches_pre_kernel_golden():
    """With every optional subsystem off, the kernel-unified simulator
    reproduces the pre-refactor behaviour bit-for-bit, per policy.

    The fixture was captured from the last pre-kernel commit; a diff here
    means the refactor changed simulation semantics, not just structure.
    """
    golden = json.loads(GOLDEN_PATH.read_text())
    workload = _workload(seed=7)
    for policy_name, expected in sorted(golden.items()):
        result = ProxyCacheSimulator(workload, _config()).run(
            make_policy(policy_name)
        )
        assert json.loads(json.dumps(result.as_dict())) == expected, policy_name
