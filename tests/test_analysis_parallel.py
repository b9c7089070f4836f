"""Parallel orchestration determinism and heap-compaction invariants.

Two guarantees are pinned here:

* every runner submits its grid of replays as jobs, and the result is
  **exactly** that of the plain replay loops below — same seeds, same
  topologies, same averaging order, compared with strict equality —
  whether the jobs run in-process (one worker) or on a process pool, and
* the policy priority heap's generation scheme and amortised compaction
  keep the utilities map, the live-entry index, and the heap consistent
  under arbitrary request streams (property-based).
"""

import dataclasses
import json
import os
import pickle

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.analysis import parallel as parallel_mod
from repro.analysis.experiments import build_workload
from repro.analysis.parallel import (
    SimulationJob,
    replication_jobs,
    resolve_n_jobs,
    run_simulation_jobs,
    run_simulation_results,
)
from repro.core.policies import POLICY_REGISTRY, PolicySpec, make_policy
from repro.core.store import CacheStore
from repro.exceptions import ConfigurationError, SimulationError
from repro.network.distributions import NLANRBandwidthDistribution
from repro.network.variability import NLANRRatioVariability
from repro.obs import ObservabilityConfig
from repro.sim.config import BandwidthKnowledge, ClientCloudConfig, SimulationConfig
from repro.sim.faults import FaultConfig
from repro.sim.hierarchy import CacheTier, HierarchyConfig
from repro.sim.metrics import SimulationMetrics
from repro.sim.runner import compare_policies, run_replications, sweep_cache_sizes
from repro.sim.simulator import ProxyCacheSimulator, SimulationResult
from repro.sim.streaming import StreamingConfig
from repro.workload.catalog import Catalog, MediaObject
from repro.workload.gismo import GismoWorkloadGenerator, WorkloadConfig


@pytest.fixture(scope="module")
def workload():
    config = WorkloadConfig(seed=0).scaled(0.02)  # 100 objects, 2000 requests
    return GismoWorkloadGenerator(config).generate()


@pytest.fixture(scope="module")
def sim_config():
    return SimulationConfig(
        cache_size_gb=0.5, variability=NLANRRatioVariability(), seed=0
    )


# ----------------------------------------------------------------------
# The reference protocol: plain replay loops, no jobs.
# ----------------------------------------------------------------------
def reference_replications(workload, policy_name, config, num_runs):
    """Run ``i`` uses seed ``config.seed + i`` and draws its own topology."""
    runs = [
        ProxyCacheSimulator(workload, config.with_seed(config.seed + run_index))
        .run(make_policy(policy_name))
        .metrics
        for run_index in range(num_runs)
    ]
    return SimulationMetrics.average(runs)


def reference_comparison(workload, policy_names, config, num_runs):
    """One topology per seed, built once and shared by every policy."""
    per_policy = {name: [] for name in policy_names}
    for run_index in range(num_runs):
        run_config = config.with_seed(config.seed + run_index)
        simulator = ProxyCacheSimulator(workload, run_config)
        topology = simulator.build_topology(np.random.default_rng(run_config.seed))
        for name in policy_names:
            result = simulator.run(make_policy(name), topology=topology)
            per_policy[name].append(result.metrics)
    return {name: SimulationMetrics.average(runs) for name, runs in per_policy.items()}


# ----------------------------------------------------------------------
# Pool == in-process == reference, exactly.
# ----------------------------------------------------------------------
def test_run_replications_parallel_matches_serial(workload, sim_config):
    reference = reference_replications(workload, "PB", sim_config, num_runs=3)
    in_process = run_replications(workload, PolicySpec("PB"), sim_config, num_runs=3)
    parallel = run_replications(
        workload, PolicySpec("PB"), sim_config, num_runs=3, n_jobs=2
    )
    assert in_process == reference
    assert parallel == reference


def test_compare_policies_parallel_matches_serial(workload, sim_config):
    names = ("IF", "PB", "IB-V")
    factories = {name: PolicySpec(name) for name in names}
    # Three runs, because a two-run mean is the same in either order.
    reference = reference_comparison(workload, names, sim_config, num_runs=3)
    for n_jobs in (1, 4):
        comparison = compare_policies(
            workload, factories, sim_config, num_runs=3, n_jobs=n_jobs
        )
        assert comparison.policies() == list(names)
        assert comparison.metrics_by_policy == reference


def test_sweep_cache_sizes_parallel_is_byte_identical(workload, sim_config):
    names = ("PB", "IB")
    factories = {name: PolicySpec(name) for name in names}
    sizes = [0.2, 0.6]
    points = [
        reference_comparison(
            workload, names, sim_config.with_cache_size(size), num_runs=3
        )
        for size in sizes
    ]
    reference = {name: [point[name] for point in points] for name in names}
    for n_jobs in (1, 4):
        sweep = sweep_cache_sizes(
            workload, factories, sizes, sim_config, num_runs=3, n_jobs=n_jobs
        )
        assert sweep.parameter_name == "cache_size_gb"
        assert sweep.parameter_values == sizes
        assert sweep.metrics == reference


# ----------------------------------------------------------------------
# Whole results cross the process boundary intact.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def clouded_workload():
    return build_workload(scale=0.02, seed=0, num_clients=32)


def _subsystems_config(workload):
    """Streaming, faults, passive re-keying, client clouds and the timeline."""
    span = workload.trace.end_time - workload.trace.start_time
    return SimulationConfig(
        cache_size_gb=0.05 * workload.catalog.total_size_gb,
        variability=NLANRRatioVariability(),
        bandwidth_knowledge=BandwidthKnowledge.PASSIVE,
        client_clouds=ClientCloudConfig(
            groups=8, distribution=NLANRBandwidthDistribution()
        ),
        streaming=StreamingConfig(fraction=1.0, vbr_fraction=0.25, seed=0),
        faults=FaultConfig(
            random_origin_outages=2, random_bandwidth_flaps=4, seed=1
        ),
        reactive_threshold=0.15,
        reactive_passive=True,
        reactive_hysteresis=0.05,
        observability=ObservabilityConfig(window_s=span / 20.0),
        seed=0,
    )


def _hierarchy_config(workload):
    """Two tiers over two pops, behind NLANR client clouds."""
    edge_kb = 0.05 * workload.catalog.total_size_gb * 1_000_000.0 / 2
    return SimulationConfig(
        cache_size_gb=0.05 * workload.catalog.total_size_gb,
        variability=NLANRRatioVariability(),
        bandwidth_knowledge=BandwidthKnowledge.PASSIVE,
        client_clouds=ClientCloudConfig(
            groups=8, distribution=NLANRBandwidthDistribution()
        ),
        hierarchy=HierarchyConfig(
            tiers=(
                CacheTier("edge", edge_kb, uplink_bandwidth=50.0),
                CacheTier("parent", 4 * edge_kb, uplink_bandwidth=40.0),
            ),
            num_pops=2,
        ),
        seed=0,
    )


def _plain(value):
    """One result field in a form that compares by value across processes.

    Reports, metrics and the timeline compare through ``as_dict()``,
    serialised so that a NaN equals itself; the config, whose bandwidth
    models have no value equality, compares through its pickle.
    """
    if hasattr(value, "as_dict"):
        return json.dumps(value.as_dict(), sort_keys=True)
    if isinstance(value, SimulationConfig):
        return pickle.dumps(value)
    return value


@pytest.mark.parametrize(
    "make_config, reports",
    [
        (
            _subsystems_config,
            ("fault_report", "streaming_report", "timeline", "heap_statistics"),
        ),
        (_hierarchy_config, ("hierarchy_report",)),
    ],
    ids=["subsystems", "hierarchy"],
)
def test_run_simulation_results_pool_matches_in_process(
    clouded_workload, make_config, reports
):
    config = make_config(clouded_workload)
    jobs = replication_jobs(config, PolicySpec("PB"), num_runs=2) + [
        SimulationJob(config=config.with_seed(5), policy_factory=PolicySpec("IB"))
    ]
    in_process = run_simulation_results(clouded_workload, jobs, n_jobs=1)
    pooled = run_simulation_results(clouded_workload, jobs, n_jobs=2)
    assert len(in_process) == len(pooled) == len(jobs)
    for job, local, remote in zip(jobs, in_process, pooled):
        assert _plain(local.config) == _plain(job.config)
        for name in reports:
            assert getattr(local, name) is not None, name
        for result_field in dataclasses.fields(SimulationResult):
            name = result_field.name
            assert _plain(getattr(remote, name)) == _plain(getattr(local, name)), name
    # The subsystems did work, so the comparison is not of empty reports.
    if "fault_report" in reports:
        assert sum(result.reactive_shifts for result in pooled) > 0
        assert all(result.fault_report.episodes > 0 for result in pooled)
    assert run_simulation_jobs(clouded_workload, jobs, n_jobs=2) == [
        result.metrics for result in in_process
    ]


def test_jobs_carry_the_serial_seed_schedule(sim_config):
    jobs = replication_jobs(sim_config.with_seed(10), PolicySpec("PB"), num_runs=4)
    assert [job.config.seed for job in jobs] == [10, 11, 12, 13]
    assert not any(job.share_topology for job in jobs)


def test_run_simulation_jobs_preserves_job_order(workload, sim_config):
    jobs = [
        SimulationJob(
            config=sim_config.with_seed(seed),
            policy_factory=PolicySpec("PB"),
            share_topology=True,
        )
        for seed in (0, 1)
    ]
    serial = run_simulation_jobs(workload, jobs, n_jobs=1)
    parallel = run_simulation_jobs(workload, jobs, n_jobs=2)
    assert parallel == serial
    assert serial[0] != serial[1]  # different seeds, different runs


def test_resolve_n_jobs():
    assert resolve_n_jobs(None) == 1
    assert resolve_n_jobs(1) == 1
    assert resolve_n_jobs(3) == 3
    assert resolve_n_jobs(-1) >= 1
    assert resolve_n_jobs(0) == resolve_n_jobs(-1)
    with pytest.raises(ConfigurationError):
        resolve_n_jobs(-2)


class _CrashOnceFactory:
    """Picklable factory that hard-kills the first worker to call it.

    The sentinel file marks that the crash already happened, so the retry
    pool's workers build a normal PB policy — simulating a transient
    worker death (OOM kill) that a single respawn recovers from.
    """

    def __init__(self, sentinel: str):
        self.sentinel = sentinel

    def __call__(self):
        if not os.path.exists(self.sentinel):
            with open(self.sentinel, "w"):
                pass
            os._exit(1)
        return make_policy("PB")


class _CrashAlwaysFactory:
    """Picklable factory that hard-kills every worker that calls it."""

    def __call__(self):  # pragma: no cover - dies before returning
        os._exit(1)


def test_worker_crash_is_retried_once_on_a_fresh_pool(
    workload, sim_config, tmp_path, monkeypatch
):
    monkeypatch.setattr(parallel_mod, "_RETRY_BACKOFF_S", 0.0)
    crashing = replication_jobs(
        sim_config, _CrashOnceFactory(str(tmp_path / "crashed")), num_runs=3
    )
    survived = run_simulation_jobs(workload, crashing, n_jobs=2)
    baseline = run_simulation_jobs(
        workload, replication_jobs(sim_config, PolicySpec("PB"), num_runs=3), n_jobs=1
    )
    # The sweep survives the crash and still matches the serial results
    # exactly — retried jobs rerun with their original seeds.
    assert survived == baseline


def test_jobs_crashing_twice_abort_with_their_indices(
    workload, sim_config, monkeypatch
):
    monkeypatch.setattr(parallel_mod, "_RETRY_BACKOFF_S", 0.0)
    jobs = replication_jobs(sim_config, _CrashAlwaysFactory(), num_runs=2)
    with pytest.raises(SimulationError, match="worker crashes"):
        run_simulation_jobs(workload, jobs, n_jobs=2)


def test_job_raised_exceptions_propagate_without_retry(
    workload, sim_config, monkeypatch
):
    """Deterministic job errors must not be retried (they would just repeat)."""
    attempts = []
    real_run_pool = parallel_mod._run_pool

    def counting_run_pool(jobs, workers, workload, execute):
        attempts.append(len(jobs))
        return real_run_pool(jobs, workers, workload, execute)

    monkeypatch.setattr(parallel_mod, "_run_pool", counting_run_pool)
    bad_config = sim_config  # valid config; the factory itself raises
    jobs = [
        SimulationJob(config=bad_config, policy_factory=_RaisingFactory())
        for _ in range(2)
    ]
    with pytest.raises(RuntimeError, match="deterministic failure"):
        run_simulation_jobs(workload, jobs, n_jobs=2)
    assert attempts == [2]  # one pool, no retry


class _RaisingFactory:
    """Picklable factory that raises (worker survives, future errors)."""

    def __call__(self):
        raise RuntimeError("deterministic failure")


def test_policy_spec_is_picklable_and_equivalent():
    for name in POLICY_REGISTRY:
        spec = pickle.loads(pickle.dumps(PolicySpec(name)))
        assert type(spec()) is type(make_policy(name))
    hybrid = pickle.loads(pickle.dumps(PolicySpec("PB", estimator_e=0.4)))
    assert hybrid().estimator_e == 0.4


# ----------------------------------------------------------------------
# Heap-compaction invariants (property-based).
# ----------------------------------------------------------------------
def _check_heap_invariants(policy, store):
    # Store accounting is sound and mirrors the policy's utility map.
    assert store.verify_consistency()
    assert set(policy._utilities) == set(store.object_ids())
    # Every live-entry pointer refers to a tracked object.
    assert set(policy._entry_seq) <= set(policy._utilities)
    # Each tracked-live object has exactly one live heap entry, and that
    # entry's key equals the utilities map.
    live_seen = {}
    for utility, seq, object_id in policy._heap:
        if policy._entry_seq.get(object_id) == seq:
            assert object_id not in live_seen
            live_seen[object_id] = utility
    assert set(live_seen) == set(policy._entry_seq)
    for object_id, utility in live_seen.items():
        assert policy._utilities[object_id] == utility
    # Compaction bounds the heap: at most ~50% stale entries plus slack.
    assert len(policy._heap) <= 2 * len(policy._entry_seq) + policy._COMPACTION_SLACK + 2


@settings(max_examples=60, deadline=None)
@given(
    policy_name=st.sampled_from(sorted(POLICY_REGISTRY)),
    stream=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=19),
            st.floats(min_value=1.0, max_value=200.0),
        ),
        max_size=120,
    ),
)
def test_heap_and_utilities_stay_consistent(policy_name, stream):
    objects = [
        MediaObject(
            object_id=i,
            duration=30.0 + 7.0 * i,
            bitrate=48.0,
            server_id=i % 3,
            value=1.0 + (i % 5),
        )
        for i in range(20)
    ]
    policy = make_policy(policy_name)
    store = CacheStore(capacity_kb=4_000.0)
    policy.install(store, Catalog(objects))
    now = 0.0
    for object_index, bandwidth in stream:
        now += 1.0
        policy.on_request(objects[object_index], bandwidth, now, store)
        _check_heap_invariants(policy, store)


def test_held_requester_entry_survives_blocked_eviction():
    """Regression: the requester's heap entry must survive a blocked plan.

    When the requester itself has the lowest utility, the eviction loop pops
    its held-aside entry off the heap; a blocked early return must reinstate
    it (same sequence number, same position) so the object remains evictable
    by later, higher-utility requests.
    """
    cold = MediaObject(object_id=1, duration=100.0, bitrate=10.0)  # 1000 KB
    hot = MediaObject(object_id=2, duration=100.0, bitrate=10.0)
    mid = MediaObject(object_id=3, duration=100.0, bitrate=10.0)
    policy = make_policy("PB")  # partial; utility F/b, target (r - b) T
    store = CacheStore(capacity_kb=1_000.0)
    policy.install(store, Catalog([cold, hot, mid]))
    # Fill the cache: cold caches 500 KB (utility 1/5), hot caches 500 KB
    # and is re-requested to utility 5/5 = 1.0.
    policy.on_request(cold, 5.0, 0.0, store)
    for step in range(5):
        policy.on_request(hot, 5.0, 1.0 + step, store)
    assert store.cached_bytes(1) == 500.0 and store.cached_bytes(2) == 500.0
    # cold re-requests on a slower path: target grows to 600 KB, utility
    # refreshes to 2/4 = 0.5 — the heap minimum — and the eviction plan is
    # blocked by hot (1.0).  The loop pops cold's own entry before hot's.
    policy.on_request(cold, 4.0, 10.0, store)
    _check_heap_invariants(policy, store)
    assert store.cached_bytes(1) == 500.0  # unchanged, still tracked
    # mid's frequency climbs past cold's utility: it must evict cold.
    for step in range(3):
        policy.on_request(mid, 5.0, 20.0 + step, store)
        _check_heap_invariants(policy, store)
    assert store.cached_bytes(3) == 500.0
    assert store.cached_bytes(1) == 0.0


def test_compaction_bounds_heap_under_repeated_refreshes():
    """Re-keying one hot object forever must not grow the heap unboundedly."""
    obj = MediaObject(object_id=0, duration=60.0, bitrate=48.0)
    policy = make_policy("LFU")
    store = CacheStore(capacity_kb=10_000.0)
    policy.install(store, Catalog([obj]))
    for step in range(5_000):
        policy.on_request(obj, 10.0, float(step), store)
    stats = policy.heap_statistics()
    assert stats["live_entries"] == 1
    assert stats["size"] <= 2 * 1 + policy._COMPACTION_SLACK + 1
    assert stats["compactions"] > 0
    assert stats["peak_size"] <= 2 * 1 + policy._COMPACTION_SLACK + 1
