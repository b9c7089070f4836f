"""Parallel orchestration determinism and heap-compaction invariants.

Two guarantees are pinned here:

* fanning experiment runs out over worker processes (``n_jobs > 1``) yields
  **exactly** the results of the serial loops — same seeds, same topologies,
  same averaging order, compared with strict equality, and
* the policy priority heap's generation scheme and amortised compaction
  keep the utilities map, the live-entry index, and the heap consistent
  under arbitrary request streams (property-based).
"""

import os
import pickle

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.analysis import parallel as parallel_mod
from repro.analysis.parallel import (
    SimulationJob,
    replication_jobs,
    resolve_n_jobs,
    run_simulation_jobs,
)
from repro.core.policies import POLICY_REGISTRY, PolicySpec, make_policy
from repro.core.store import CacheStore
from repro.exceptions import ConfigurationError, SimulationError
from repro.network.variability import NLANRRatioVariability
from repro.sim.config import SimulationConfig
from repro.sim.runner import compare_policies, run_replications, sweep_cache_sizes
from repro.workload.catalog import Catalog, MediaObject
from repro.workload.gismo import GismoWorkloadGenerator, WorkloadConfig

HEADLINE_METRICS = (
    "traffic_reduction_ratio",
    "average_service_delay",
    "average_stream_quality",
    "total_added_value",
    "hit_ratio",
)


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
# Parallel == serial, exactly.
# ----------------------------------------------------------------------
def test_run_replications_parallel_matches_serial(workload, sim_config):
    serial = run_replications(workload, PolicySpec("PB"), sim_config, num_runs=3)
    parallel = run_replications(
        workload, PolicySpec("PB"), sim_config, num_runs=3, n_jobs=2
    )
    assert parallel == serial


def test_compare_policies_parallel_matches_serial(workload, sim_config):
    factories = {name: PolicySpec(name) for name in ("IF", "PB", "IB-V")}
    serial = compare_policies(workload, factories, sim_config, num_runs=2)
    parallel = compare_policies(workload, factories, sim_config, num_runs=2, n_jobs=4)
    assert serial.policies() == parallel.policies()
    for name in factories:
        assert parallel.metrics_by_policy[name] == serial.metrics_by_policy[name]


def test_sweep_cache_sizes_parallel_is_byte_identical(workload, sim_config):
    factories = {name: PolicySpec(name) for name in ("PB", "IB")}
    sizes = [0.2, 0.6]
    serial = sweep_cache_sizes(workload, factories, sizes, sim_config, num_runs=2)
    parallel = sweep_cache_sizes(
        workload, factories, sizes, sim_config, num_runs=2, n_jobs=4
    )
    assert parallel.parameter_name == serial.parameter_name
    assert parallel.parameter_values == serial.parameter_values
    assert parallel.policies() == serial.policies()
    for metric in HEADLINE_METRICS:
        assert parallel.as_table(metric) == serial.as_table(metric)


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
