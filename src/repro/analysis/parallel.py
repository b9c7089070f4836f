"""Parallel experiment orchestration.

Every data point in the paper's figures averages several independent
simulation runs, and the sweeps multiply that by policies and cache sizes —
an embarrassingly parallel grid of ``(seed, policy, sweep-point)`` jobs.
Every multi-run caller (:mod:`repro.sim.runner`, the experiments) submits
that grid here as one list of :class:`SimulationJob` objects.  One worker
runs it in-process; more fan it out over a :class:`~concurrent.futures.
ProcessPoolExecutor`.  The results are **deterministic**: each job
carries its own fully-resolved :class:`~repro.sim.config.SimulationConfig`
(seed included) and results come back in submission order, so every
average adds its operands in the same order and ``n_jobs=4`` produces
byte-identical tables to ``n_jobs=1``.

Design notes
------------
* The (potentially large) workload reaches each worker **once**, as the
  argument of the executor's initializer, rather than being pickled into
  every job: a forked worker inherits it with no copy, and a spawned or
  forkserver worker unpickles it once.
* Jobs that share a topology (policy comparisons) rebuild it inside the
  worker from the job's seed — bandwidth assignment is a deterministic
  function of the seed, so every policy still faces identical network
  conditions without any cross-process coordination.
* A job returns the run's whole :class:`~repro.sim.simulator.
  SimulationResult`, reports and timeline included.
* Policy factories must be picklable for ``n_jobs > 1``; use
  :class:`~repro.core.policies.registry.PolicySpec` instead of lambdas.
* A worker crash (OOM kill, segfault) breaks the whole pool and fails every
  in-flight future collectively; rather than losing the sweep, the crashed
  jobs are retried **once** on a fresh pool after a jittered backoff, and
  only jobs that crash twice abort the sweep — with their indices named in
  the error.  Job-raised exceptions still propagate immediately: those are
  deterministic, and a retry would only repeat them.
"""

from __future__ import annotations

import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, SimulationError
from repro.sim.config import SimulationConfig
from repro.sim.hierarchy import HierarchyReport
from repro.sim.metrics import MetricsCollector, SimulationMetrics
from repro.sim.simulator import ProxyCacheSimulator, SimulationResult
from repro.workload.gismo import Workload


@dataclass(frozen=True)
class SimulationJob:
    """One fully-specified simulation run.

    Attributes
    ----------
    config:
        The run's configuration with its *final* seed and cache size — seed
        assignment happens when the job grid is built, never inside a
        worker, so the schedule is independent of execution order.
    policy_factory:
        Zero-argument callable producing a fresh policy instance.  Must be
        picklable when the job is executed in a worker process.
    share_topology:
        When True the worker pre-builds the topology from a dedicated
        generator seeded with ``config.seed`` (the protocol
        :func:`~repro.sim.runner.compare_policies` uses so every policy sees
        identical bandwidth assignments); when False the simulator draws the
        topology inside :meth:`~repro.sim.simulator.ProxyCacheSimulator.run`
        (the :func:`~repro.sim.runner.run_replications` protocol).
    """

    config: SimulationConfig
    policy_factory: Callable[[], object]
    share_topology: bool = True


#: Workload installed in each worker process by the pool initializer.
_WORKER_WORKLOAD: Optional[Workload] = None


def _init_worker(workload: Workload) -> None:
    global _WORKER_WORKLOAD
    _WORKER_WORKLOAD = workload


def _execute_job(job: SimulationJob) -> SimulationResult:
    """Run one job against the worker's installed workload."""
    workload = _WORKER_WORKLOAD
    if workload is None:  # pragma: no cover - defensive
        raise ConfigurationError("worker has no workload installed")
    simulator = ProxyCacheSimulator(workload, job.config)
    topology = None
    if job.share_topology:
        topology = simulator.build_topology(np.random.default_rng(job.config.seed))
    return simulator.run(job.policy_factory(), topology=topology)


#: Base pause (seconds) before respawning a pool after a worker crash; the
#: actual wait is jittered to ``[1x, 2x)`` of this.
_RETRY_BACKOFF_S = 0.5


def _run_pool(
    jobs: Sequence[object],
    workers: int,
    workload: Workload,
    execute: Callable = _execute_job,
) -> Tuple[Dict[int, object], List[int]]:
    """Run jobs on one process pool, absorbing worker-crash failures.

    Each worker receives ``workload`` once, through the pool initializer.
    ``execute`` is the module-level function each job is submitted
    through (:func:`_execute_job` for metric sweeps,
    :func:`_execute_fleet_shard` for sharded fleet replay — it must be
    picklable).  Returns ``(results_by_index, crashed_indices)``.  A
    crashed worker breaks the whole
    :class:`~concurrent.futures.ProcessPoolExecutor` (every in-flight
    future fails with :class:`BrokenProcessPool`), so the crashed indices
    are collected for the caller to retry instead of aborting the sweep.
    Ordinary exceptions raised *by a job* (a misconfigured simulation,
    say) propagate unchanged — those are deterministic and retrying
    cannot fix them.
    """
    results: Dict[int, object] = {}
    crashed: List[int] = []
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(workload,)
    ) as executor:
        try:
            futures = [executor.submit(execute, job) for job in jobs]
        except BrokenProcessPool:
            # The pool died during submission (initializer crash): nothing
            # ran, everything is retryable.
            return results, list(range(len(jobs)))
        for index, future in enumerate(futures):
            try:
                results[index] = future.result()
            except BrokenProcessPool:
                crashed.append(index)
    return results, crashed


def resolve_n_jobs(n_jobs: Optional[int]) -> int:
    """Normalise an ``n_jobs`` argument to a concrete worker count.

    ``None`` and ``1`` mean one worker, in-process; ``-1`` (or ``0``)
    means one worker per available CPU; positive values are taken as-is.
    """
    if n_jobs is None:
        return 1
    n_jobs = int(n_jobs)
    if n_jobs in (0, -1):
        return max(os.cpu_count() or 1, 1)
    if n_jobs < -1:
        raise ConfigurationError(f"n_jobs must be >= -1, got {n_jobs}")
    return n_jobs


def run_simulation_results(
    workload: Workload,
    jobs: Sequence[SimulationJob],
    n_jobs: Optional[int] = 1,
) -> List[SimulationResult]:
    """Execute a grid of simulation jobs, in-process or on a process pool.

    Returns each job's whole :class:`~repro.sim.simulator.SimulationResult`
    in job order regardless of completion order, so any downstream
    averaging is order-stable and the output is independent of ``n_jobs``.
    """
    return _dispatch_jobs(workload, jobs, n_jobs, _execute_job)


def run_simulation_jobs(
    workload: Workload,
    jobs: Sequence[SimulationJob],
    n_jobs: Optional[int] = 1,
) -> List[SimulationMetrics]:
    """The metrics of :func:`run_simulation_results`, one per job, in job order."""
    return [
        result.metrics for result in run_simulation_results(workload, jobs, n_jobs)
    ]


def _dispatch_jobs(
    workload: Workload,
    jobs: Sequence[object],
    n_jobs: Optional[int],
    execute: Callable,
) -> List[object]:
    """Shared dispatch core of the job-grid and fleet-shard entry points.

    Handles the one-worker in-process path and the crash-retry protocol
    identically for every job type; ``execute`` is the module-level
    per-job function submitted to the pool.  Results come back in job
    order regardless of completion order.
    """
    jobs = list(jobs)
    if not jobs:
        return []
    workers = min(resolve_n_jobs(n_jobs), len(jobs))
    if workers <= 1:
        global _WORKER_WORKLOAD
        previous = _WORKER_WORKLOAD
        _init_worker(workload)
        try:
            return [execute(job) for job in jobs]
        finally:
            _WORKER_WORKLOAD = previous

    results, broken = _run_pool(jobs, workers, workload, execute)
    if broken:
        # A worker process died (OOM kill, segfault, machine hiccup) and
        # took the whole pool with it — every job still in flight failed
        # collectively, not individually.  One deliberate retry on a fresh
        # pool salvages the sweep from a transient crash; the jittered
        # pause keeps respawned workers from slamming into the same memory
        # spike in lockstep.
        time.sleep(_RETRY_BACKOFF_S * (1.0 + random.random()))
        retried, still_broken = _run_pool(
            [jobs[index] for index in broken],
            min(workers, len(broken)),
            workload,
            execute,
        )
        for position, index in enumerate(broken):
            if position in retried:
                results[index] = retried[position]
        if still_broken:
            failed = sorted(broken[position] for position in still_broken)
            raise SimulationError(
                f"{len(failed)} of {len(jobs)} simulation jobs lost to "
                f"worker crashes even after a retry on a fresh pool "
                f"(job indices {failed[:10]}"
                + ("..." if len(failed) > 10 else "")
                + "); the workload may not fit the configured worker count"
            )
    return [results[index] for index in range(len(jobs))]


def replication_jobs(
    config: SimulationConfig,
    policy_factory: Callable[[], object],
    num_runs: int,
    share_topology: bool = False,
) -> List[SimulationJob]:
    """The deterministic seed schedule of a replication experiment.

    Run ``i`` uses seed ``config.seed + i``, fixed when the grid is built,
    so every ``n_jobs`` replays the identical experiment.
    """
    if num_runs <= 0:
        raise ConfigurationError(f"num_runs must be positive, got {num_runs}")
    return [
        SimulationJob(
            config=config.with_seed(config.seed + run_index),
            policy_factory=policy_factory,
            share_topology=share_topology,
        )
        for run_index in range(num_runs)
    ]


# ----------------------------------------------------------------------
# Sharded fleet replay (hierarchy pops as independent processes).
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FleetShardJob:
    """One pop-group's slice of a fleet replay.

    The worker selects the clients with ``client_id % num_shards ==
    shard`` from its installed workload trace
    (:meth:`~repro.trace.columnar.ColumnarTrace.client_shard`) — the same
    affinity rule that pins clients to hierarchy pops — and replays only
    that slice.  Shipping ``(shard, num_shards)`` instead of the
    sub-trace keeps the per-job cost independent of trace length: the
    full trace reaches each worker once, and each worker's selection is
    a local mask over its columns.
    """

    config: SimulationConfig
    policy_factory: Callable[[], object]
    shard: int
    num_shards: int


def _execute_fleet_shard(job: FleetShardJob) -> SimulationResult:
    """Replay one client shard against the worker's installed workload.

    The topology is built from a dedicated generator seeded with the
    config seed — a deterministic function of the seed and the (shared)
    catalog — so every shard faces identical per-server bandwidth
    assignments, exactly as one process replaying the whole trace would.
    """
    workload = _WORKER_WORKLOAD
    if workload is None:  # pragma: no cover - defensive
        raise ConfigurationError("worker has no workload installed")
    shard_trace = workload.trace.client_shard(job.shard, job.num_shards)
    shard_workload = replace(workload, trace=shard_trace)
    simulator = ProxyCacheSimulator(shard_workload, job.config)
    topology = simulator.build_topology(np.random.default_rng(job.config.seed))
    return simulator.run(job.policy_factory(), topology=topology)


def merge_shard_results(
    shard_results: Sequence[Tuple[int, SimulationResult]],
) -> SimulationResult:
    """Deterministically reduce per-shard results into one fleet result.

    Accepts ``(shard_index, result)`` pairs in **any** order — workers
    complete unpredictably — and first sorts by shard index, so the
    floating-point accumulation order is a function of the shard
    partition alone and the merged result is bit-identical under every
    completion permutation.

    The reduction reconstructs each shard's metric accumulators from its
    finalized averages (``sum = average x count``), merges them through
    the same :class:`~repro.sim.metrics.MetricsCollector` the replay
    loops feed, and re-applies :meth:`~repro.sim.metrics.
    MetricsCollector.finalize` — so every derived ratio is recomputed
    over fleet-wide totals rather than averaged across shards.
    Hierarchy reports merge tier-by-tier
    (:meth:`~repro.sim.hierarchy.HierarchyReport.merge`); the per-run
    diagnostic blocks that have no cross-process meaning (timeline,
    profile, fault and streaming reports, heap statistics) are dropped
    from the merged result and remain readable per shard.
    """
    if not shard_results:
        raise ConfigurationError("cannot merge an empty list of shard results")
    ordered = sorted(shard_results, key=lambda pair: pair[0])
    results = [result for _, result in ordered]
    collector = MetricsCollector(measuring=True)
    for result in results:
        metrics = result.metrics
        requests = metrics.requests
        delayed = round(metrics.delayed_request_ratio * requests)
        collector.absorb(
            requests=requests,
            bytes_from_cache=metrics.bytes_from_cache_gb * 1_000_000.0,
            bytes_from_server=metrics.bytes_from_server_gb * 1_000_000.0,
            delay_sum=metrics.average_service_delay * requests,
            quality_sum=metrics.average_stream_quality * requests,
            value_sum=metrics.total_added_value,
            hits=round(metrics.hit_ratio * requests),
            immediate=round(metrics.immediate_service_ratio * requests),
            delayed=delayed,
            delay_sum_delayed=metrics.average_delay_among_delayed * delayed,
            warmup_requests=result.warmup_requests,
            failed=metrics.failed_requests,
            stale_served=metrics.stale_served_requests,
            retried=metrics.retried_requests,
            total_retries=metrics.total_retries,
        )
    reports = [result.hierarchy_report for result in results]
    merged_report = (
        HierarchyReport.merge(reports) if all(r is not None for r in reports) else None
    )
    reference = results[0]
    return SimulationResult(
        metrics=collector.finalize(),
        policy_name=reference.policy_name,
        config=reference.config,
        # Every shard runs the same cache capacities, so the fleet-wide
        # occupancy (total used / total capacity) is the plain mean.
        final_cache_occupancy=(
            sum(result.final_cache_occupancy for result in results) / len(results)
        ),
        final_cached_objects=sum(result.final_cached_objects for result in results),
        warmup_requests=sum(result.warmup_requests for result in results),
        auxiliary_events_fired=sum(
            result.auxiliary_events_fired for result in results
        ),
        hierarchy_report=merged_report,
    )


@dataclass(frozen=True)
class FleetReplayResult:
    """Outcome of :func:`run_sharded_fleet`.

    ``merged`` is the deterministic fleet-wide reduction; ``shard_results``
    keeps each shard's full :class:`~repro.sim.simulator.SimulationResult`
    (in shard order) for per-pop inspection.
    """

    merged: SimulationResult
    shard_results: Tuple[SimulationResult, ...]
    num_shards: int


def run_sharded_fleet(
    workload: Workload,
    config: SimulationConfig,
    policy_factory: Callable[[], object],
    num_shards: int,
    n_jobs: Optional[int] = 1,
) -> FleetReplayResult:
    """Replay a workload as ``num_shards`` client-group shards and reduce.

    Each shard replays the clients with ``client_id % num_shards ==
    shard`` in its own job — in-process when ``n_jobs`` resolves to one
    worker, otherwise across a process pool that receives the workload
    the way :func:`run_simulation_jobs` does.  The merged result is
    produced by :func:`merge_shard_results` and is identical for every
    ``n_jobs``: the partition, each shard's replay, and the reduction
    order are all deterministic in ``config.seed``.

    Hierarchy configs compose per shard — every shard runs its own full
    tier chain, so a pop's caches see only its own clients' requests, as
    in :mod:`repro.sim.hierarchy`; ``sibling_lookup`` couples pops
    cross-shard and is therefore rejected here.

    The merged result does not equal the whole trace's replay.  Each shard
    is a replay of its own: it measures what follows its own warm-up
    (``int(warmup_fraction * len(shard))`` requests), draws its own
    bandwidth ratios and runs its own estimator.
    """
    if num_shards <= 0:
        raise ConfigurationError(
            f"num_shards must be positive, got {num_shards}"
        )
    if config.hierarchy is not None and config.hierarchy.sibling_lookup:
        raise ConfigurationError(
            "sharded fleet replay cannot run with sibling_lookup: sibling "
            "reads couple pops across shard boundaries, so the partition "
            "would change the result; run single-process or disable "
            "sibling lookups"
        )
    jobs = [
        FleetShardJob(
            config=config,
            policy_factory=policy_factory,
            shard=shard,
            num_shards=num_shards,
        )
        for shard in range(num_shards)
    ]
    results = _dispatch_jobs(workload, jobs, n_jobs, _execute_fleet_shard)
    merged = merge_shard_results(list(enumerate(results)))
    return FleetReplayResult(
        merged=merged,
        shard_results=tuple(results),
        num_shards=num_shards,
    )
