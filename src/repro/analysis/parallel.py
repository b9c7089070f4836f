"""Parallel experiment orchestration.

Every data point in the paper's figures averages several independent
simulation runs, and the sweeps multiply that by policies and cache sizes —
an embarrassingly parallel grid of ``(seed, policy, sweep-point)`` jobs.
This module fans those jobs out over a :class:`~concurrent.futures.
ProcessPoolExecutor` while keeping the results **deterministic**: each job
carries its own fully-resolved :class:`~repro.sim.config.SimulationConfig`
(seed included), results are re-assembled in submission order, and averages
are computed in exactly the order the serial loops use — so ``n_jobs=4``
produces byte-identical tables to ``n_jobs=1``.

Design notes
------------
* The (potentially large) workload is shipped to each worker **once**, via
  the executor's initializer, rather than being pickled into every job.
* When the workload carries a :class:`~repro.trace.columnar.ColumnarTrace`
  (or ``transport="shm"`` forces a conversion), the trace is published once
  into POSIX shared memory (:mod:`repro.trace.shm`) and workers attach
  zero-copy by name — the initializer then pickles only the catalog and a
  tiny descriptor, so fan-out cost no longer scales with trace length.
  The segment is unlinked in a ``finally`` even when workers crash, and the
  transport silently falls back to pickling when shared memory is
  unavailable.
* Jobs that share a topology (policy comparisons) rebuild it inside the
  worker from the job's seed — bandwidth assignment is a deterministic
  function of the seed, so every policy still faces identical network
  conditions without any cross-process coordination.
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
from repro.trace.columnar import ColumnarTrace
from repro.trace.shm import (
    SharedTraceDescriptor,
    attach_trace,
    publish_trace,
    shm_available,
)
from repro.workload.gismo import Workload

#: Accepted values of the ``transport`` argument of
#: :func:`run_simulation_jobs`.
TRANSPORTS = ("auto", "shm", "pickle")

#: Below this trace payload size, ``transport="auto"`` pickles instead of
#: publishing to shared memory: for small traces the segment create/copy/
#: attach round-trip costs more than the pickling it saves.  4 MiB is about
#: a 200k-request trace.  ``transport="shm"`` forces shared memory at any
#: size.
SHM_MIN_TRACE_BYTES = 4 * 1024 * 1024


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


def _init_worker_shm(
    catalog,
    config,
    expected_rates,
    descriptor: SharedTraceDescriptor,
) -> None:
    """Pool initializer for the shared-memory transport.

    Receives everything *except* the trace by pickle and attaches to the
    published trace by name; the reconstructed workload's trace columns are
    zero-copy views on the shared block, which the trace's owner reference
    keeps mapped for the worker's lifetime.
    """
    global _WORKER_WORKLOAD
    _WORKER_WORKLOAD = Workload(
        catalog=catalog,
        trace=attach_trace(descriptor),
        config=config,
        expected_rates=expected_rates,
    )


def _execute_job(job: SimulationJob) -> SimulationMetrics:
    """Run one job against the worker's installed workload."""
    workload = _WORKER_WORKLOAD
    if workload is None:  # pragma: no cover - defensive
        raise ConfigurationError("worker has no workload installed")
    simulator = ProxyCacheSimulator(workload, job.config)
    topology = None
    if job.share_topology:
        topology = simulator.build_topology(np.random.default_rng(job.config.seed))
    result = simulator.run(job.policy_factory(), topology=topology)
    return result.metrics


#: Base pause (seconds) before respawning a pool after a worker crash; the
#: actual wait is jittered to ``[1x, 2x)`` of this.
_RETRY_BACKOFF_S = 0.5


def _run_pool(
    jobs: Sequence[object],
    workers: int,
    initializer: Callable,
    initargs: tuple,
    execute: Callable = _execute_job,
) -> Tuple[Dict[int, object], List[int]]:
    """Run jobs on one process pool, absorbing worker-crash failures.

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
        max_workers=workers, initializer=initializer, initargs=initargs
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

    ``None`` and ``1`` mean serial; ``-1`` (or ``0``) means one worker per
    available CPU; positive values are taken as-is.
    """
    if n_jobs is None:
        return 1
    n_jobs = int(n_jobs)
    if n_jobs in (0, -1):
        return max(os.cpu_count() or 1, 1)
    if n_jobs < -1:
        raise ConfigurationError(f"n_jobs must be >= -1, got {n_jobs}")
    return n_jobs


def run_simulation_jobs(
    workload: Workload,
    jobs: Sequence[SimulationJob],
    n_jobs: Optional[int] = 1,
    transport: str = "auto",
) -> List[SimulationMetrics]:
    """Execute a grid of simulation jobs, serially or on a process pool.

    Results are returned in job order regardless of completion order, so
    any downstream averaging is order-stable and the output is independent
    of ``n_jobs`` and ``transport``.

    ``transport`` selects how the workload reaches the workers:

    * ``"auto"`` (default) — shared memory when the trace is columnar, at
      least :data:`SHM_MIN_TRACE_BYTES` big, and the platform supports it;
      pickling otherwise;
    * ``"shm"`` — force shared memory, converting an object trace to
      columnar first (raises if shared memory is unusable);
    * ``"pickle"`` — always pickle the whole workload into the pool
      initializer (the pre-shm behaviour).
    """
    return _dispatch_jobs(workload, jobs, n_jobs, transport, _execute_job)


def _dispatch_jobs(
    workload: Workload,
    jobs: Sequence[object],
    n_jobs: Optional[int],
    transport: str,
    execute: Callable,
) -> List[object]:
    """Shared dispatch core of the job-grid and fleet-shard entry points.

    Handles transport validation, the serial in-process shortcut, the
    shared-memory publish/attach round-trip, and the crash-retry protocol
    identically for every job type; ``execute`` is the module-level
    per-job function submitted to the pool.  Results come back in job
    order regardless of completion order.
    """
    if transport not in TRANSPORTS:
        raise ConfigurationError(
            f"transport must be one of {TRANSPORTS}, got {transport!r}"
        )
    if transport == "shm" and not shm_available():
        # Checked before the serial shortcut so the contract holds for
        # every worker count, not only when a pool is actually spawned.
        raise ConfigurationError(
            "transport='shm' requested but multiprocessing.shared_memory "
            "is unavailable on this platform"
        )
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

    shared = None
    if shm_available() and (
        transport == "shm"
        or (
            transport == "auto"
            and isinstance(workload.trace, ColumnarTrace)
            and workload.trace.nbytes >= SHM_MIN_TRACE_BYTES
        )
    ):
        try:
            shared = publish_trace(ColumnarTrace.from_trace(workload.trace))
        except (OSError, ConfigurationError):
            if transport == "shm":
                raise
            shared = None  # auto: fall back to pickling the workload

    if shared is not None:
        initializer, initargs = _init_worker_shm, (
            workload.catalog,
            workload.config,
            workload.expected_rates,
            shared.descriptor,
        )
    else:
        initializer, initargs = _init_worker, (workload,)
    try:
        results, broken = _run_pool(jobs, workers, initializer, initargs, execute)
        if broken:
            # A worker process died (OOM kill, segfault, machine hiccup)
            # and took the whole pool with it — every job still in flight
            # failed collectively, not individually.  One deliberate retry
            # on a fresh pool salvages the sweep from a transient crash;
            # the jittered pause keeps respawned workers from slamming
            # into the same memory spike in lockstep.
            time.sleep(_RETRY_BACKOFF_S * (1.0 + random.random()))
            retried, still_broken = _run_pool(
                [jobs[index] for index in broken],
                min(workers, len(broken)),
                initializer,
                initargs,
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
    finally:
        # Guaranteed reclamation of the shared segment, including when a
        # worker died mid-job and both pool attempts above raised.
        if shared is not None:
            shared.unlink()


def replication_jobs(
    config: SimulationConfig,
    policy_factory: Callable[[], object],
    num_runs: int,
    share_topology: bool = False,
) -> List[SimulationJob]:
    """The deterministic seed schedule of a replication experiment.

    Run ``i`` uses seed ``config.seed + i`` — the same assignment the serial
    loops use, so parallel execution replays the identical experiment.
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
    sub-trace keeps the fan-out cost independent of trace length: the
    full trace travels once (shared memory when columnar and large), and
    each worker's selection is a local mask over the attached columns.
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
    shard_trace = ColumnarTrace.from_trace(workload.trace).client_shard(
        job.shard, job.num_shards
    )
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
    transport: str = "auto",
) -> FleetReplayResult:
    """Replay a workload as ``num_shards`` client-group shards and reduce.

    Each shard replays the clients with ``client_id % num_shards ==
    shard`` in its own job — in-process when ``n_jobs`` resolves to one
    worker, otherwise across a process pool fed by the same workload
    transports as :func:`run_simulation_jobs` (shared memory for large
    columnar traces).  The merged result is produced by
    :func:`merge_shard_results` and is identical for every ``n_jobs`` and
    ``transport`` choice: the partition, each shard's replay, and the
    reduction order are all deterministic in ``config.seed``.

    Hierarchy configs compose per shard — every shard runs its own full
    tier chain, which matches the per-pop fleet semantics of
    :mod:`repro.sim.hierarchy` exactly as long as pops do not read each
    other's caches; ``sibling_lookup`` couples pops cross-shard and is
    therefore rejected here.
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
    results = _dispatch_jobs(workload, jobs, n_jobs, transport, _execute_fleet_shard)
    merged = merge_shard_results(list(enumerate(results)))
    return FleetReplayResult(
        merged=merged,
        shard_results=tuple(results),
        num_shards=num_shards,
    )
