"""Multi-run experiment execution: replications, comparisons, and sweeps.

Each data point in the paper's figures is the average of ten simulation
runs.  The helpers in this module organise that protocol:

* :func:`run_replications` — run one policy over several seeds and average,
* :func:`compare_policies` — run several policies over the *same* sequence
  of seeds (and, per seed, the same bandwidth assignment) so differences are
  attributable to the policies rather than to the draw of the network,
* :func:`sweep_cache_sizes` — the cache-size sweeps on the x-axis of
  Figures 5, 7, 8, 10, and 11.

All three accept ``n_jobs``: with ``n_jobs > 1`` the independent
``(seed, policy, sweep-point)`` runs fan out over a process pool
(:mod:`repro.analysis.parallel`) with a deterministic seed schedule and
order-stable averaging, so the results are byte-identical to the serial
ones.  Policy factories must then be picklable — use
:class:`~repro.core.policies.registry.PolicySpec` rather than lambdas.
They also accept ``transport`` (``"auto"``/``"shm"``/``"pickle"``), which
controls how the workload reaches the workers: columnar traces travel via
shared memory by default instead of being re-pickled per worker (see
:mod:`repro.trace.shm`).

Every run replays through
:meth:`~repro.sim.simulator.ProxyCacheSimulator.run` with the job's
config — including periodic bandwidth re-measurement
(:mod:`repro.sim.events`) when the config schedules it; a
:class:`~repro.sim.events.RemeasurementConfig` travels inside the pickled
:class:`~repro.sim.config.SimulationConfig`, so parallel and serial
execution stay byte-identical.  The same holds for fault injection: a
:class:`~repro.sim.faults.FaultConfig` on
:attr:`~repro.sim.config.SimulationConfig.faults` is a frozen, picklable
dataclass whose stochastic episodes are derived from ``(faults.seed,
config.seed)`` inside each worker, so a faulted sweep fans out exactly
like a healthy one (``docs/faults.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.sim.config import SimulationConfig
from repro.sim.metrics import SimulationMetrics
from repro.sim.simulator import ProxyCacheSimulator
from repro.workload.gismo import Workload

#: A zero-argument callable producing a fresh policy instance for each run.
PolicyFactory = Callable[[], object]


@dataclass
class PolicyComparison:
    """Averaged metrics per policy, measured on identical workloads/networks."""

    metrics_by_policy: Dict[str, SimulationMetrics] = field(default_factory=dict)

    def policies(self) -> List[str]:
        """Policy names in insertion order."""
        return list(self.metrics_by_policy.keys())

    def metric(self, metric_name: str) -> Dict[str, float]:
        """Extract one metric for every policy, e.g. ``traffic_reduction_ratio``."""
        return {
            policy: getattr(metrics, metric_name)
            for policy, metrics in self.metrics_by_policy.items()
        }

    def best_policy(self, metric_name: str, maximize: bool = True) -> str:
        """Name of the policy with the best value of ``metric_name``."""
        values = self.metric(metric_name)
        chooser = max if maximize else min
        return chooser(values, key=values.get)


@dataclass
class SweepResult:
    """Metrics per policy per swept parameter value (e.g. cache size)."""

    parameter_name: str
    parameter_values: List[float]
    metrics: Dict[str, List[SimulationMetrics]] = field(default_factory=dict)

    def series(self, policy: str, metric_name: str) -> List[float]:
        """The y-values of one policy's curve for one metric."""
        return [getattr(point, metric_name) for point in self.metrics[policy]]

    def policies(self) -> List[str]:
        """Policy names present in the sweep."""
        return list(self.metrics.keys())

    def as_table(self, metric_name: str) -> List[Dict[str, float]]:
        """Rows of ``{parameter, policy_a, policy_b, ...}`` for reporting."""
        rows = []
        for index, value in enumerate(self.parameter_values):
            row: Dict[str, float] = {self.parameter_name: value}
            for policy in self.metrics:
                row[policy] = getattr(self.metrics[policy][index], metric_name)
            rows.append(row)
        return rows


def run_replications(
    workload: Workload,
    policy_factory: PolicyFactory,
    config: SimulationConfig,
    num_runs: int = 10,
    n_jobs: int = 1,
    transport: str = "auto",
) -> SimulationMetrics:
    """Run one policy ``num_runs`` times with different seeds and average."""
    if num_runs <= 0:
        raise ConfigurationError(f"num_runs must be positive, got {num_runs}")
    if n_jobs is not None and n_jobs != 1:
        # Imported lazily: repro.analysis imports this module at package
        # initialisation, so a top-level import would be circular.
        from repro.analysis.parallel import replication_jobs, run_simulation_jobs

        jobs = replication_jobs(config, policy_factory, num_runs, share_topology=False)
        return SimulationMetrics.average(
            run_simulation_jobs(workload, jobs, n_jobs, transport=transport)
        )
    results: List[SimulationMetrics] = []
    for run_index in range(num_runs):
        run_config = config.with_seed(config.seed + run_index)
        simulator = ProxyCacheSimulator(workload, run_config)
        result = simulator.run(policy_factory())
        results.append(result.metrics)
    return SimulationMetrics.average(results)


def compare_policies(
    workload: Workload,
    policy_factories: Mapping[str, PolicyFactory],
    config: SimulationConfig,
    num_runs: int = 3,
    n_jobs: int = 1,
    transport: str = "auto",
) -> PolicyComparison:
    """Run several policies over the same seeds and network assignments.

    For each seed the topology (per-server base bandwidths) is drawn once
    and shared by all policies, so every policy faces exactly the same
    network conditions; the per-request variability draws are also identical
    because each run re-seeds its generator with the same value.  With
    ``n_jobs > 1`` each worker rebuilds the topology deterministically from
    the job's seed, preserving that protocol exactly.
    """
    if not policy_factories:
        raise ConfigurationError("policy_factories must be non-empty")
    if num_runs <= 0:
        raise ConfigurationError(f"num_runs must be positive, got {num_runs}")

    per_policy: Dict[str, List[SimulationMetrics]] = {
        name: [] for name in policy_factories
    }
    if n_jobs is not None and n_jobs != 1:
        from repro.analysis.parallel import SimulationJob, run_simulation_jobs

        jobs = []
        order: List[str] = []
        for run_index in range(num_runs):
            run_config = config.with_seed(config.seed + run_index)
            for name, factory in policy_factories.items():
                jobs.append(
                    SimulationJob(
                        config=run_config,
                        policy_factory=factory,
                        share_topology=True,
                    )
                )
                order.append(name)
        results = run_simulation_jobs(workload, jobs, n_jobs, transport=transport)
        for name, metrics in zip(order, results):
            per_policy[name].append(metrics)
    else:
        for run_index in range(num_runs):
            run_config = config.with_seed(config.seed + run_index)
            simulator = ProxyCacheSimulator(workload, run_config)
            topology = simulator.build_topology(np.random.default_rng(run_config.seed))
            for name, factory in policy_factories.items():
                result = simulator.run(factory(), topology=topology)
                per_policy[name].append(result.metrics)

    comparison = PolicyComparison()
    for name, metrics_list in per_policy.items():
        comparison.metrics_by_policy[name] = SimulationMetrics.average(metrics_list)
    return comparison


def sweep_cache_sizes(
    workload: Workload,
    policy_factories: Mapping[str, PolicyFactory],
    cache_sizes_gb: Sequence[float],
    config: Optional[SimulationConfig] = None,
    num_runs: int = 3,
    n_jobs: int = 1,
    transport: str = "auto",
) -> SweepResult:
    """Sweep the cache size, comparing all policies at each point.

    With ``n_jobs > 1`` the *entire* ``(cache size, seed, policy)`` grid is
    flattened into one job list before fan-out, so parallelism is not capped
    by the number of runs at a single sweep point.
    """
    if not cache_sizes_gb:
        raise ConfigurationError("cache_sizes_gb must be non-empty")
    config = config or SimulationConfig()
    sweep = SweepResult(
        parameter_name="cache_size_gb",
        parameter_values=[float(size) for size in cache_sizes_gb],
        metrics={name: [] for name in policy_factories},
    )
    if n_jobs is not None and n_jobs != 1:
        if not policy_factories:
            raise ConfigurationError("policy_factories must be non-empty")
        if num_runs <= 0:
            raise ConfigurationError(f"num_runs must be positive, got {num_runs}")
        from repro.analysis.parallel import SimulationJob, run_simulation_jobs

        jobs = []
        for cache_size in cache_sizes_gb:
            point_config = config.with_cache_size(cache_size)
            for run_index in range(num_runs):
                run_config = point_config.with_seed(point_config.seed + run_index)
                for factory in policy_factories.values():
                    jobs.append(
                        SimulationJob(
                            config=run_config,
                            policy_factory=factory,
                            share_topology=True,
                        )
                    )
        results = iter(run_simulation_jobs(workload, jobs, n_jobs, transport=transport))
        for _ in cache_sizes_gb:
            per_policy: Dict[str, List[SimulationMetrics]] = {
                name: [] for name in policy_factories
            }
            for _ in range(num_runs):
                for name in policy_factories:
                    per_policy[name].append(next(results))
            for name in policy_factories:
                sweep.metrics[name].append(
                    SimulationMetrics.average(per_policy[name])
                )
        return sweep
    for cache_size in cache_sizes_gb:
        point_config = config.with_cache_size(cache_size)
        comparison = compare_policies(workload, policy_factories, point_config, num_runs)
        for name in policy_factories:
            sweep.metrics[name].append(comparison.metrics_by_policy[name])
    return sweep


def sweep_parameter(
    parameter_name: str,
    parameter_values: Sequence[float],
    run_point: Callable[[float], Dict[str, SimulationMetrics]],
) -> SweepResult:
    """Generic sweep: call ``run_point(value)`` for each parameter value.

    ``run_point`` returns a mapping of policy name to averaged metrics;
    this helper stitches the points into a :class:`SweepResult`.  Used by
    the Zipf-``alpha`` and estimator-``e`` sweeps where the swept parameter
    is not the cache size.
    """
    if not parameter_values:
        raise ConfigurationError("parameter_values must be non-empty")
    sweep = SweepResult(
        parameter_name=parameter_name,
        parameter_values=[float(v) for v in parameter_values],
    )
    for value in parameter_values:
        point = run_point(float(value))
        for policy, metrics in point.items():
            sweep.metrics.setdefault(policy, []).append(metrics)
    return sweep
