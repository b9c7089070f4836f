"""Multi-run experiment execution: replications, comparisons, and sweeps.

Each data point in the paper's figures is the average of ten simulation
runs.  The helpers in this module organise that protocol:

* :func:`run_replications` — run one policy over several seeds and average,
* :func:`compare_grid` — at each point (a config with its own policies),
  run the policies over the *same* sequence of seeds (and, per seed, the
  same bandwidth assignment) so differences are attributable to the
  policies rather than to the draw of the network,
* :func:`compare_policies` and :func:`sweep_cache_sizes` — that grid at
  one point, and at each cache size of one config.

Each builds its whole ``(point, seed, policy)`` grid as one list of
:class:`~repro.analysis.parallel.SimulationJob` objects, each with its
final seed, submits it once through
:func:`~repro.analysis.parallel.run_simulation_jobs`, and averages the
results in job order; the sweep experiments send every surface of a
workload through one :func:`compare_grid` call.  ``n_jobs`` only sets how
many workers run the grid: one worker runs it in-process, where nothing
is pickled and lambda factories work; more fan it out over a process
pool, whose policy factories must be picklable — use
:class:`~repro.core.policies.registry.PolicySpec` rather than lambdas.
The tables are byte-identical for every ``n_jobs``.  The workload
reaches each worker once, through the pool's initializer, not once per
job.

Every job replays the workload once with its own config — including
periodic bandwidth re-measurement (:mod:`repro.sim.events`) when the
config sets it; a :class:`~repro.sim.events.RemeasurementConfig`
travels inside the pickled :class:`~repro.sim.config.SimulationConfig`.
The same holds for fault injection: a
:class:`~repro.sim.faults.FaultConfig` on
:attr:`~repro.sim.config.SimulationConfig.faults` is a frozen, picklable
dataclass whose stochastic episodes are derived from ``(faults.seed,
config.seed)`` inside each worker, so a faulted sweep fans out exactly
like a healthy one (``docs/faults.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.sim.config import SimulationConfig
from repro.sim.metrics import SimulationMetrics
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


def run_replications(
    workload: Workload,
    policy_factory: PolicyFactory,
    config: SimulationConfig,
    num_runs: int = 10,
    n_jobs: int = 1,
) -> SimulationMetrics:
    """Run one policy ``num_runs`` times with different seeds and average.

    Run ``i`` uses seed ``config.seed + i`` and draws its own topology
    inside the run.  ``n_jobs`` workers run the ``num_runs`` jobs.
    """
    # Imported lazily: repro.analysis imports this module at package
    # initialisation, so a top-level import would be circular.
    from repro.analysis.parallel import replication_jobs, run_simulation_jobs

    jobs = replication_jobs(config, policy_factory, num_runs, share_topology=False)
    return SimulationMetrics.average(run_simulation_jobs(workload, jobs, n_jobs))


def compare_grid(
    workload: Workload,
    points: Sequence[Tuple[SimulationConfig, Mapping[str, PolicyFactory]]],
    num_runs: int,
    n_jobs: int = 1,
) -> List[PolicyComparison]:
    """One :class:`PolicyComparison` per ``(config, policy_factories)`` point,
    from one submitted grid.

    Each point's jobs are its seeds in turn, one job per policy each;
    every job of a seed builds its topology from that seed.  Slicing a
    point's results by policy keeps each mean in seed order.
    """
    from repro.analysis.parallel import SimulationJob, run_simulation_jobs

    if any(not factories for _, factories in points):
        raise ConfigurationError("policy_factories must be non-empty")
    if num_runs <= 0:
        raise ConfigurationError(f"num_runs must be positive, got {num_runs}")
    jobs = [
        SimulationJob(
            config=config.with_seed(config.seed + run_index),
            policy_factory=factory,
            share_topology=True,
        )
        for config, factories in points
        for run_index in range(num_runs)
        for factory in factories.values()
    ]
    results = iter(run_simulation_jobs(workload, jobs, n_jobs))
    comparisons = []
    for _, factories in points:
        point = [next(results) for _ in range(num_runs * len(factories))]
        comparisons.append(
            PolicyComparison(
                {
                    name: SimulationMetrics.average(point[index :: len(factories)])
                    for index, name in enumerate(factories)
                }
            )
        )
    return comparisons


def compare_policies(
    workload: Workload,
    policy_factories: Mapping[str, PolicyFactory],
    config: SimulationConfig,
    num_runs: int = 3,
    n_jobs: int = 1,
) -> PolicyComparison:
    """Run several policies over the same seeds and network assignments.

    Every job of one seed builds its topology (the per-server base
    bandwidths) from a generator seeded with that seed, so every policy
    faces exactly the same network conditions; the per-request
    variability draws are also identical because each run re-seeds its
    generator with the same value.  ``n_jobs`` workers run the
    ``num_runs x len(policy_factories)`` jobs.
    """
    return compare_grid(workload, [(config, policy_factories)], num_runs, n_jobs)[0]


def sweep_cache_sizes(
    workload: Workload,
    policy_factories: Mapping[str, PolicyFactory],
    cache_sizes_gb: Sequence[float],
    config: Optional[SimulationConfig] = None,
    num_runs: int = 3,
    n_jobs: int = 1,
) -> SweepResult:
    """Sweep the cache size, comparing all policies at each point.

    Each point is one :func:`compare_policies` grid, and the grids of all
    points go out as one job list, so parallelism is not capped by the
    number of runs at a single point.
    """
    if not cache_sizes_gb:
        raise ConfigurationError("cache_sizes_gb must be non-empty")
    config = config or SimulationConfig()
    points = compare_grid(
        workload,
        [(config.with_cache_size(size), policy_factories) for size in cache_sizes_gb],
        num_runs,
        n_jobs,
    )
    return SweepResult(
        parameter_name="cache_size_gb",
        parameter_values=[float(size) for size in cache_sizes_gb],
        metrics={
            name: [point.metrics_by_policy[name] for point in points]
            for name in policy_factories
        },
    )
