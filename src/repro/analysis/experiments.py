"""One experiment entry point per table and figure of the paper.

Each ``experiment_*`` function regenerates the data behind one figure of the
evaluation (Section 3 and 4).  The functions share a small set of knobs:

* ``scale`` — fraction of the paper's workload volume to simulate.  The
  paper uses 5,000 objects and 100,000 requests per run; ``scale=0.1`` keeps
  the distributional shape while running in seconds, ``scale=1.0`` is the
  full published setting.
* ``num_runs`` — how many independent runs to average (the paper uses ten).
* ``cache_fractions`` — cache sizes expressed as a fraction of the total
  unique object size (the paper's x-axis, 0.5%–16.9%).

Every function returns an :class:`ExperimentResult` whose ``data`` field
holds the figure's series and whose ``notes`` summarise what qualitative
shape the paper reports, so EXPERIMENTS.md can be written directly from the
results.

Each simulation experiment submits all of its replays on one workload as
one grid of jobs, so ``n_jobs`` workers share the whole of it.  A sweep
experiment's surfaces — one cache-size sweep each, such as Figure 9's
estimator spectrum with its re-measurement ablation or ``hetero``'s three
client-cloud settings — go out through one
:func:`~repro.sim.runner.compare_grid` call; Figure 6 sends one grid per
alpha, because each alpha is a workload of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.parallel import SimulationJob, replication_jobs, run_simulation_results
from repro.core.policies import PolicySpec
from repro.exceptions import ConfigurationError
from repro.network.distributions import NLANRBandwidthDistribution
from repro.network.loganalysis import ProxyLogAnalyzer, SyntheticProxyLog
from repro.obs import ObservabilityConfig
from repro.network.variability import (
    MEASURED_PATH_PROFILES,
    BandwidthVariabilityModel,
    ConstantVariability,
    MeasuredPathVariability,
    NLANRRatioVariability,
    empirical_ratio_statistics,
)
from repro.sim.config import BandwidthKnowledge, ClientCloudConfig, SimulationConfig
from repro.sim.events import RemeasurementConfig
from repro.sim.faults import FaultConfig, FaultEpisode
from repro.sim.hierarchy import CacheTier, HierarchyConfig
from repro.sim.metrics import SimulationMetrics
from repro.sim.runner import PolicyComparison, SweepResult, compare_grid
from repro.sim.simulator import SimulationResult
from repro.sim.streaming import StreamingConfig
from repro.workload.gismo import GismoWorkloadGenerator, Workload, WorkloadConfig

#: Cache sizes as fractions of the total unique object size, matching the
#: paper's 4 GB (~0.5%) to 128 GB (~16.9%) range on a 790 GB catalog.
DEFAULT_CACHE_FRACTIONS: Sequence[float] = (0.005, 0.02, 0.05, 0.10, 0.17)

#: Default workload scale used when none is given: one tenth of the paper's
#: volume, which preserves the qualitative results at interactive runtimes.
DEFAULT_SCALE: float = 0.1


@dataclass
class ExperimentResult:
    """Output of one experiment: identification, data series, and notes."""

    experiment_id: str
    title: str
    data: Dict[str, object] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def series(self, key: str):
        """Convenience accessor for a named data series."""
        return self.data[key]


def build_workload(
    scale: float = DEFAULT_SCALE,
    zipf_alpha: float = 0.73,
    seed: int = 0,
    columnar: bool = True,
    num_clients: int = 1,
) -> Workload:
    """Generate the Table 1 workload at the requested scale.

    ``num_clients > 1`` assigns each request a client id (drawn after
    every other column, so the catalog and request stream are unchanged) —
    the substrate for the client-heterogeneity experiments
    (``docs/clients.md``).  The trace is always a
    :class:`~repro.trace.columnar.ColumnarTrace`; ``columnar`` accepts
    only ``True`` and is kept for callers that still pass it.
    """
    if columnar is not True:
        raise ConfigurationError(
            f"columnar must be True (every trace is columnar), got {columnar!r}"
        )
    if not 0 < scale < math.inf:
        raise ConfigurationError(f"scale must be positive and finite, got {scale}")
    config = WorkloadConfig(zipf_alpha=zipf_alpha, seed=seed, num_clients=num_clients)
    if scale != 1.0:
        config = config.scaled(scale)
    return GismoWorkloadGenerator(config).generate()


def cache_sizes_gb_for(workload: Workload, fractions: Sequence[float]) -> List[float]:
    """Convert cache-size fractions into GB for the given workload."""
    total_gb = workload.catalog.total_size_gb
    return [fraction * total_gb for fraction in fractions]


def _replications(
    config: SimulationConfig, policy_name: str, num_runs: int
) -> List[SimulationJob]:
    """One grid cell: ``num_runs`` seeds of one policy, each run drawing its
    own topology (the :func:`~repro.sim.runner.run_replications` protocol)."""
    return replication_jobs(
        config, PolicySpec(policy_name), num_runs, share_topology=False
    )


def _run_cells(
    workload: Workload,
    cells: Dict[tuple, List[SimulationJob]],
    n_jobs: int,
) -> Dict[tuple, List[SimulationResult]]:
    """Submit every cell's jobs as one grid; return each cell's results.

    The grid is the cells' job lists in insertion order, and each cell
    gets its results back in the order of its jobs, so every mean over a
    cell adds its runs in run order whatever ``n_jobs`` is.
    """
    jobs = [job for cell_jobs in cells.values() for job in cell_jobs]
    results = iter(run_simulation_results(workload, jobs, n_jobs))
    return {
        key: [next(results) for _ in cell_jobs] for key, cell_jobs in cells.items()
    }


def _comparison(
    results: Dict[tuple, List[SimulationResult]],
    setting: tuple,
    policies: Sequence[str],
) -> PolicyComparison:
    """Each policy's metrics in one setting, averaged over its cell."""
    return PolicyComparison(
        {
            name: SimulationMetrics.average(
                [result.metrics for result in results[(*setting, name)]]
            )
            for name in policies
        }
    )


def _sweep_grid(
    workload: Workload,
    surfaces: Mapping[Hashable, Tuple[SimulationConfig, Mapping[str, PolicySpec]]],
    cache_fractions: Sequence[float],
    num_runs: int,
    n_jobs: int,
) -> Dict[Hashable, SweepResult]:
    """Sweep every surface over the cache fractions, all in one grid.

    A surface is the config each cache size is applied to and the
    policies compared at each size, by series label; PolicySpec rather
    than lambdas, because the factories must survive pickling when the
    grid fans out over worker processes (n_jobs > 1).  The x-axis is the
    cache size as a fraction of the total unique object size, as the
    paper's figures plot it.
    """
    if not cache_fractions:
        raise ConfigurationError("cache_fractions must be non-empty")
    total_gb = workload.catalog.total_size_gb
    sizes = cache_sizes_gb_for(workload, cache_fractions)
    points = iter(
        compare_grid(
            workload,
            [
                (config.with_cache_size(size), policies)
                for config, policies in surfaces.values()
                for size in sizes
            ],
            num_runs,
            n_jobs,
        )
    )
    sweeps: Dict[Hashable, SweepResult] = {}
    for key, (_, policies) in surfaces.items():
        surface_points = [next(points) for _ in sizes]
        sweeps[key] = SweepResult(
            parameter_name="cache_fraction",
            # Back from the swept size, not the fraction as given: these
            # are the axis values the figures have always carried, bit for
            # bit.
            parameter_values=[float(size) / total_gb for size in sizes],
            metrics={
                name: [point.metrics_by_policy[name] for point in surface_points]
                for name in policies
            },
        )
    return sweeps


#: The policies of Figures 5, 7 and 8, and of Figures 10 and 11.
_BANDWIDTH_POLICIES = {name: PolicySpec(name) for name in ("IF", "PB", "IB")}
_VALUE_POLICIES = {name: PolicySpec(name) for name in ("IF", "PB-V", "IB-V")}


def _passive_nlanr(
    workload: Workload,
    cache_fraction: float,
    seed: int,
    client_groups: Optional[int] = None,
) -> SimulationConfig:
    """The base config of the extension ablations: NLANR variability under
    passive bandwidth knowledge, with ``cache_fraction`` of the unique
    object size cached and, given ``client_groups``, that many last-mile
    groups of NLANR-distributed bandwidth in front."""
    clouds = None
    if client_groups is not None:
        clouds = ClientCloudConfig(
            groups=client_groups, distribution=NLANRBandwidthDistribution()
        )
    return SimulationConfig(
        cache_size_gb=cache_fraction * workload.catalog.total_size_gb,
        variability=NLANRRatioVariability(),
        bandwidth_knowledge=BandwidthKnowledge.PASSIVE,
        client_clouds=clouds,
        seed=seed,
    )


def _reaction_settings(
    threshold: float, hysteresis: float
) -> Dict[str, Dict[str, object]]:
    """The fault and streaming ablations' two reaction settings, as config
    overrides (see :func:`experiment_fault_tolerance`)."""
    return {
        "static": {},
        "reactive-passive": {
            "reactive_threshold": threshold,
            "reactive_passive": True,
            "reactive_hysteresis": hysteresis,
        },
    }


def _reaction_tables(
    results: Dict[tuple, List[SimulationResult]],
    settings: Sequence[str],
    reactions: Sequence[str],
    policies: Sequence[str],
    reduce: Callable[[List[SimulationResult]], Dict[str, float]],
) -> Tuple[Dict[str, Dict[str, PolicyComparison]], Dict[str, Dict[str, Dict]]]:
    """Reduce a ``(setting, reaction, policy)`` grid: each ``(setting,
    reaction)`` cell's policy comparison, and ``reduce`` of each policy's
    runs in it, both nested ``[setting][reaction]``."""
    comparisons: Dict[str, Dict[str, PolicyComparison]] = {}
    reduced: Dict[str, Dict[str, Dict]] = {}
    for setting in settings:
        comparisons[setting], reduced[setting] = {}, {}
        for reaction in reactions:
            cell = (setting, reaction)
            comparisons[setting][reaction] = _comparison(results, cell, policies)
            reduced[setting][reaction] = {
                name: reduce(results[(*cell, name)]) for name in policies
            }
    return comparisons, reduced


# ----------------------------------------------------------------------
# Section 3.1 — bandwidth models (Figures 2, 3, 4)
# ----------------------------------------------------------------------
def experiment_fig2_bandwidth_distribution(
    num_records: int = 20_000, seed: int = 0
) -> ExperimentResult:
    """Figure 2: the NLANR bandwidth histogram and CDF.

    Synthesises a proxy log, runs the paper's filtering/analysis pipeline,
    and reports the histogram, CDF, and the two fractions the paper quotes
    (37% of transfers below 50 KB/s, 56% below 100 KB/s).
    """
    log = SyntheticProxyLog(num_records=num_records, seed=seed)
    analysis = ProxyLogAnalyzer().analyze(log.generate())
    bandwidth_axis, cdf = analysis.cdf()
    return ExperimentResult(
        experiment_id="fig2",
        title="Internet bandwidth distribution observed in (synthetic) NLANR cache logs",
        data={
            "histogram_edges": analysis.histogram_edges,
            "histogram_counts": analysis.histogram_counts,
            "cdf_bandwidth": bandwidth_axis,
            "cdf_fraction": cdf,
            "fraction_below_50": analysis.fraction_below(50.0),
            "fraction_below_100": analysis.fraction_below(100.0),
            "sample_count": int(analysis.samples.size),
            "mean_bandwidth": float(analysis.samples.mean()),
        },
        notes=[
            "Paper: 37% of requests have bandwidth below 50 KB/s and 56% below 100 KB/s.",
            "The histogram is heterogeneous with a long tail to ~450 KB/s.",
        ],
    )


def experiment_fig3_bandwidth_variability(
    num_records: int = 20_000, seed: int = 0
) -> ExperimentResult:
    """Figure 3: sample-to-mean bandwidth ratio distribution from the logs."""
    log = SyntheticProxyLog(num_records=num_records, seed=seed)
    analysis = ProxyLogAnalyzer().analyze(log.generate())
    stats = analysis.ratio_statistics()
    counts, edges = np.histogram(analysis.ratios, bins=np.arange(0.0, 3.1, 0.1))
    return ExperimentResult(
        experiment_id="fig3",
        title="Variation of bandwidth observed in the (synthetic) NLANR cache logs",
        data={
            "ratio_histogram_edges": edges,
            "ratio_histogram_counts": counts,
            "ratios": analysis.ratios,
            **stats,
        },
        notes=[
            "Paper: in about 70% of the cases the sample bandwidth is 0.5-1.5x the mean.",
            "This is the pessimistic, high-variability model.",
        ],
    )


def experiment_fig4_measured_paths(
    interval_minutes: float = 4.0, seed: int = 0
) -> ExperimentResult:
    """Figure 4: bandwidth time series and ratio histograms of measured paths."""
    rng = np.random.default_rng(seed)
    per_path: Dict[str, Dict[str, object]] = {}
    for key in MEASURED_PATH_PROFILES:
        model = MeasuredPathVariability(key)
        times, bandwidth = model.bandwidth_time_series(
            interval_minutes=interval_minutes, rng=rng
        )
        ratios = bandwidth / bandwidth.mean()
        per_path[key] = {
            "profile": model.profile,
            "times_hours": times,
            "bandwidth_kbps": bandwidth,
            "ratio_statistics": empirical_ratio_statistics(ratios),
        }
    covs = {key: data["ratio_statistics"]["coefficient_of_variation"] for key, data in per_path.items()}
    return ExperimentResult(
        experiment_id="fig4",
        title="Bandwidth variation of measured Internet paths",
        data={"paths": per_path, "coefficients_of_variation": covs},
        notes=[
            "Paper: all measured paths show much lower variability than the NLANR logs;",
            "the INRIA path is the smoothest of the three.",
        ],
    )


# ----------------------------------------------------------------------
# Section 4.1 — Figure 5: constant bandwidth comparison of IF / PB / IB
# ----------------------------------------------------------------------
def experiment_fig5_constant_bandwidth(
    scale: float = DEFAULT_SCALE,
    num_runs: int = 3,
    cache_fractions: Sequence[float] = DEFAULT_CACHE_FRACTIONS,
    seed: int = 0,
    n_jobs: int = 1,
) -> ExperimentResult:
    """Figure 5: IF vs PB vs IB under the constant-bandwidth assumption."""
    workload = build_workload(scale=scale, seed=seed)
    config = SimulationConfig(variability=ConstantVariability(), seed=seed)
    surfaces = {"sweep": (config, _BANDWIDTH_POLICIES)}
    return ExperimentResult(
        experiment_id="fig5",
        title="IF / PB / IB under constant bandwidth",
        data=_sweep_grid(workload, surfaces, cache_fractions, num_runs, n_jobs),
        notes=[
            "Paper: IF achieves the highest traffic reduction, PB the lowest.",
            "Paper: PB achieves the lowest average service delay and the highest quality;",
            "IF is worst on both; IB lies in between.",
        ],
    )


# ----------------------------------------------------------------------
# Section 4.2 — Figure 6: effect of the Zipf parameter alpha
# ----------------------------------------------------------------------
def experiment_fig6_zipf_sweep(
    alphas: Sequence[float] = (0.6, 0.73, 0.9, 1.1),
    cache_fractions: Sequence[float] = (0.02, 0.05, 0.10, 0.17),
    scale: float = DEFAULT_SCALE,
    num_runs: int = 2,
    seed: int = 0,
    n_jobs: int = 1,
) -> ExperimentResult:
    """Figure 6: PB and IB as the Zipf skew alpha varies from 0.5 to 1.2."""
    config = SimulationConfig(variability=ConstantVariability(), seed=seed)
    policies = {name: PolicySpec(name) for name in ("PB", "IB")}
    sweeps: Dict[float, SweepResult] = {}
    for alpha in alphas:
        # One grid per alpha: each alpha is its own workload, and a pool
        # installs one workload in its workers.
        workload = build_workload(scale=scale, zipf_alpha=float(alpha), seed=seed)
        surfaces = {float(alpha): (config, policies)}
        sweeps.update(_sweep_grid(workload, surfaces, cache_fractions, num_runs, n_jobs))
    return ExperimentResult(
        experiment_id="fig6",
        title="Effect of the Zipf-like popularity parameter alpha",
        data={"alphas": list(alphas), "sweeps_by_alpha": sweeps},
        notes=[
            "Paper: intensifying temporal locality (larger alpha) improves both algorithms;",
            "the relative ordering between PB and IB does not change.",
        ],
    )


# ----------------------------------------------------------------------
# Section 4.3 — Figures 7, 8, 9: bandwidth variability
# ----------------------------------------------------------------------
def experiment_fig7_high_variability(
    scale: float = DEFAULT_SCALE,
    num_runs: int = 3,
    cache_fractions: Sequence[float] = DEFAULT_CACHE_FRACTIONS,
    seed: int = 0,
    n_jobs: int = 1,
) -> ExperimentResult:
    """Figure 7: IF / PB / IB under the high (NLANR) bandwidth variability."""
    workload = build_workload(scale=scale, seed=seed)
    config = SimulationConfig(variability=NLANRRatioVariability(), seed=seed)
    surfaces = {"sweep": (config, _BANDWIDTH_POLICIES)}
    return ExperimentResult(
        experiment_id="fig7",
        title="IF / PB / IB under high (cache-log) bandwidth variability",
        data=_sweep_grid(workload, surfaces, cache_fractions, num_runs, n_jobs),
        notes=[
            "Paper: traffic reduction barely changes versus Figure 5, but delays increase",
            "and quality degrades for all policies; PB loses its advantage (IB is no worse).",
        ],
    )


def experiment_fig8_low_variability(
    scale: float = DEFAULT_SCALE,
    num_runs: int = 3,
    cache_fractions: Sequence[float] = DEFAULT_CACHE_FRACTIONS,
    seed: int = 0,
    n_jobs: int = 1,
) -> ExperimentResult:
    """Figure 8: IF / PB / IB under the lower measured-path variability."""
    workload = build_workload(scale=scale, seed=seed)
    config = SimulationConfig(variability=MeasuredPathVariability("average"), seed=seed)
    surfaces = {"sweep": (config, _BANDWIDTH_POLICIES)}
    return ExperimentResult(
        experiment_id="fig8",
        title="IF / PB / IB under measured-path (low) bandwidth variability",
        data=_sweep_grid(workload, surfaces, cache_fractions, num_runs, n_jobs),
        notes=[
            "Paper: with the more realistic lower variability, PB again outperforms the",
            "integral algorithms in reducing delay and improving quality.",
        ],
    )


def _estimator_data(
    workload: Workload,
    config: SimulationConfig,
    policy_name: str,
    estimator_values: Sequence[float],
    cache_fractions: Sequence[float],
    num_runs: int,
    n_jobs: int,
    remeasurement_interval: Optional[float],
    notes: List[str],
    **references: Tuple[SimulationConfig, Mapping[str, PolicySpec]],
) -> Dict[str, object]:
    """The ``data`` of an estimator-``e`` figure (Figures 9 and 12), from
    one grid.

    ``sweeps_by_e`` holds one cache-size sweep of ``policy_name`` per
    ``e`` under ``config``, in a series labelled ``"<policy_name>(e)"``.
    With ``remeasurement_interval`` set, the re-measurement ablation adds
    the same spectrum under passive bandwidth knowledge: fed by
    request-driven observations only (``sweeps_by_e_passive``), and also
    refreshed by periodic re-measurement on that cadence
    (``sweeps_by_e_remeasured``).  Comparing the two against the oracle
    spectrum isolates what out-of-band measurement buys the paper's
    estimator-driven policies; the ablation's note is appended to
    ``notes``.  Each of ``references`` is one more surface, kept under its
    own key.
    """
    knowledge = {"sweeps_by_e": config}
    data: Dict[str, object] = {"estimator_values": list(estimator_values)}
    if remeasurement_interval is not None:
        passive = replace(config, bandwidth_knowledge=BandwidthKnowledge.PASSIVE)
        knowledge["sweeps_by_e_passive"] = passive
        knowledge["sweeps_by_e_remeasured"] = replace(
            passive,
            remeasurement=RemeasurementConfig(interval=float(remeasurement_interval)),
        )
        data["remeasurement_interval"] = float(remeasurement_interval)
        notes.append(
            "Ablation: passive estimation alone vs passive estimation refreshed by "
            f"periodic re-measurement every {remeasurement_interval:g}s per path."
        )
    label = f"{policy_name}(e)"
    spectra = {
        (key, float(e_value)): (
            surface_config,
            {label: PolicySpec(policy_name, estimator_e=float(e_value))},
        )
        for key, surface_config in knowledge.items()
        for e_value in estimator_values
    }
    sweeps = _sweep_grid(
        workload, {**spectra, **references}, cache_fractions, num_runs, n_jobs
    )
    for key in references:
        data[key] = sweeps[key]
    for key in knowledge:
        data[key] = {
            float(e_value): sweeps[(key, float(e_value))] for e_value in estimator_values
        }
    return data


def experiment_fig9_estimator_sweep(
    estimator_values: Sequence[float] = (0.2, 0.4, 0.6, 0.8, 1.0),
    cache_fractions: Sequence[float] = (0.02, 0.05, 0.10, 0.17),
    scale: float = DEFAULT_SCALE,
    num_runs: int = 2,
    seed: int = 0,
    variability: Optional[BandwidthVariabilityModel] = None,
    n_jobs: int = 1,
    remeasurement_interval: Optional[float] = None,
) -> ExperimentResult:
    """Figure 9: the estimator-``e`` spectrum between IB (e→0) and PB (e=1).

    With ``remeasurement_interval`` set, the result additionally carries the
    re-measurement ablation (see :func:`_estimator_data`): the same
    spectrum under passive bandwidth knowledge with and without periodic
    re-measurement feeding the estimator between requests.
    """
    workload = build_workload(scale=scale, seed=seed)
    config = SimulationConfig(
        variability=variability or NLANRRatioVariability(), seed=seed
    )
    notes = [
        "Paper: smaller e (more conservative, closer to IB) always reduces traffic more,",
        "but a moderate non-zero e gives slightly lower average service delay.",
    ]
    data = _estimator_data(
        workload, config, "PB", estimator_values, cache_fractions,
        num_runs, n_jobs, remeasurement_interval, notes,
    )
    return ExperimentResult(
        experiment_id="fig9",
        title="Effect of partial caching based on conservative bandwidth estimation",
        data=data,
        notes=notes,
    )


# ----------------------------------------------------------------------
# Section 4.4 — Figures 10, 11, 12: value-based caching
# ----------------------------------------------------------------------
def experiment_fig10_value_constant(
    scale: float = DEFAULT_SCALE,
    num_runs: int = 3,
    cache_fractions: Sequence[float] = DEFAULT_CACHE_FRACTIONS,
    seed: int = 0,
    n_jobs: int = 1,
) -> ExperimentResult:
    """Figure 10: IF / PB-V / IB-V under constant bandwidth (value objective)."""
    workload = build_workload(scale=scale, seed=seed)
    config = SimulationConfig(variability=ConstantVariability(), seed=seed)
    surfaces = {"sweep": (config, _VALUE_POLICIES)}
    return ExperimentResult(
        experiment_id="fig10",
        title="Value-based caching under constant bandwidth",
        data=_sweep_grid(workload, surfaces, cache_fractions, num_runs, n_jobs),
        notes=[
            "Paper: IF achieves the highest traffic reduction but the lowest added value;",
            "PB-V the highest added value; IB-V strikes a balance.",
        ],
    )


def experiment_fig11_value_variable(
    scale: float = DEFAULT_SCALE,
    num_runs: int = 3,
    cache_fractions: Sequence[float] = DEFAULT_CACHE_FRACTIONS,
    seed: int = 0,
    n_jobs: int = 1,
) -> ExperimentResult:
    """Figure 11: value-based caching under measured-path variability."""
    workload = build_workload(scale=scale, seed=seed)
    config = SimulationConfig(variability=MeasuredPathVariability("average"), seed=seed)
    surfaces = {"sweep": (config, _VALUE_POLICIES)}
    return ExperimentResult(
        experiment_id="fig11",
        title="Value-based caching under measured bandwidth variability",
        data=_sweep_grid(workload, surfaces, cache_fractions, num_runs, n_jobs),
        notes=[
            "Paper: IB-V yields the best compromise between traffic reduction and added",
            "value once bandwidth varies.",
        ],
    )


def experiment_fig12_value_estimator(
    estimator_values: Sequence[float] = (0.2, 0.4, 0.5, 0.6, 0.8, 1.0),
    cache_fractions: Sequence[float] = (0.02, 0.05, 0.10, 0.17),
    scale: float = DEFAULT_SCALE,
    num_runs: int = 2,
    seed: int = 0,
    n_jobs: int = 1,
    remeasurement_interval: Optional[float] = None,
) -> ExperimentResult:
    """Figure 12: the estimator-``e`` spectrum for value-based partial caching.

    With ``remeasurement_interval`` set, the result additionally carries the
    re-measurement ablation (see :func:`_estimator_data`) for the
    value objective.
    """
    workload = build_workload(scale=scale, seed=seed)
    config = SimulationConfig(variability=MeasuredPathVariability("average"), seed=seed)
    notes = [
        "Paper: a moderate e (around 0.5) yields the highest total added value,",
        "outperforming IB-V by as much as 30%.",
    ]
    data = _estimator_data(
        workload, config, "PB-V", estimator_values, cache_fractions,
        num_runs, n_jobs, remeasurement_interval, notes,
        # The IB-V reference the paper compares against ("outperforms
        # IB-V by as much as 30%").
        ibv_reference=(config, {"IB-V": PolicySpec("IB-V")}),
    )
    return ExperimentResult(
        experiment_id="fig12",
        title="Effect of conservative bandwidth estimation on value-based caching",
        data=data,
        notes=notes,
    )


# ----------------------------------------------------------------------
# Extension — reactive re-keying (passive-driven shifts, hysteresis)
# ----------------------------------------------------------------------
def experiment_reactive_rekeying(
    policies: Sequence[str] = ("PB", "IB"),
    cache_fraction: float = 0.05,
    scale: float = DEFAULT_SCALE,
    num_runs: int = 2,
    seed: int = 0,
    n_jobs: int = 1,
    threshold: float = 0.15,
    hysteresis: float = 0.05,
    remeasurement_interval: float = 150.0,
    rekey_cap: Optional[int] = None,
) -> ExperimentResult:
    """Reactive ablation: what moving heap keys on belief shifts buys.

    Under passive bandwidth knowledge a policy's heap keys go stale the
    moment a path's estimate moves; the reactive hook (``docs/events.md``)
    closes that window.  This experiment replays the same workload and
    topology under four knowledge/reaction settings, per policy:

    * ``"passive"`` — request-driven estimation only (the baseline whose
      staleness the other settings attack);
    * ``"remeasured"`` — plus periodic out-of-band probes
      (``remeasurement_interval`` seconds per path);
    * ``"reactive-probe"`` — probes *and* probe-driven re-keying at
      ``threshold`` (PR 4's hook);
    * ``"reactive-passive"`` — additionally lets every request's passive
      observation trigger re-keys, with a ``hysteresis`` re-arm band (and
      an optional per-server ``rekey_cap``) bounding churn.

    Besides the averaged figure metrics the result records the reactive
    counters (shifts / re-keys / suppressed) summed over runs, so the
    ablation reports both what the hook cost and what it did.  The whole
    ``(setting, policy, run)`` grid is submitted once, on ``n_jobs``
    workers.
    """
    workload = build_workload(scale=scale, seed=seed)
    base = _passive_nlanr(workload, cache_fraction, seed)
    remeasurement = RemeasurementConfig(interval=float(remeasurement_interval))
    settings: Dict[str, SimulationConfig] = {
        "passive": base,
        "remeasured": replace(base, remeasurement=remeasurement),
        "reactive-probe": replace(
            base, remeasurement=remeasurement, reactive_threshold=threshold
        ),
        "reactive-passive": replace(
            base,
            remeasurement=remeasurement,
            reactive_threshold=threshold,
            reactive_passive=True,
            reactive_hysteresis=hysteresis,
            reactive_rekey_cap=rekey_cap,
        ),
    }
    results = _run_cells(
        workload,
        {
            (label, policy_name): _replications(config, policy_name, num_runs)
            for label, config in settings.items()
            for policy_name in policies
        },
        n_jobs,
    )
    comparisons = {label: _comparison(results, (label,), policies) for label in settings}
    counters: Dict[str, Dict[str, Dict[str, int]]] = {label: {} for label in settings}
    for (label, policy_name), runs in results.items():
        counters[label][policy_name] = {
            "shifts": sum(result.reactive_shifts for result in runs),
            "rekeys": sum(result.reactive_rekeys for result in runs),
            "suppressed": sum(result.reactive_suppressed for result in runs),
        }
    return ExperimentResult(
        experiment_id="reactive",
        title="Reactive re-keying: passive vs remeasured vs probe-driven vs passive-driven",
        data={
            "settings": list(settings),
            "cache_fraction": float(cache_fraction),
            "threshold": float(threshold),
            "hysteresis": float(hysteresis),
            "rekey_cap": rekey_cap,
            "remeasurement_interval": float(remeasurement_interval),
            "comparisons_by_setting": comparisons,
            "reactive_counters": counters,
        },
        notes=[
            "Passive estimation alone leaves heap keys stale between requests; probes",
            "refresh the estimate and reactive re-keying moves the keys the moment the",
            "belief shifts.  Passive-driven re-keying reacts to the paper's free",
            "per-request measurements too, with hysteresis bounding the churn an",
            "oscillating path can cause.",
        ],
    )


# ----------------------------------------------------------------------
# Extension — heterogeneous client clouds (per-client last-mile paths)
# ----------------------------------------------------------------------
def experiment_client_heterogeneity(
    policies: Sequence[str] = ("IF", "PB", "IB"),
    cache_fractions: Sequence[float] = (0.02, 0.05, 0.10),
    scale: float = DEFAULT_SCALE,
    num_runs: int = 2,
    seed: int = 0,
    n_jobs: int = 1,
    client_groups: int = 16,
    num_clients: int = 64,
    homogeneous_bandwidth: float = 40.0,
) -> ExperimentResult:
    """Heterogeneity ablation: how the client-side last mile shifts the picture.

    The paper's core claim is that bandwidth-aware caching beats
    size/frequency heuristics precisely when paths are *unequal* — and its
    model places all the inequality on the cache-to-server side, assuming
    an abundant client last mile.  This experiment ablates that assumption
    on a multi-client workload (``num_clients`` distinct clients hashed
    into ``client_groups`` last-mile groups): the same cache-size sweep is
    run under three client-cloud settings,

    * ``"unconstrained"`` — the paper's model, no modeled last mile;
    * ``"homogeneous"`` — every group capped at ``homogeneous_bandwidth``
      KB/s (a uniform access tier; the default sits just below the 48 KB/s
      stream bit-rate so the cap genuinely binds — a last mile at or above
      the bit-rate is indistinguishable from abundant for CBR streams);
    * ``"heterogeneous"`` — one NLANR-distributed base bandwidth per group
      (dial-up through broadband coexisting behind one proxy).

    All three replay the identical request stream and origin topology (the
    cloud draws from a dedicated random stream), so differences are
    attributable to the last-mile model alone.  See ``docs/clients.md``
    for the model and a runnable walkthrough.
    """
    workload = build_workload(scale=scale, seed=seed, num_clients=num_clients)
    settings: Dict[str, Optional[ClientCloudConfig]] = {
        "unconstrained": None,
        "homogeneous": ClientCloudConfig(
            groups=client_groups, bandwidth=float(homogeneous_bandwidth)
        ),
        "heterogeneous": ClientCloudConfig(
            groups=client_groups, distribution=NLANRBandwidthDistribution()
        ),
    }
    base = SimulationConfig(variability=NLANRRatioVariability(), seed=seed)
    factories = {name: PolicySpec(name) for name in policies}
    surfaces = {
        label: (replace(base, client_clouds=clouds), factories)
        for label, clouds in settings.items()
    }
    sweeps = _sweep_grid(workload, surfaces, cache_fractions, num_runs, n_jobs)
    return ExperimentResult(
        experiment_id="hetero",
        title="Per-client last-mile bandwidth: unconstrained vs homogeneous vs heterogeneous clouds",
        data={
            "settings": list(settings),
            "client_groups": client_groups,
            "num_clients": num_clients,
            "homogeneous_bandwidth": float(homogeneous_bandwidth),
            "sweeps_by_setting": sweeps,
        },
        notes=[
            "The unconstrained setting reproduces the paper's abundant-last-mile model",
            "bit-for-bit.  A binding last mile caps what any caching policy can deliver:",
            "delays rise and quality falls for every policy, and the spread between",
            "bandwidth-aware and frequency-only policies narrows as the bottleneck",
            "moves to the client side, where no cache placement can hide it.",
        ],
    )


# ----------------------------------------------------------------------
# Extension — fault injection and graceful degradation
# ----------------------------------------------------------------------
#: The :class:`~repro.sim.faults.FaultReport` counters the fault ablation
#: sums over runs.
FAULT_TOTALS = (
    "degraded_requests", "retried_requests", "failed_fetches", "stale_serves",
    "failed_requests",
)


def _fault_totals(runs: List[SimulationResult]) -> Dict[str, float]:
    """One fault-ablation cell's counters summed over its runs, and the
    mean time-to-recovery over the runs that recovered any estimate."""
    totals = dict.fromkeys(
        FAULT_TOTALS + ("recovered_outages", "shifts", "rekeys"), 0.0
    )
    mttr_values: List[float] = []
    for result in runs:
        totals["shifts"] += result.reactive_shifts
        totals["rekeys"] += result.reactive_rekeys
        report = result.fault_report
        if report is not None:
            for name in FAULT_TOTALS:
                totals[name] += getattr(report, name)
            totals["recovered_outages"] += len(report.recoveries)
            if report.mean_time_to_recovery_s is not None:
                mttr_values.append(report.mean_time_to_recovery_s)
    totals["mean_time_to_recovery_s"] = (
        float(np.mean(mttr_values)) if mttr_values else float("nan")
    )
    return totals


def experiment_fault_tolerance(
    policies: Sequence[str] = ("PB",),
    cache_fraction: float = 0.05,
    scale: float = DEFAULT_SCALE,
    num_runs: int = 2,
    seed: int = 0,
    n_jobs: int = 1,
    outage_servers: int = 2,
    outage_start_fraction: float = 0.6,
    outage_duration_fraction: float = 0.15,
    flap_count: int = 8,
    severity: float = 0.1,
    threshold: float = 0.15,
    hysteresis: float = 0.05,
) -> ExperimentResult:
    """Fault ablation: what outages and flaps cost, and what reacting buys.

    Replays the same workload and topology under three fault settings
    (:mod:`repro.sim.faults`):

    * ``"no-faults"`` — the healthy baseline every other setting is
      measured against;
    * ``"outages"`` — a scripted origin outage covering
      ``outage_duration_fraction`` of the trace span, starting at
      ``outage_start_fraction``, on the ``outage_servers`` busiest origin
      servers simultaneously (the worst credible correlated failure).
      The defaults put it at 60–75% of the span, after the default
      warm-up (the first half of the requests), so the measured phase
      sees it and the post-outage window is shorter than the headline
      one;
    * ``"flaps"`` — ``flap_count`` stochastic bandwidth flaps (each
      collapsing one path to ``severity`` of its base) scattered over the
      run from the fault stream's own seed.

    crossed with two reaction settings per policy: ``"static"`` (passive
    estimation only — heap keys stay wherever the last request left them)
    and ``"reactive-passive"`` (passive-driven re-keying at ``threshold``
    with a ``hysteresis`` re-arm band, ``docs/events.md``), so the delta
    attributable to reacting is read directly off the grid.

    Besides the averaged headline metrics the result reports the fault
    counters (availability, failed / stale-served / retried requests,
    mean time-to-recovery of the collapsed estimates) and, for the outage
    setting, a **post-outage byte-hit ratio**: the same run re-measured
    with the warm-up window extended past the outage's end (via
    ``warmup_fraction``), isolating how quickly each reaction setting
    restores cache effectiveness once the origin returns.  Those recovery
    runs, like the timeline-on first outages run, are jobs of the same
    ``(setting, policy, run)`` grid, which is submitted once, on
    ``n_jobs`` workers.
    """
    workload = build_workload(scale=scale, seed=seed)
    trace = workload.trace
    span = trace.end_time - trace.start_time
    outage_start = trace.start_time + outage_start_fraction * span
    outage_end = outage_start + outage_duration_fraction * span
    counts: Dict[int, int] = {}
    for object_id, request_count in trace.request_counts().items():
        server_id = workload.catalog.get(int(object_id)).server_id
        counts[server_id] = counts.get(server_id, 0) + int(request_count)
    busiest = sorted(counts, key=lambda s: counts[s], reverse=True)[:outage_servers]
    episodes = tuple(
        FaultEpisode("origin-outage", outage_start, outage_end, server_id=server_id)
        for server_id in sorted(busiest)
    )
    fault_settings: Dict[str, Optional[FaultConfig]] = {
        "no-faults": None,
        "outages": FaultConfig(episodes=episodes),
        "flaps": FaultConfig(
            random_bandwidth_flaps=flap_count,
            severity=severity,
            mean_duration_s=max(outage_duration_fraction * span / 2.0, 1.0),
            seed=seed,
        ),
    }
    reaction_settings = _reaction_settings(threshold, hysteresis)
    base = _passive_nlanr(workload, cache_fraction, seed)
    # Measurement window for the recovery metric: warm-up extended to the
    # first request after the outage ends, so byte-hit is measured purely
    # on the post-outage tail.
    post_outage_index = int(
        np.searchsorted(trace.times_array, outage_end, side="right")
    )
    recovery_warmup = min(post_outage_index / max(len(trace), 1), 0.95)
    # One windowed timeline per reaction setting, captured for free off
    # the first outages run of the lead policy (the timeline does not
    # perturb the simulated results, so no extra run is needed): it is
    # the post-outage recovery curve docs/observability.md plots.
    recovery_window_s = max(span / 40.0, 1.0)
    cells: Dict[tuple, List[SimulationJob]] = {}
    for fault_label, faults in fault_settings.items():
        for reaction_label, overrides in reaction_settings.items():
            config = replace(base, faults=faults, **overrides)
            for policy_name in policies:
                cells[(fault_label, reaction_label, policy_name)] = _replications(
                    config, policy_name, num_runs
                )
            if fault_label == "outages":
                lead = cells[(fault_label, reaction_label, policies[0])]
                timeline = ObservabilityConfig(window_s=recovery_window_s)
                lead[0] = replace(lead[0], config=lead[0].config.with_observability(timeline))
                recovery = replace(config, warmup_fraction=recovery_warmup)
                cells[("recovery", reaction_label)] = _replications(
                    recovery, policies[0], num_runs
                )
    results = _run_cells(workload, cells, n_jobs)
    comparisons, fault_counters = _reaction_tables(
        results, fault_settings, reaction_settings, policies, _fault_totals
    )
    recovery_byte_hit: Dict[str, Dict[str, float]] = {}
    recovery_timelines: Dict[str, object] = {}
    for reaction_label in reaction_settings:
        runs = results[("recovery", reaction_label)]
        byte_hits = [result.metrics.byte_hit_ratio for result in runs]
        recovery_byte_hit[reaction_label] = {policies[0]: float(np.mean(byte_hits))}
        lead_run = results[("outages", reaction_label, policies[0])][0]
        recovery_timelines[reaction_label] = lead_run.timeline
    return ExperimentResult(
        experiment_id="faults",
        title="Fault injection: origin outages and bandwidth flaps, static vs reactive",
        data={
            "fault_settings": list(fault_settings),
            "reaction_settings": list(reaction_settings),
            "cache_fraction": float(cache_fraction),
            "outage_servers": [int(server_id) for server_id in sorted(busiest)],
            "outage_window": (float(outage_start), float(outage_end)),
            "flap_count": int(flap_count),
            "severity": float(severity),
            "comparisons": comparisons,
            "fault_counters": fault_counters,
            "post_outage_byte_hit": recovery_byte_hit,
            "post_outage_warmup_fraction": float(recovery_warmup),
            "recovery_timelines": recovery_timelines,
            "recovery_window_s": float(recovery_window_s),
        },
        notes=[
            "An origin outage shows up as availability < 1 and stale serves; the",
            "passive estimator sees it as a bandwidth collapse, so reactive re-keying",
            "demotes the dead server's objects immediately and re-promotes them as the",
            "estimate recovers — the post-outage byte-hit ratio recovers faster than",
            "under the static baseline, at the price of the re-key churn reported in",
            "the counters.  Flaps degrade throughput without failing fetches unless",
            "severity crosses the fetch-timeout threshold.",
        ],
    )


# ----------------------------------------------------------------------
# Extension — streaming delivery and partial-object caching
# ----------------------------------------------------------------------
#: The :class:`~repro.sim.streaming.StreamingReport` fields the streaming
#: ablation averages over runs, in the order it reports them.
QOE_MEANS = (
    "mean_startup_delay_s", "rebuffer_ratio", "mean_quality", "abandonment_rate",
    "waited_sessions", "degraded_sessions", "abandoned_sessions",
    "prefetch_extensions", "pressure_trimmed_kb",
)


def _qoe_means(runs: List[SimulationResult]) -> Dict[str, float]:
    """One streaming-ablation cell's QoE, each field averaged over its runs."""
    reports = [result.streaming_report for result in runs]
    return {
        name: float(np.mean([getattr(report, name) for report in reports]))
        for name in QOE_MEANS
    }


def experiment_streaming_delivery(
    policies: Sequence[str] = ("PB",),
    cache_fraction: float = 0.05,
    scale: float = DEFAULT_SCALE,
    num_runs: int = 2,
    seed: int = 0,
    n_jobs: int = 1,
    client_groups: int = 16,
    num_clients: int = 64,
    streaming_fraction: float = 1.0,
    vbr_fraction: float = 0.25,
    prefetch_segments: int = 1,
    abandon_after_s: float = 60.0,
    threshold: float = 0.15,
    hysteresis: float = 0.05,
) -> ExperimentResult:
    """Streaming ablation: what partial-object (prefix) caching buys for QoE.

    Replays the same streaming workload — every request a segment-wise
    media session (:mod:`repro.sim.streaming`) over a heterogeneous
    client cloud (dial-up through broadband, one NLANR-distributed base
    bandwidth per last-mile group) — across a 2x2 grid:

    * caching mode: ``"prefix"`` (segment-quantised partial admission,
      tail-trimming under pressure) vs ``"whole-object"`` (a stream is
      cached in full or not at all — the classic web-caching stance the
      paper argues against);
    * reaction: ``"static"`` (passive estimation only) vs
      ``"reactive-passive"`` (passive-driven heap re-keying at
      ``threshold`` with a ``hysteresis`` re-arm band).

    All four cells replay the identical request stream, origin topology,
    and client cloud (the streaming engine and the cloud each draw from
    dedicated tagged random streams), so QoE differences — mean startup
    delay, rebuffer ratio, delivered quality, abandonment rate — are
    attributable to the caching/reaction settings alone.  The expected
    headline: under a constrained last mile, prefix caching beats
    whole-object caching on startup delay and rebuffering, because a
    cached prefix masks exactly the startup portion of the fetch that a
    slow last mile cannot (Section 2 of the paper; ``docs/streaming.md``).
    The whole ``(setting, policy, run)`` grid is submitted once, on
    ``n_jobs`` workers.
    """
    workload = build_workload(scale=scale, seed=seed, num_clients=num_clients)
    caching_settings: Dict[str, StreamingConfig] = {
        "prefix": StreamingConfig(
            fraction=streaming_fraction,
            prefix_caching=True,
            prefetch_segments=prefetch_segments,
            abandon_after_s=abandon_after_s,
            vbr_fraction=vbr_fraction,
            seed=seed,
        ),
        "whole-object": StreamingConfig(
            fraction=streaming_fraction,
            prefix_caching=False,
            prefetch_segments=prefetch_segments,
            abandon_after_s=abandon_after_s,
            vbr_fraction=vbr_fraction,
            seed=seed,
        ),
    }
    reaction_settings = _reaction_settings(threshold, hysteresis)
    base = _passive_nlanr(workload, cache_fraction, seed, client_groups)
    results = _run_cells(
        workload,
        {
            (caching_label, reaction_label, policy_name): _replications(
                replace(base, streaming=streaming, **overrides),
                policy_name,
                num_runs,
            )
            for caching_label, streaming in caching_settings.items()
            for reaction_label, overrides in reaction_settings.items()
            for policy_name in policies
        },
        n_jobs,
    )
    comparisons, qoe = _reaction_tables(
        results, caching_settings, reaction_settings, policies, _qoe_means
    )
    return ExperimentResult(
        experiment_id="streaming",
        title="Streaming delivery: prefix vs whole-object caching, static vs reactive",
        data={
            "caching_settings": list(caching_settings),
            "reaction_settings": list(reaction_settings),
            "cache_fraction": float(cache_fraction),
            "client_groups": int(client_groups),
            "num_clients": int(num_clients),
            "streaming_fraction": float(streaming_fraction),
            "vbr_fraction": float(vbr_fraction),
            "comparisons": comparisons,
            "qoe": qoe,
        },
        notes=[
            "Whole-object admission wastes capacity on stream tails no session",
            "reaches at full quality, so fewer streams keep any cached prefix;",
            "prefix caching holds exactly the startup bytes that mask the slow",
            "last mile, cutting mean startup delay and the rebuffer ratio while",
            "degrading gracefully (tail trims, not whole-object evictions) under",
            "cache pressure.  Reactive re-keying composes with either mode.",
        ],
    )


# ----------------------------------------------------------------------
# Extension — multi-cache hierarchies (edge pops, parents, siblings)
# ----------------------------------------------------------------------
def experiment_hierarchy(
    policies: Sequence[str] = ("PB", "LRU"),
    cache_fraction: float = 0.05,
    scale: float = DEFAULT_SCALE,
    num_runs: int = 2,
    seed: int = 0,
    client_groups: int = 16,
    num_clients: int = 64,
    num_pops: int = 4,
    parent_fraction: float = 4.0,
    edge_uplink_kbps: float = 50.0,
    parent_uplink_kbps: float = 40.0,
    sibling_bandwidth_kbps: float = 60.0,
    n_jobs: int = 1,
) -> ExperimentResult:
    """Hierarchy ablation: what a parent tier and sibling lookups buy.

    Replays the same workload — heterogeneous NLANR client clouds in
    front, ``num_pops`` edge pops pinned by client affinity — across
    three fleet shapes:

    * ``"1-tier"`` — edge pops only; every edge miss travels to the
      origin over the edge uplink (the per-pop version of the paper's
      single proxy);
    * ``"2-tier"`` — each pop escalates misses to its own parent cache
      (``parent_fraction`` times the edge capacity) before the origin;
    * ``"2-tier+siblings"`` — additionally, an ICP-style whole-object
      lookup at the other pops' edge caches runs before parent
      escalation.

    Every cell replays the identical request stream, origin topology,
    and client cloud, so metric movement is attributable to the fleet
    shape alone.  The expected headline: the parent tier absorbs a large
    share of edge-miss bytes (``origin_byte_ratio`` drops from 1-tier to
    2-tier), and sibling lookups help whole-object policies (LRU) far
    more than prefix cachers (PB) — a sibling hit requires the *entire*
    object at a peer edge, which prefix admission rarely holds.  The
    whole ``(setting, policy, run)`` grid is submitted once, on ``n_jobs``
    workers.
    """
    if num_pops < 2:
        raise ConfigurationError(
            f"the hierarchy ablation needs num_pops >= 2, got {num_pops}"
        )
    workload = build_workload(scale=scale, seed=seed, num_clients=num_clients)
    total_kb = workload.catalog.total_size_gb * 1_000_000.0
    edge_kb = cache_fraction * total_kb / num_pops
    edge = CacheTier(
        name="edge", cache_kb=edge_kb, uplink_bandwidth=edge_uplink_kbps
    )
    parent = CacheTier(
        name="parent",
        cache_kb=parent_fraction * edge_kb,
        uplink_bandwidth=parent_uplink_kbps,
    )
    hierarchy_settings: Dict[str, HierarchyConfig] = {
        "1-tier": HierarchyConfig(tiers=(edge,), num_pops=num_pops),
        "2-tier": HierarchyConfig(tiers=(edge, parent), num_pops=num_pops),
        "2-tier+siblings": HierarchyConfig(
            tiers=(edge, parent),
            num_pops=num_pops,
            sibling_lookup=True,
            sibling_bandwidth=sibling_bandwidth_kbps,
        ),
    }
    base = _passive_nlanr(workload, cache_fraction, seed, client_groups)
    results = _run_cells(
        workload,
        {
            (setting_label, policy_name): _replications(
                base.with_hierarchy(hierarchy), policy_name, num_runs
            )
            for setting_label, hierarchy in hierarchy_settings.items()
            for policy_name in policies
        },
        n_jobs,
    )
    comparisons = {
        label: _comparison(results, (label,), policies) for label in hierarchy_settings
    }
    reports: Dict[str, Dict[str, Dict[str, float]]] = {
        label: {} for label in hierarchy_settings
    }
    for (setting_label, policy_name), runs in results.items():
        run_reports = [result.hierarchy_report.as_dict() for result in runs]
        reports[setting_label][policy_name] = {
            key: float(np.mean([report[key] for report in run_reports]))
            for key in run_reports[0]
        }
    return ExperimentResult(
        experiment_id="hierarchy",
        title="Cache hierarchies: 1-tier vs 2-tier vs 2-tier with sibling lookups",
        data={
            "hierarchy_settings": list(hierarchy_settings),
            "cache_fraction": float(cache_fraction),
            "num_pops": int(num_pops),
            "parent_fraction": float(parent_fraction),
            "client_groups": int(client_groups),
            "num_clients": int(num_clients),
            "comparisons": comparisons,
            "hierarchy_reports": reports,
        },
        notes=[
            "A parent tier absorbs edge-miss bytes that would otherwise cross the",
            "backbone: origin_byte_ratio drops from 1-tier to 2-tier while the",
            "edge tier's own hit ratio is unchanged (the parent only sees edge",
            "misses).  Sibling lookups are whole-object by ICP semantics, so they",
            "benefit LRU-style whole-object admission far more than the paper's",
            "prefix cachers, whose partial objects cannot answer a sibling probe.",
        ],
    )


# ----------------------------------------------------------------------
# Table 1 — workload characteristics
# ----------------------------------------------------------------------
def experiment_table1_workload(scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    """Table 1: characteristics of the synthetic workload."""
    workload = build_workload(scale=scale, seed=seed)
    summary = workload.describe()
    return ExperimentResult(
        experiment_id="tab1",
        title="Characteristics of the synthetic workload",
        data={"summary": summary},
        notes=[
            "Paper: 5,000 objects, 100,000 requests, Zipf-like popularity (alpha=0.73),",
            "lognormal durations (~55 min mean), 48 KB/s bit-rate, ~790 GB total.",
        ],
    )
