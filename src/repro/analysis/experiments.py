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
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.policies import PolicySpec, make_policy
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
from repro.sim.runner import (
    PolicyComparison,
    SweepResult,
    compare_policies,
    sweep_cache_sizes,
)
from repro.sim.simulator import ProxyCacheSimulator
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

    The trace is columnar (numpy-native) by default: metrics are
    bit-identical to the object-per-request representation, the replay
    uses the columns without converting them, and ``n_jobs > 1`` runs ship the trace to
    workers through shared memory instead of per-worker pickles.  Pass
    ``columnar=False`` for the legacy object trace.  ``num_clients > 1``
    assigns each request a client id (drawn after every other column, so
    the catalog and request stream are unchanged) — the substrate for the
    client-heterogeneity experiments (``docs/clients.md``).
    """
    if scale <= 0:
        raise ConfigurationError(f"scale must be positive, got {scale}")
    config = WorkloadConfig(zipf_alpha=zipf_alpha, seed=seed, num_clients=num_clients)
    if scale != 1.0:
        config = config.scaled(scale)
    return GismoWorkloadGenerator(config).generate(columnar=columnar)


def cache_sizes_gb_for(workload: Workload, fractions: Sequence[float]) -> List[float]:
    """Convert cache-size fractions into GB for the given workload."""
    total_gb = workload.catalog.total_size_gb
    return [fraction * total_gb for fraction in fractions]


def _policy_factories(names: Sequence[str]) -> Dict[str, Callable[[], object]]:
    # PolicySpec rather than lambdas: the factories must survive pickling
    # when experiments fan out over worker processes (n_jobs > 1).
    return {name: PolicySpec(name) for name in names}


def _cache_size_sweep(
    policies: Sequence[str],
    variability: BandwidthVariabilityModel,
    scale: float,
    num_runs: int,
    cache_fractions: Sequence[float],
    seed: int,
    zipf_alpha: float = 0.73,
    n_jobs: int = 1,
) -> SweepResult:
    workload = build_workload(scale=scale, zipf_alpha=zipf_alpha, seed=seed)
    config = SimulationConfig(variability=variability, seed=seed)
    sweep = sweep_cache_sizes(
        workload,
        _policy_factories(policies),
        cache_sizes_gb_for(workload, cache_fractions),
        config=config,
        num_runs=num_runs,
        n_jobs=n_jobs,
    )
    # Re-express the x-axis as a fraction of unique object size, as the
    # paper's figures do.
    total_gb = workload.catalog.total_size_gb
    sweep.parameter_name = "cache_fraction"
    sweep.parameter_values = [size / total_gb for size in sweep.parameter_values]
    return sweep


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
    sweep = _cache_size_sweep(
        ("IF", "PB", "IB"),
        ConstantVariability(),
        scale,
        num_runs,
        cache_fractions,
        seed,
        n_jobs=n_jobs,
    )
    return ExperimentResult(
        experiment_id="fig5",
        title="IF / PB / IB under constant bandwidth",
        data={"sweep": sweep},
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
    surfaces: Dict[float, SweepResult] = {}
    for alpha in alphas:
        surfaces[float(alpha)] = _cache_size_sweep(
            ("PB", "IB"),
            ConstantVariability(),
            scale,
            num_runs,
            cache_fractions,
            seed,
            zipf_alpha=float(alpha),
            n_jobs=n_jobs,
        )
    return ExperimentResult(
        experiment_id="fig6",
        title="Effect of the Zipf-like popularity parameter alpha",
        data={"alphas": list(alphas), "sweeps_by_alpha": surfaces},
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
    sweep = _cache_size_sweep(
        ("IF", "PB", "IB"),
        NLANRRatioVariability(),
        scale,
        num_runs,
        cache_fractions,
        seed,
        n_jobs=n_jobs,
    )
    return ExperimentResult(
        experiment_id="fig7",
        title="IF / PB / IB under high (cache-log) bandwidth variability",
        data={"sweep": sweep},
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
    sweep = _cache_size_sweep(
        ("IF", "PB", "IB"),
        MeasuredPathVariability("average"),
        scale,
        num_runs,
        cache_fractions,
        seed,
        n_jobs=n_jobs,
    )
    return ExperimentResult(
        experiment_id="fig8",
        title="IF / PB / IB under measured-path (low) bandwidth variability",
        data={"sweep": sweep},
        notes=[
            "Paper: with the more realistic lower variability, PB again outperforms the",
            "integral algorithms in reducing delay and improving quality.",
        ],
    )


def _estimator_surfaces(
    workload: Workload,
    policy_name: str,
    series_label: str,
    estimator_values: Sequence[float],
    cache_sizes: Sequence[float],
    total_gb: float,
    config: SimulationConfig,
    num_runs: int,
    n_jobs: int,
) -> Dict[float, SweepResult]:
    """One cache-size sweep per estimator-``e`` value (Figures 9 and 12)."""
    surfaces: Dict[float, SweepResult] = {}
    for e_value in estimator_values:
        factories = {series_label: PolicySpec(policy_name, estimator_e=float(e_value))}
        sweep = sweep_cache_sizes(
            workload, factories, cache_sizes, config, num_runs, n_jobs=n_jobs
        )
        sweep.parameter_name = "cache_fraction"
        sweep.parameter_values = [size / total_gb for size in sweep.parameter_values]
        surfaces[float(e_value)] = sweep
    return surfaces


def _remeasurement_ablation(
    data: Dict[str, object],
    notes: List[str],
    remeasurement_interval: Optional[float],
    workload: Workload,
    policy_name: str,
    series_label: str,
    estimator_values: Sequence[float],
    cache_sizes: Sequence[float],
    total_gb: float,
    config: SimulationConfig,
    num_runs: int,
    n_jobs: int,
) -> None:
    """Extend an estimator-sweep result with the re-measurement ablation.

    Two extra surfaces are produced under passive bandwidth knowledge: the
    estimator fed by request-driven observations only
    (``sweeps_by_e_passive``) and the estimator additionally refreshed by
    periodic re-measurement on the given cadence
    (``sweeps_by_e_remeasured``).  Comparing the two against the oracle
    surfaces isolates what out-of-band measurement buys the paper's
    estimator-driven policies.
    """
    if remeasurement_interval is None:
        return
    passive_config = replace(
        config, bandwidth_knowledge=BandwidthKnowledge.PASSIVE
    )
    remeasured_config = replace(
        passive_config,
        remeasurement=RemeasurementConfig(interval=float(remeasurement_interval)),
    )
    data["remeasurement_interval"] = float(remeasurement_interval)
    data["sweeps_by_e_passive"] = _estimator_surfaces(
        workload, policy_name, series_label, estimator_values,
        cache_sizes, total_gb, passive_config, num_runs, n_jobs,
    )
    data["sweeps_by_e_remeasured"] = _estimator_surfaces(
        workload, policy_name, series_label, estimator_values,
        cache_sizes, total_gb, remeasured_config, num_runs, n_jobs,
    )
    notes.append(
        "Ablation: passive estimation alone vs passive estimation refreshed by "
        f"periodic re-measurement every {remeasurement_interval:g}s per path."
    )


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
    re-measurement ablation (see :func:`_remeasurement_ablation`): the same
    spectrum under passive bandwidth knowledge with and without periodic
    re-measurement feeding the estimator between requests.
    """
    variability = variability or NLANRRatioVariability()
    workload = build_workload(scale=scale, seed=seed)
    cache_sizes = cache_sizes_gb_for(workload, cache_fractions)
    total_gb = workload.catalog.total_size_gb
    config = SimulationConfig(variability=variability, seed=seed)

    surfaces = _estimator_surfaces(
        workload, "PB", "PB(e)", estimator_values,
        cache_sizes, total_gb, config, num_runs, n_jobs,
    )
    data: Dict[str, object] = {
        "estimator_values": list(estimator_values),
        "sweeps_by_e": surfaces,
    }
    notes = [
        "Paper: smaller e (more conservative, closer to IB) always reduces traffic more,",
        "but a moderate non-zero e gives slightly lower average service delay.",
    ]
    _remeasurement_ablation(
        data, notes, remeasurement_interval, workload, "PB", "PB(e)",
        estimator_values, cache_sizes, total_gb, config, num_runs, n_jobs,
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
    sweep = _cache_size_sweep(
        ("IF", "PB-V", "IB-V"),
        ConstantVariability(),
        scale,
        num_runs,
        cache_fractions,
        seed,
        n_jobs=n_jobs,
    )
    return ExperimentResult(
        experiment_id="fig10",
        title="Value-based caching under constant bandwidth",
        data={"sweep": sweep},
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
    sweep = _cache_size_sweep(
        ("IF", "PB-V", "IB-V"),
        MeasuredPathVariability("average"),
        scale,
        num_runs,
        cache_fractions,
        seed,
        n_jobs=n_jobs,
    )
    return ExperimentResult(
        experiment_id="fig11",
        title="Value-based caching under measured bandwidth variability",
        data={"sweep": sweep},
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
    re-measurement ablation (see :func:`_remeasurement_ablation`) for the
    value objective.
    """
    variability = MeasuredPathVariability("average")
    workload = build_workload(scale=scale, seed=seed)
    cache_sizes = cache_sizes_gb_for(workload, cache_fractions)
    total_gb = workload.catalog.total_size_gb
    config = SimulationConfig(variability=variability, seed=seed)

    surfaces = _estimator_surfaces(
        workload, "PB-V", "PB-V(e)", estimator_values,
        cache_sizes, total_gb, config, num_runs, n_jobs,
    )
    # Also run the IB-V reference the paper compares against ("outperforms
    # IB-V by as much as 30%").
    reference = sweep_cache_sizes(
        workload, _policy_factories(("IB-V",)), cache_sizes, config, num_runs, n_jobs=n_jobs
    )
    reference.parameter_name = "cache_fraction"
    reference.parameter_values = [size / total_gb for size in reference.parameter_values]
    data: Dict[str, object] = {
        "estimator_values": list(estimator_values),
        "sweeps_by_e": surfaces,
        "ibv_reference": reference,
    }
    notes = [
        "Paper: a moderate e (around 0.5) yields the highest total added value,",
        "outperforming IB-V by as much as 30%.",
    ]
    _remeasurement_ablation(
        data, notes, remeasurement_interval, workload, "PB-V", "PB-V(e)",
        estimator_values, cache_sizes, total_gb, config, num_runs, n_jobs,
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
    ablation reports both what the hook cost and what it did.  The grid is
    small (settings x policies x runs at one cache size) and collects
    per-run reactive counters, so it executes serially; ``n_jobs`` is
    accepted for CLI uniformity but does not fan out.
    """
    workload = build_workload(scale=scale, seed=seed)
    cache_gb = cache_fraction * workload.catalog.total_size_gb
    variability = NLANRRatioVariability()
    base = SimulationConfig(
        cache_size_gb=cache_gb,
        variability=variability,
        bandwidth_knowledge=BandwidthKnowledge.PASSIVE,
        seed=seed,
    )
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
    comparisons: Dict[str, PolicyComparison] = {}
    counters: Dict[str, Dict[str, Dict[str, int]]] = {}
    for label, config in settings.items():
        comparison = PolicyComparison()
        counters[label] = {}
        for policy_name in policies:
            per_run = []
            shifts = rekeys = suppressed = 0
            for run_index in range(num_runs):
                run_config = config.with_seed(config.seed + run_index)
                simulator = ProxyCacheSimulator(workload, run_config)
                result = simulator.run(make_policy(policy_name))
                per_run.append(result.metrics)
                shifts += result.reactive_shifts
                rekeys += result.reactive_rekeys
                suppressed += result.reactive_suppressed
            comparison.metrics_by_policy[policy_name] = SimulationMetrics.average(
                per_run
            )
            counters[label][policy_name] = {
                "shifts": shifts,
                "rekeys": rekeys,
                "suppressed": suppressed,
            }
        comparisons[label] = comparison
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
    cache_sizes = cache_sizes_gb_for(workload, cache_fractions)
    total_gb = workload.catalog.total_size_gb
    variability = NLANRRatioVariability()
    settings: Dict[str, Optional[ClientCloudConfig]] = {
        "unconstrained": None,
        "homogeneous": ClientCloudConfig(
            groups=client_groups, bandwidth=float(homogeneous_bandwidth)
        ),
        "heterogeneous": ClientCloudConfig(
            groups=client_groups, distribution=NLANRBandwidthDistribution()
        ),
    }
    sweeps: Dict[str, SweepResult] = {}
    for label, clouds in settings.items():
        config = SimulationConfig(
            variability=variability, client_clouds=clouds, seed=seed
        )
        sweep = sweep_cache_sizes(
            workload,
            _policy_factories(tuple(policies)),
            cache_sizes,
            config,
            num_runs,
            n_jobs=n_jobs,
        )
        sweep.parameter_name = "cache_fraction"
        sweep.parameter_values = [size / total_gb for size in sweep.parameter_values]
        sweeps[label] = sweep
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
def experiment_fault_tolerance(
    policies: Sequence[str] = ("PB",),
    cache_fraction: float = 0.05,
    scale: float = DEFAULT_SCALE,
    num_runs: int = 2,
    seed: int = 0,
    n_jobs: int = 1,
    outage_servers: int = 2,
    outage_start_fraction: float = 0.35,
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
      servers simultaneously (the worst credible correlated failure);
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
    restores cache effectiveness once the origin returns.  The grid is
    small and collects per-run fault reports, so it executes serially;
    ``n_jobs`` is accepted for CLI uniformity but does not fan out.
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
    reaction_settings: Dict[str, Dict[str, object]] = {
        "static": {},
        "reactive-passive": {
            "reactive_threshold": threshold,
            "reactive_passive": True,
            "reactive_hysteresis": hysteresis,
        },
    }
    base = SimulationConfig(
        cache_size_gb=cache_fraction * workload.catalog.total_size_gb,
        variability=NLANRRatioVariability(),
        bandwidth_knowledge=BandwidthKnowledge.PASSIVE,
        seed=seed,
    )
    # Measurement window for the recovery metric: warm-up extended to the
    # first request after the outage ends, so byte-hit is measured purely
    # on the post-outage tail.
    times = np.asarray([request.time for request in trace], dtype=np.float64)
    post_outage_index = int(np.searchsorted(times, outage_end, side="right"))
    recovery_warmup = min(post_outage_index / max(len(trace), 1), 0.95)
    comparisons: Dict[str, Dict[str, PolicyComparison]] = {}
    fault_counters: Dict[str, Dict[str, Dict[str, Dict[str, float]]]] = {}
    recovery_byte_hit: Dict[str, Dict[str, float]] = {}
    # One windowed timeline per reaction setting, captured for free off
    # the first outages run of the lead policy (the timeline does not
    # perturb the simulated results, so no extra run is needed): it is
    # the post-outage recovery curve docs/observability.md plots.
    recovery_window_s = max(span / 40.0, 1.0)
    recovery_timelines: Dict[str, object] = {}
    for fault_label, faults in fault_settings.items():
        comparisons[fault_label] = {}
        fault_counters[fault_label] = {}
        for reaction_label, overrides in reaction_settings.items():
            config = replace(base, faults=faults, **overrides)
            comparison = PolicyComparison()
            counters_by_policy: Dict[str, Dict[str, float]] = {}
            for policy_name in policies:
                per_run = []
                totals = {
                    "degraded_requests": 0.0,
                    "retried_requests": 0.0,
                    "failed_fetches": 0.0,
                    "stale_serves": 0.0,
                    "failed_requests": 0.0,
                    "recovered_outages": 0.0,
                    "shifts": 0.0,
                    "rekeys": 0.0,
                }
                mttr_values: List[float] = []
                for run_index in range(num_runs):
                    run_config = config.with_seed(config.seed + run_index)
                    if (fault_label == "outages" and run_index == 0
                            and policy_name == policies[0]):
                        run_config = run_config.with_observability(
                            ObservabilityConfig(window_s=recovery_window_s)
                        )
                    result = ProxyCacheSimulator(workload, run_config).run(
                        make_policy(policy_name)
                    )
                    if result.timeline is not None:
                        recovery_timelines[reaction_label] = result.timeline
                    per_run.append(result.metrics)
                    totals["shifts"] += result.reactive_shifts
                    totals["rekeys"] += result.reactive_rekeys
                    report = result.fault_report
                    if report is not None:
                        totals["degraded_requests"] += report.degraded_requests
                        totals["retried_requests"] += report.retried_requests
                        totals["failed_fetches"] += report.failed_fetches
                        totals["stale_serves"] += report.stale_serves
                        totals["failed_requests"] += report.failed_requests
                        totals["recovered_outages"] += len(report.recoveries)
                        if report.mean_time_to_recovery_s is not None:
                            mttr_values.append(report.mean_time_to_recovery_s)
                totals["mean_time_to_recovery_s"] = (
                    float(np.mean(mttr_values)) if mttr_values else float("nan")
                )
                comparison.metrics_by_policy[policy_name] = (
                    SimulationMetrics.average(per_run)
                )
                counters_by_policy[policy_name] = totals
            comparisons[fault_label][reaction_label] = comparison
            fault_counters[fault_label][reaction_label] = counters_by_policy
            if fault_label == "outages":
                recovery_config = replace(config, warmup_fraction=recovery_warmup)
                byte_hits = []
                for run_index in range(num_runs):
                    run_config = recovery_config.with_seed(
                        recovery_config.seed + run_index
                    )
                    result = ProxyCacheSimulator(workload, run_config).run(
                        make_policy(policies[0])
                    )
                    byte_hits.append(result.metrics.byte_hit_ratio)
                recovery_byte_hit.setdefault(reaction_label, {})[
                    policies[0]
                ] = float(np.mean(byte_hits))
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
    reaction_settings: Dict[str, Dict[str, object]] = {
        "static": {},
        "reactive-passive": {
            "reactive_threshold": threshold,
            "reactive_passive": True,
            "reactive_hysteresis": hysteresis,
        },
    }
    base = SimulationConfig(
        cache_size_gb=cache_fraction * workload.catalog.total_size_gb,
        variability=NLANRRatioVariability(),
        bandwidth_knowledge=BandwidthKnowledge.PASSIVE,
        client_clouds=ClientCloudConfig(
            groups=client_groups, distribution=NLANRBandwidthDistribution()
        ),
        seed=seed,
    )
    comparisons: Dict[str, Dict[str, PolicyComparison]] = {}
    qoe: Dict[str, Dict[str, Dict[str, Dict[str, float]]]] = {}
    for caching_label, streaming in caching_settings.items():
        comparisons[caching_label] = {}
        qoe[caching_label] = {}
        for reaction_label, overrides in reaction_settings.items():
            config = replace(base, streaming=streaming, **overrides)
            comparison = PolicyComparison()
            qoe_by_policy: Dict[str, Dict[str, float]] = {}
            for policy_name in policies:
                per_run = []
                reports = []
                for run_index in range(num_runs):
                    run_config = config.with_seed(config.seed + run_index)
                    result = ProxyCacheSimulator(workload, run_config).run(
                        make_policy(policy_name)
                    )
                    per_run.append(result.metrics)
                    reports.append(result.streaming_report)
                comparison.metrics_by_policy[policy_name] = (
                    SimulationMetrics.average(per_run)
                )
                qoe_by_policy[policy_name] = {
                    "mean_startup_delay_s": float(
                        np.mean([r.mean_startup_delay_s for r in reports])
                    ),
                    "rebuffer_ratio": float(
                        np.mean([r.rebuffer_ratio for r in reports])
                    ),
                    "mean_quality": float(
                        np.mean([r.mean_quality for r in reports])
                    ),
                    "abandonment_rate": float(
                        np.mean([r.abandonment_rate for r in reports])
                    ),
                    "waited_sessions": float(
                        np.mean([r.waited_sessions for r in reports])
                    ),
                    "degraded_sessions": float(
                        np.mean([r.degraded_sessions for r in reports])
                    ),
                    "abandoned_sessions": float(
                        np.mean([r.abandoned_sessions for r in reports])
                    ),
                    "prefetch_extensions": float(
                        np.mean([r.prefetch_extensions for r in reports])
                    ),
                    "pressure_trimmed_kb": float(
                        np.mean([r.pressure_trimmed_kb for r in reports])
                    ),
                }
            comparisons[caching_label][reaction_label] = comparison
            qoe[caching_label][reaction_label] = qoe_by_policy
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
    object at a peer edge, which prefix admission rarely holds.

    Each cell needs its per-run hierarchy reports, so the grid executes
    serially; ``n_jobs`` is accepted for CLI uniformity but does not fan
    out.
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
    base = SimulationConfig(
        cache_size_gb=cache_fraction * workload.catalog.total_size_gb,
        variability=NLANRRatioVariability(),
        bandwidth_knowledge=BandwidthKnowledge.PASSIVE,
        client_clouds=ClientCloudConfig(
            groups=client_groups, distribution=NLANRBandwidthDistribution()
        ),
        seed=seed,
    )
    comparisons: Dict[str, PolicyComparison] = {}
    reports: Dict[str, Dict[str, Dict[str, float]]] = {}
    for setting_label, hierarchy in hierarchy_settings.items():
        config = base.with_hierarchy(hierarchy)
        comparison = PolicyComparison()
        reports_by_policy: Dict[str, Dict[str, float]] = {}
        for policy_name in policies:
            per_run = []
            run_reports = []
            for run_index in range(num_runs):
                run_config = config.with_seed(config.seed + run_index)
                result = ProxyCacheSimulator(workload, run_config).run(
                    make_policy(policy_name)
                )
                per_run.append(result.metrics)
                run_reports.append(result.hierarchy_report)
            comparison.metrics_by_policy[policy_name] = (
                SimulationMetrics.average(per_run)
            )
            keys = run_reports[0].as_dict().keys()
            reports_by_policy[policy_name] = {
                key: float(np.mean([r.as_dict()[key] for r in run_reports]))
                for key in keys
            }
        comparisons[setting_label] = comparison
        reports[setting_label] = reports_by_policy
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
