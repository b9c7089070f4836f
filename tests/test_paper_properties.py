"""The paper's claims: the orderings its table and figures report.

These are the repository's "does it reproduce the paper?" tests, one class
per artefact of the evaluation (Jin, Bestavros & Iyengar, ICDCS 2002:
Table 1 and Figures 2-12) and per ablation of a design decision the paper
leaves open.  They assert the *shape* of the results (which policy wins on
which metric) rather than absolute numbers, on two kinds of run:

* single-cache-size comparisons on a 1/25-scale Table 1 workload (200
  objects, 4,000 requests, 3 runs); and
* the experiment entry points of :mod:`repro.analysis.experiments` at 1/10
  of the paper's volume (500 objects, 10,000 requests), 2 runs per point,
  seed 0.  Each experiment runs once per module, through a module-scoped
  fixture.

Where the reduced scale leaves two curves close, an assertion carries a
stated slack; the full-scale curves in the paper do not cross at all.
"""

from typing import Dict

import pytest

from repro.analysis.experiments import (
    build_workload,
    cache_sizes_gb_for,
    experiment_fig2_bandwidth_distribution,
    experiment_fig3_bandwidth_variability,
    experiment_fig4_measured_paths,
    experiment_fig5_constant_bandwidth,
    experiment_fig6_zipf_sweep,
    experiment_fig7_high_variability,
    experiment_fig8_low_variability,
    experiment_fig9_estimator_sweep,
    experiment_fig10_value_constant,
    experiment_fig11_value_variable,
    experiment_fig12_value_estimator,
    experiment_table1_workload,
)
from repro.core.policies import make_policy
from repro.network.variability import (
    ConstantVariability,
    MeasuredPathVariability,
    NLANRRatioVariability,
)
from repro.sim.config import BandwidthKnowledge, SimulationConfig
from repro.sim.runner import SweepResult, compare_policies
from repro.workload.gismo import GismoWorkloadGenerator, WorkloadConfig

#: Experiment scale: 1/10 of the paper's volume, which keeps the
#: qualitative orderings while each experiment runs in about a second.
SCALE = 0.1

#: Runs averaged per data point (the paper uses ten).
RUNS = 2

#: Cache sizes of the Figure 5/7/8/10/11 sweeps, as fractions of the
#: unique object size.
CACHE_FRACTIONS = (0.005, 0.05, 0.17)

#: Cache sizes of the Figure 6/9/12 surfaces, which add a second axis.
SURFACE_FRACTIONS = (0.05, 0.17)

#: Figure 6's Zipf skews and Figures 9/12's estimator values.
ALPHAS = (0.6, 0.9, 1.2)
ESTIMATOR_VALUES = (0.2, 0.5, 1.0)

#: Re-measurement cadence (seconds per path) of the Figure 9/12 ablation
#: surfaces.
REMEASURE_INTERVAL = 600.0

#: Cache size of the ablations, as a fraction of the unique object size.
ABLATION_FRACTION = 0.05

#: One worker process per CPU; results are byte-identical to serial runs.
JOBS = -1

SWEEP = dict(
    scale=SCALE, num_runs=RUNS, cache_fractions=CACHE_FRACTIONS, seed=0, n_jobs=JOBS
)
SURFACE = dict(
    scale=SCALE, num_runs=RUNS, cache_fractions=SURFACE_FRACTIONS, seed=0, n_jobs=JOBS
)


def at(sweep: SweepResult, metric: str, index: int = -1) -> Dict[str, float]:
    """Every policy's ``metric`` at one cache size (the largest by default)."""
    return {policy: sweep.series(policy, metric)[index] for policy in sweep.policies()}


# ----------------------------------------------------------------------
# The 1/25-scale workload and its comparisons.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def workload():
    """A 1/25-scale Table 1 workload (200 objects, 4,000 requests)."""
    return GismoWorkloadGenerator(
        WorkloadConfig(num_objects=200, num_requests=4_000, num_servers=50, seed=42)
    ).generate()


def run_comparison(workload, policies, cache_fraction, variability=None, runs=3):
    config = SimulationConfig(
        cache_size_gb=cache_fraction * workload.catalog.total_size_gb,
        variability=variability or ConstantVariability(),
        seed=7,
    )
    return compare_policies(
        workload, {name: (lambda n=name: make_policy(n)) for name in policies}, config, runs
    )


@pytest.fixture(scope="module")
def figure5_comparison(workload):
    """IF / PB / IB at a mid-range cache size under constant bandwidth."""
    return run_comparison(workload, ("IF", "PB", "IB"), cache_fraction=0.05)


@pytest.fixture(scope="module")
def measured_comparison(workload):
    """IF / PB / IB at the same cache size under measured-path variability."""
    return run_comparison(
        workload,
        ("IF", "PB", "IB"),
        cache_fraction=0.05,
        variability=MeasuredPathVariability("average"),
    )


@pytest.fixture(scope="module")
def value_comparison(workload):
    """IF / PB-V / IB-V at the same cache size under constant bandwidth."""
    return run_comparison(workload, ("IF", "PB-V", "IB-V"), cache_fraction=0.05)


# ----------------------------------------------------------------------
# The scale-0.1 experiments, one run each.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def table1_summary():
    return experiment_table1_workload(scale=SCALE, seed=0).data["summary"]


@pytest.fixture(scope="module")
def fig2_data():
    return experiment_fig2_bandwidth_distribution(num_records=20_000, seed=0).data


@pytest.fixture(scope="module")
def fig3_data():
    return experiment_fig3_bandwidth_variability(num_records=20_000, seed=0).data


@pytest.fixture(scope="module")
def fig4_data():
    return experiment_fig4_measured_paths(seed=0).data


@pytest.fixture(scope="module")
def fig5_sweep():
    return experiment_fig5_constant_bandwidth(**SWEEP).data["sweep"]


@pytest.fixture(scope="module")
def fig6_surfaces():
    return experiment_fig6_zipf_sweep(alphas=ALPHAS, **SURFACE).data["sweeps_by_alpha"]


@pytest.fixture(scope="module")
def fig7_sweep():
    return experiment_fig7_high_variability(**SWEEP).data["sweep"]


@pytest.fixture(scope="module")
def fig8_sweep():
    return experiment_fig8_low_variability(**SWEEP).data["sweep"]


@pytest.fixture(scope="module")
def fig9_data():
    return experiment_fig9_estimator_sweep(
        estimator_values=ESTIMATOR_VALUES,
        remeasurement_interval=REMEASURE_INTERVAL,
        **SURFACE,
    ).data


@pytest.fixture(scope="module")
def fig10_sweep():
    return experiment_fig10_value_constant(**SWEEP).data["sweep"]


@pytest.fixture(scope="module")
def fig11_sweep():
    return experiment_fig11_value_variable(**SWEEP).data["sweep"]


@pytest.fixture(scope="module")
def fig12_data():
    return experiment_fig12_value_estimator(
        estimator_values=ESTIMATOR_VALUES,
        remeasurement_interval=REMEASURE_INTERVAL,
        **SURFACE,
    ).data


@pytest.fixture(scope="module")
def experiment_workload():
    """The scale-0.1 Table 1 workload the experiments build, for the ablations."""
    return build_workload(scale=SCALE, seed=0)


def run_ablation(workload, policies, **config):
    """``policies`` at the ablation cache size, seed 0, :data:`RUNS` runs."""
    cache_gb = cache_sizes_gb_for(workload, (ABLATION_FRACTION,))[0]
    return compare_policies(
        workload,
        {name: (lambda n=name: make_policy(n)) for name in policies},
        SimulationConfig(cache_size_gb=cache_gb, seed=0, **config),
        num_runs=RUNS,
    )


@pytest.fixture(scope="module")
def knowledge_comparisons(experiment_workload):
    """PB and IF under measured-path variability, per bandwidth knowledge."""
    return {
        knowledge: run_ablation(
            experiment_workload,
            ("PB", "IF"),
            variability=MeasuredPathVariability("average"),
            bandwidth_knowledge=knowledge,
        )
        for knowledge in (BandwidthKnowledge.ORACLE, BandwidthKnowledge.PASSIVE)
    }


@pytest.fixture(scope="module")
def warmup_metrics(experiment_workload):
    """PB's metrics per warm-up fraction: the paper's 0.5, and a cold start."""
    return {
        warmup: run_ablation(
            experiment_workload, ("PB",), warmup_fraction=warmup
        ).metrics_by_policy["PB"]
        for warmup in (0.5, 0.0)
    }


class TestTable1Workload:
    def test_counts_are_the_papers_scaled(self, table1_summary):
        assert table1_summary["objects"] == 5_000 * SCALE
        assert table1_summary["requests"] == 100_000 * SCALE

    def test_popularity_and_bitrate_are_the_papers(self, table1_summary):
        assert table1_summary["zipf_alpha"] == pytest.approx(0.73)
        assert table1_summary["mean_bitrate_kbps"] == pytest.approx(48.0)

    def test_duration_and_total_size_are_the_papers(self, table1_summary):
        # Mean duration about 55 minutes; the total unique size, extrapolated
        # to the paper's volume, about 790 GB.
        assert table1_summary["mean_duration_s"] / 60.0 == pytest.approx(55.0, rel=0.15)
        assert table1_summary["total_size_gb"] / SCALE == pytest.approx(790.0, rel=0.15)


class TestFigure2BandwidthDistribution:
    def test_fractions_below_50_and_100_kbps(self, fig2_data):
        below_50 = fig2_data["fraction_below_50"]
        below_100 = fig2_data["fraction_below_100"]
        # Paper: 37% below 50 KB/s, 56% below 100 KB/s.
        assert 0.25 < below_50 < 0.50
        assert 0.45 < below_100 < 0.70
        assert below_100 > below_50


class TestFigure3BandwidthVariability:
    def test_sample_to_mean_ratios(self, fig3_data):
        # Paper: "in about 70% of the cases the sample bandwidth is 0.5-1.5x the mean".
        assert 0.55 < fig3_data["fraction_in_half_band"] < 0.85
        # The NLANR model is the high-variability one.
        assert fig3_data["coefficient_of_variation"] > 0.4
        assert fig3_data["max_ratio"] > 1.5


class TestFigure4MeasuredPaths:
    def test_measured_paths_vary_less_than_the_cache_logs(self, fig4_data):
        nlanr_cov = NLANRRatioVariability().coefficient_of_variation()
        for cov in fig4_data["coefficients_of_variation"].values():
            assert cov < nlanr_cov

    def test_inria_is_the_smoothest_path(self, fig4_data):
        covs = fig4_data["coefficients_of_variation"]
        assert covs["inria"] == min(covs.values())

    def test_series_have_the_published_sampling(self, fig4_data):
        # One sample every 4 minutes.
        inria = fig4_data["paths"]["inria"]
        assert len(inria["times_hours"]) == len(inria["bandwidth_kbps"])
        assert len(inria["bandwidth_kbps"]) > 300


class TestFigure5ConstantBandwidth:
    def test_if_has_highest_traffic_reduction(self, figure5_comparison):
        trr = figure5_comparison.metric("traffic_reduction_ratio")
        assert trr["IF"] == max(trr.values())

    def test_pb_has_lowest_traffic_reduction(self, figure5_comparison):
        trr = figure5_comparison.metric("traffic_reduction_ratio")
        assert trr["PB"] == min(trr.values())

    def test_pb_has_lowest_delay(self, figure5_comparison):
        delay = figure5_comparison.metric("average_service_delay")
        assert delay["PB"] == min(delay.values())

    def test_if_has_highest_delay(self, figure5_comparison):
        delay = figure5_comparison.metric("average_service_delay")
        assert delay["IF"] == max(delay.values())

    def test_pb_has_highest_quality(self, figure5_comparison):
        quality = figure5_comparison.metric("average_stream_quality")
        assert quality["PB"] == max(quality.values())

    def test_ib_lies_between_the_extremes_on_delay(self, figure5_comparison):
        delay = figure5_comparison.metric("average_service_delay")
        assert delay["PB"] <= delay["IB"] <= delay["IF"]

    def test_sweep_orders_every_cache_size(self, fig5_sweep):
        # A 2% slack per step absorbs the run-to-run noise of the scale.
        slack = 0.02
        for index in range(len(fig5_sweep.parameter_values)):
            trr = at(fig5_sweep, "traffic_reduction_ratio", index)
            delay = at(fig5_sweep, "average_service_delay", index)
            quality = at(fig5_sweep, "average_stream_quality", index)
            # Figure 5(a): IF highest traffic reduction, PB lowest.
            assert trr["IF"] >= trr["IB"] * (1 - slack) >= trr["PB"] * (1 - slack) ** 2
            # Figure 5(b): PB lowest delay, IF highest; IB in between.
            assert delay["PB"] <= delay["IB"] * (1 + slack) <= delay["IF"] * (1 + slack) ** 2
            # Figure 5(c): PB highest quality, IF lowest.
            assert quality["PB"] >= quality["IB"] * (1 - slack) >= quality["IF"] * (1 - slack) ** 2

    def test_sweep_separates_if_and_pb_at_the_largest_cache(self, fig5_sweep):
        trr = at(fig5_sweep, "traffic_reduction_ratio")
        assert trr["IF"] > trr["PB"]
        delay = at(fig5_sweep, "average_service_delay")
        assert delay["PB"] < delay["IF"]
        quality = at(fig5_sweep, "average_stream_quality")
        assert quality["PB"] > quality["IF"]

    def test_larger_caches_lower_every_policys_delay(self, fig5_sweep):
        for policy in fig5_sweep.policies():
            series = fig5_sweep.series(policy, "average_service_delay")
            assert series[-1] <= series[0]


class TestFigure6TemporalLocality:
    def test_stronger_zipf_skew_improves_both_policies(self):
        results = {}
        for alpha in (0.5, 1.1):
            workload = GismoWorkloadGenerator(
                WorkloadConfig(
                    num_objects=200, num_requests=4_000, num_servers=50,
                    zipf_alpha=alpha, seed=13,
                )
            ).generate()
            results[alpha] = run_comparison(workload, ("PB", "IB"), cache_fraction=0.05)
        for policy in ("PB", "IB"):
            low = results[0.5].metrics_by_policy[policy]
            high = results[1.1].metrics_by_policy[policy]
            assert high.traffic_reduction_ratio > low.traffic_reduction_ratio
            assert high.average_service_delay < low.average_service_delay

    # The locality effect is most visible at the modest cache size (the
    # first point of the surface): the cache cannot hold everything, so
    # concentrating requests on fewer objects directly improves what it
    # does hold.
    def test_larger_alpha_lowers_both_policies_delay(self, fig6_surfaces):
        lowest, highest = min(ALPHAS), max(ALPHAS)
        for policy in ("PB", "IB"):
            assert (
                at(fig6_surfaces[highest], "average_service_delay", 0)[policy]
                < at(fig6_surfaces[lowest], "average_service_delay", 0)[policy]
            )

    def test_larger_alpha_raises_traffic_reduction(self, fig6_surfaces):
        low = at(fig6_surfaces[min(ALPHAS)], "traffic_reduction_ratio", 0)
        high = at(fig6_surfaces[max(ALPHAS)], "traffic_reduction_ratio", 0)
        # The whole-object policy benefits directly.  PB's traffic reduction
        # depends on whether the hottest objects sit behind slow paths, so
        # at this scale it must only not collapse.
        assert high["IB"] > low["IB"]
        assert high["PB"] > low["PB"] * 0.5

    def test_ib_pb_ordering_holds_at_every_alpha(self, fig6_surfaces):
        # IB reduces more traffic, PB achieves lower delay.
        for alpha in ALPHAS:
            trr = at(fig6_surfaces[alpha], "traffic_reduction_ratio")
            delay = at(fig6_surfaces[alpha], "average_service_delay")
            assert trr["IB"] >= trr["PB"] * 0.98
            assert delay["PB"] <= delay["IB"] * 1.02


class TestFigure7HighVariability:
    """The Figure 5 sweep under the NLANR sample-to-mean model; Figure 5's
    own sweep is the constant-bandwidth reference."""

    def test_variability_raises_every_policys_delay(self, fig7_sweep, fig5_sweep):
        variable = at(fig7_sweep, "average_service_delay")
        constant = at(fig5_sweep, "average_service_delay")
        for policy in fig7_sweep.policies():
            assert variable[policy] >= constant[policy]

    def test_variability_does_not_raise_quality(self, fig7_sweep, fig5_sweep):
        variable = at(fig7_sweep, "average_stream_quality")
        constant = at(fig5_sweep, "average_stream_quality")
        for policy in fig7_sweep.policies():
            assert variable[policy] <= constant[policy] + 0.02

    def test_traffic_reduction_barely_changes(self, fig7_sweep, fig5_sweep):
        # Figure 7(a) vs Figure 5(a).
        variable = at(fig7_sweep, "traffic_reduction_ratio")
        constant = at(fig5_sweep, "traffic_reduction_ratio")
        for policy in fig7_sweep.policies():
            assert abs(variable[policy] - constant[policy]) < 0.08

    def test_ib_is_no_worse_than_pb_on_delay(self, fig7_sweep):
        # PB loses its delay advantage (IB within noise of it, or better).
        delay = at(fig7_sweep, "average_service_delay")
        assert delay["IB"] <= delay["PB"] * 1.25

    def test_pb_still_beats_if_on_delay(self, fig7_sweep):
        delay = at(fig7_sweep, "average_service_delay")
        assert delay["PB"] <= delay["IF"]


class TestFigure8LowVariability:
    """Measured-path variability: the 1/25-scale comparisons use the
    ``average`` and ``inria`` paths, the sweep uses ``average``."""

    def test_variability_increases_delay_for_all_policies(
        self, measured_comparison, figure5_comparison
    ):
        for policy in ("IF", "PB", "IB"):
            assert (
                measured_comparison.metrics_by_policy[policy].average_service_delay
                >= figure5_comparison.metrics_by_policy[policy].average_service_delay * 0.95
            )

    def test_low_variability_keeps_pb_ahead_on_delay(self, workload):
        comparison = run_comparison(
            workload,
            ("IF", "PB", "IB"),
            cache_fraction=0.05,
            variability=MeasuredPathVariability("inria"),
        )
        delay = comparison.metric("average_service_delay")
        assert delay["PB"] <= delay["IF"]
        assert delay["PB"] <= delay["IB"] * 1.1

    def test_traffic_reduction_insensitive_to_variability(
        self, measured_comparison, figure5_comparison
    ):
        for policy in ("IF", "PB", "IB"):
            constant_trr = figure5_comparison.metrics_by_policy[policy].traffic_reduction_ratio
            variable_trr = measured_comparison.metrics_by_policy[policy].traffic_reduction_ratio
            assert variable_trr == pytest.approx(constant_trr, abs=0.08)

    def test_sweep_pb_beats_both_integral_policies(self, fig8_sweep):
        # Figure 8(b)/(c).
        delay = at(fig8_sweep, "average_service_delay")
        quality = at(fig8_sweep, "average_stream_quality")
        assert delay["PB"] <= delay["IF"]
        assert delay["PB"] <= delay["IB"] * 1.05
        assert quality["PB"] >= quality["IF"]

    def test_sweep_keeps_the_traffic_reduction_order(self, fig8_sweep):
        trr = at(fig8_sweep, "traffic_reduction_ratio")
        assert trr["IF"] >= trr["IB"] * 0.98 >= trr["PB"] * 0.96


class TestFigure9EstimatorSpectrum:
    def test_smaller_e_reduces_traffic_more(self, workload):
        config = SimulationConfig(
            cache_size_gb=0.05 * workload.catalog.total_size_gb,
            variability=MeasuredPathVariability("average"),
            seed=7,
        )
        comparison = compare_policies(
            workload,
            {
                "e=0.3": lambda: make_policy("PB", estimator_e=0.3),
                "e=1.0": lambda: make_policy("PB", estimator_e=1.0),
            },
            config,
            num_runs=3,
        )
        trr = comparison.metric("traffic_reduction_ratio")
        # Conservative estimation caches bigger prefixes of fewer objects,
        # which serves more bytes from the cache for the hottest objects.
        assert trr["e=0.3"] >= trr["e=1.0"]

    def test_smaller_e_reduces_traffic_at_every_cache_size(self, fig9_data):
        # Figure 9(a): the smaller e, the higher the traffic reduction.
        smallest = fig9_data["sweeps_by_e"][min(ESTIMATOR_VALUES)]
        largest = fig9_data["sweeps_by_e"][max(ESTIMATOR_VALUES)]
        for index in range(len(SURFACE_FRACTIONS)):
            assert (
                smallest.series("PB(e)", "traffic_reduction_ratio")[index]
                >= largest.series("PB(e)", "traffic_reduction_ratio")[index] * 0.98
            )

    def test_best_delay_is_no_worse_than_pure_pb(self, fig9_data):
        # Figure 9(b): conservative estimation does not hurt, and often
        # helps, under variability.
        surfaces = fig9_data["sweeps_by_e"]
        best_delay = min(
            surfaces[e].series("PB(e)", "average_service_delay")[-1] for e in ESTIMATOR_VALUES
        )
        pure_pb = surfaces[max(ESTIMATOR_VALUES)].series("PB(e)", "average_service_delay")[-1]
        assert best_delay <= pure_pb * 1.001

    def test_remeasurement_ablation_spans_the_same_grid(self, fig9_data):
        # Passive knowledge with and without out-of-band re-measurement
        # (docs/events.md); its delta is reported, not asserted, because
        # its sign depends on the variability model and the cadence.
        assert (
            set(fig9_data["sweeps_by_e_passive"])
            == set(fig9_data["sweeps_by_e_remeasured"])
            == set(fig9_data["sweeps_by_e"])
        )
        assert fig9_data["remeasurement_interval"] == REMEASURE_INTERVAL


class TestFigure10ValueConstant:
    def test_value_policies_beat_if_on_added_value(self, value_comparison):
        value = value_comparison.metric("total_added_value")
        assert value["PB-V"] >= value["IF"]
        assert value["IB-V"] >= value["IF"]

    def test_if_beats_value_policies_on_traffic_reduction(self, value_comparison):
        trr = value_comparison.metric("traffic_reduction_ratio")
        assert trr["IF"] == max(trr.values())

    def test_pbv_leads_on_value_under_constant_bandwidth(self, workload):
        comparison = run_comparison(workload, ("PB-V", "IB-V"), cache_fraction=0.02)
        value = comparison.metric("total_added_value")
        assert value["PB-V"] >= value["IB-V"] * 0.97

    def test_sweep_orders_every_cache_size(self, fig10_sweep):
        for index in range(len(fig10_sweep.parameter_values)):
            trr = at(fig10_sweep, "traffic_reduction_ratio", index)
            value = at(fig10_sweep, "total_added_value", index)
            # Figure 10(a): IF reduces the most traffic.
            assert trr["IF"] >= trr["IB-V"] * 0.98
            assert trr["IF"] >= trr["PB-V"] * 0.98
            # Figure 10(b): the value-aware policies add at least IF's value.
            assert value["PB-V"] >= value["IF"] * 0.98
            assert value["IB-V"] >= value["IF"] * 0.98

    def test_sweep_pbv_beats_if_on_value_at_the_largest_cache(self, fig10_sweep):
        value = at(fig10_sweep, "total_added_value")
        assert value["PB-V"] > value["IF"]


class TestFigure11ValueVariable:
    def test_if_still_reduces_the_most_traffic(self, fig11_sweep):
        trr = at(fig11_sweep, "traffic_reduction_ratio")
        assert trr["IF"] >= max(trr["PB-V"], trr["IB-V"]) * 0.98

    def test_value_policies_keep_up_with_if_on_value(self, fig11_sweep):
        # PB-V sizes its prefixes for the *average* bandwidth, so under
        # variability its value advantage over IF shrinks: the effect that
        # motivates Figure 12's moderate e.
        value = at(fig11_sweep, "total_added_value")
        assert value["IB-V"] >= value["IF"] * 0.98
        assert value["PB-V"] >= value["IF"] * 0.90

    def test_ibv_is_the_compromise(self, fig11_sweep):
        # Clearly more traffic reduction than PB-V, and within 10% of its value.
        trr = at(fig11_sweep, "traffic_reduction_ratio")
        value = at(fig11_sweep, "total_added_value")
        assert trr["IB-V"] >= trr["PB-V"]
        assert value["IB-V"] >= value["PB-V"] * 0.90


class TestFigure12ValueEstimator:
    def test_smaller_e_reduces_traffic_more(self, fig12_data):
        surfaces = fig12_data["sweeps_by_e"]
        assert (
            surfaces[min(ESTIMATOR_VALUES)].series("PB-V(e)", "traffic_reduction_ratio")[-1]
            >= surfaces[max(ESTIMATOR_VALUES)].series("PB-V(e)", "traffic_reduction_ratio")[-1]
            * 0.98
        )

    def test_best_value_beats_pure_pbv_and_ibv(self, fig12_data):
        # The paper's headline claim for value-based caching.
        surfaces = fig12_data["sweeps_by_e"]
        best_value = max(
            surfaces[e].series("PB-V(e)", "total_added_value")[-1] for e in ESTIMATOR_VALUES
        )
        pure = surfaces[max(ESTIMATOR_VALUES)].series("PB-V(e)", "total_added_value")[-1]
        reference = fig12_data["ibv_reference"].series("IB-V", "total_added_value")[-1]
        assert best_value >= pure * 0.999
        assert best_value >= reference * 0.95

    def test_remeasurement_ablation_spans_the_same_grid(self, fig12_data):
        assert (
            set(fig12_data["sweeps_by_e_passive"])
            == set(fig12_data["sweeps_by_e_remeasured"])
            == set(fig12_data["sweeps_by_e"])
        )


class TestBandwidthKnowledgeAblation:
    """Section 2.7 discusses active and passive measurement, but the
    evaluation assumes the cache knows each path's average bandwidth.  A
    passive EWMA estimate starts at a fixed prior and converges as
    transfers accumulate, so PB's delay degrades somewhat against the
    oracle while its ordering against IF holds."""

    def test_passive_delay_within_twice_the_oracle(self, knowledge_comparisons):
        oracle = knowledge_comparisons[BandwidthKnowledge.ORACLE].metrics_by_policy["PB"]
        passive = knowledge_comparisons[BandwidthKnowledge.PASSIVE].metrics_by_policy["PB"]
        assert passive.average_service_delay <= oracle.average_service_delay * 2.0

    def test_passive_pb_still_beats_if_on_delay(self, knowledge_comparisons):
        delay = knowledge_comparisons[BandwidthKnowledge.PASSIVE].metric(
            "average_service_delay"
        )
        assert delay["PB"] <= delay["IF"]


class TestWarmupAblation:
    """The paper measures over the second half of the trace after warming
    the cache with the first half (Section 4.1); a cold start measures the
    cache-less start too."""

    def test_cold_start_is_no_better_on_delay(self, warmup_metrics):
        assert (
            warmup_metrics[0.0].average_service_delay
            >= warmup_metrics[0.5].average_service_delay * 0.98
        )

    def test_both_protocols_serve_bytes_from_the_cache(self, warmup_metrics):
        assert warmup_metrics[0.5].traffic_reduction_ratio > 0.0
        assert warmup_metrics[0.0].traffic_reduction_ratio > 0.0


class TestNetworkAwareBeatsClassicBaselines:
    """The paper's IF strawman is LFU-like; the proxies of its time shipped
    LRU or GreedyDual-Size, the comparison that matters to anyone replacing
    a production cache policy."""

    def test_pb_beats_lru_on_delay_and_quality(self, workload):
        comparison = run_comparison(workload, ("PB", "LRU"), cache_fraction=0.05)
        assert (
            comparison.metrics_by_policy["PB"].average_service_delay
            < comparison.metrics_by_policy["LRU"].average_service_delay
        )
        assert (
            comparison.metrics_by_policy["PB"].average_stream_quality
            > comparison.metrics_by_policy["LRU"].average_stream_quality
        )

    def test_pb_beats_every_baseline_at_scale(self, experiment_workload):
        comparison = run_ablation(experiment_workload, ("PB", "LRU", "GDS", "GDSP"))
        delay = comparison.metric("average_service_delay")
        quality = comparison.metric("average_stream_quality")
        for baseline in ("LRU", "GDS", "GDSP"):
            assert delay["PB"] <= delay[baseline]
            assert quality["PB"] >= quality[baseline] - 1e-9
