"""Tests for the per-figure experiment harness (run at reduced scale)."""

import pytest

from repro.analysis.experiments import (
    DEFAULT_CACHE_FRACTIONS,
    build_workload,
    cache_sizes_gb_for,
    experiment_fig2_bandwidth_distribution,
    experiment_fig3_bandwidth_variability,
    experiment_fig4_measured_paths,
    experiment_fig5_constant_bandwidth,
    experiment_fig6_zipf_sweep,
    experiment_fig9_estimator_sweep,
    experiment_fig10_value_constant,
    experiment_reactive_rekeying,
    experiment_streaming_delivery,
    experiment_table1_workload,
)
from repro.exceptions import ConfigurationError
from repro.sim.runner import SweepResult

# Tiny settings so the experiment harness itself is exercised quickly; the
# paper's claims are asserted at scale 0.1 in tests/test_paper_properties.py.
TINY = dict(scale=0.01, num_runs=1, cache_fractions=(0.02, 0.10), seed=0)


class TestBuildWorkload:
    def test_scaled_counts(self):
        workload = build_workload(scale=0.01, seed=1)
        assert len(workload.catalog) == 50
        assert len(workload.trace) == 1_000

    def test_invalid_scale(self):
        with pytest.raises(ConfigurationError):
            build_workload(scale=0.0)

    def test_columnar_keyword_accepts_only_true(self):
        assert len(build_workload(scale=0.01, seed=1, columnar=True).trace) == 1_000
        for value in (False, None, 1):
            with pytest.raises(ConfigurationError, match="columnar must be True"):
                build_workload(scale=0.01, columnar=value)

    def test_cache_sizes_follow_fractions(self):
        workload = build_workload(scale=0.01, seed=1)
        sizes = cache_sizes_gb_for(workload, (0.1, 0.2))
        assert sizes[1] == pytest.approx(2 * sizes[0])
        assert sizes[0] == pytest.approx(0.1 * workload.catalog.total_size_gb)


class TestBandwidthModelExperiments:
    def test_fig2_reports_anchor_fractions(self):
        result = experiment_fig2_bandwidth_distribution(num_records=5_000, seed=0)
        assert result.experiment_id == "fig2"
        assert result.data["fraction_below_100"] > result.data["fraction_below_50"]
        assert result.data["sample_count"] > 100

    def test_fig3_reports_ratio_statistics(self):
        result = experiment_fig3_bandwidth_variability(num_records=5_000, seed=0)
        assert result.data["coefficient_of_variation"] > 0.3
        assert 0.4 < result.data["fraction_in_half_band"] < 0.95

    def test_fig4_orders_paths_by_variability(self):
        result = experiment_fig4_measured_paths(seed=0)
        covs = result.data["coefficients_of_variation"]
        assert set(covs) == {"inria", "taiwan", "hongkong"}


class TestSimulationExperiments:
    def test_fig5_shapes(self):
        result = experiment_fig5_constant_bandwidth(**TINY)
        sweep = result.data["sweep"]
        assert isinstance(sweep, SweepResult)
        assert set(sweep.policies()) == {"IF", "PB", "IB"}
        assert sweep.parameter_name == "cache_fraction"
        assert sweep.parameter_values == pytest.approx(list(TINY["cache_fractions"]))

    def test_fig6_one_sweep_per_alpha(self):
        result = experiment_fig6_zipf_sweep(
            alphas=(0.5, 1.0), cache_fractions=(0.05,), scale=0.01, num_runs=1, seed=0
        )
        assert set(result.data["sweeps_by_alpha"]) == {0.5, 1.0}
        for sweep in result.data["sweeps_by_alpha"].values():
            assert set(sweep.policies()) == {"PB", "IB"}

    def test_fig9_one_sweep_per_estimator(self):
        result = experiment_fig9_estimator_sweep(
            estimator_values=(0.5, 1.0),
            cache_fractions=(0.05,),
            scale=0.01,
            num_runs=1,
            seed=0,
        )
        assert set(result.data["sweeps_by_e"]) == {0.5, 1.0}

    def test_fig10_uses_value_policies(self):
        result = experiment_fig10_value_constant(**TINY)
        assert set(result.data["sweep"].policies()) == {"IF", "PB-V", "IB-V"}

    def test_experiments_record_paper_notes(self):
        result = experiment_fig5_constant_bandwidth(**TINY)
        assert any("traffic reduction" in note.lower() for note in result.notes)

    def test_reactive_ablation_settings_and_counters(self):
        result = experiment_reactive_rekeying(
            policies=("PB",), scale=0.01, num_runs=1, seed=0
        )
        settings = result.data["settings"]
        assert settings == [
            "passive", "remeasured", "reactive-probe", "reactive-passive"
        ]
        comparisons = result.data["comparisons_by_setting"]
        counters = result.data["reactive_counters"]
        assert set(comparisons) == set(counters) == set(settings)
        # Non-reactive settings never shift; the reactive ones do, and the
        # passive-driven setting reacts to request observations too.
        assert counters["passive"]["PB"]["shifts"] == 0
        assert counters["remeasured"]["PB"]["shifts"] == 0
        assert counters["reactive-probe"]["PB"]["shifts"] > 0
        assert counters["reactive-passive"]["PB"]["shifts"] > 0
        for comparison in comparisons.values():
            assert comparison.policies() == ["PB"]


class TestStreamingExperiment:
    def test_ablation_grid_and_qoe_shape(self):
        result = experiment_streaming_delivery(
            policies=("PB",), scale=0.01, num_runs=1, seed=0
        )
        assert result.data["caching_settings"] == ["prefix", "whole-object"]
        assert result.data["reaction_settings"] == ["static", "reactive-passive"]
        comparisons = result.data["comparisons"]
        qoe = result.data["qoe"]
        assert set(comparisons) == set(qoe) == {"prefix", "whole-object"}
        for caching_label in comparisons:
            assert set(comparisons[caching_label]) == {
                "static",
                "reactive-passive",
            }
            for reaction_label, comparison in comparisons[caching_label].items():
                assert comparison.policies() == ["PB"]
                cell = qoe[caching_label][reaction_label]["PB"]
                assert cell["mean_startup_delay_s"] >= 0.0
                assert 0.0 <= cell["rebuffer_ratio"] <= 1.0
                assert 0.0 <= cell["mean_quality"] <= 1.0
                assert 0.0 <= cell["abandonment_rate"] <= 1.0
        # Only the prefix mode trims tails or extends prefetch windows.
        for reaction_label in ("static", "reactive-passive"):
            whole = qoe["whole-object"][reaction_label]["PB"]
            assert whole["pressure_trimmed_kb"] == 0.0
            assert whole["prefetch_extensions"] == 0.0

    def test_qoe_direction_prefix_no_worse_than_whole(self):
        # At this scale the margins are thin but the direction is
        # deterministic; the strict inequality at a more constrained cache
        # is asserted in tests/test_sim_streaming.py.
        result = experiment_streaming_delivery(
            policies=("PB",), scale=0.02, num_runs=1, seed=0
        )
        qoe = result.data["qoe"]
        for reaction_label in ("static", "reactive-passive"):
            prefix = qoe["prefix"][reaction_label]["PB"]
            whole = qoe["whole-object"][reaction_label]["PB"]
            assert (
                prefix["mean_startup_delay_s"] <= whole["mean_startup_delay_s"]
            )
            assert prefix["rebuffer_ratio"] <= whole["rebuffer_ratio"]


class TestTable1Experiment:
    def test_summary_matches_paper_at_full_scale_parameters(self):
        result = experiment_table1_workload(scale=0.02, seed=0)
        summary = result.data["summary"]
        assert summary["objects"] == 100.0
        assert summary["requests"] == 2_000.0
        assert summary["zipf_alpha"] == pytest.approx(0.73)
        # Mean bit-rate must be the paper's 48 KB/s.
        assert summary["mean_bitrate_kbps"] == pytest.approx(48.0)


def test_default_cache_fractions_span_paper_range():
    assert min(DEFAULT_CACHE_FRACTIONS) == pytest.approx(0.005)
    assert max(DEFAULT_CACHE_FRACTIONS) == pytest.approx(0.17)
