"""Experiment harness and report formatting.

* :mod:`repro.analysis.experiments` — one entry point per paper table/figure,
* :mod:`repro.analysis.report` — plain-text tables of the resulting series.
"""

from repro.analysis.experiments import (
    DEFAULT_CACHE_FRACTIONS,
    ExperimentResult,
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
from repro.analysis.report import format_comparison, format_sweep_table, render_experiment

__all__ = [
    "DEFAULT_CACHE_FRACTIONS",
    "ExperimentResult",
    "experiment_fig2_bandwidth_distribution",
    "experiment_fig3_bandwidth_variability",
    "experiment_fig4_measured_paths",
    "experiment_fig5_constant_bandwidth",
    "experiment_fig6_zipf_sweep",
    "experiment_fig7_high_variability",
    "experiment_fig8_low_variability",
    "experiment_fig9_estimator_sweep",
    "experiment_fig10_value_constant",
    "experiment_fig11_value_variable",
    "experiment_fig12_value_estimator",
    "experiment_table1_workload",
    "format_comparison",
    "format_sweep_table",
    "render_experiment",
]
