"""Plain-text reporting of experiment results.

The functions here turn :class:`~repro.sim.runner.SweepResult` and
:class:`~repro.sim.runner.PolicyComparison` objects into aligned text tables
of the kind ``repro experiment`` prints, mirroring the series each paper
figure plots.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.analysis.experiments import ExperimentResult
from repro.obs.timeline import MetricsTimeline
from repro.sim.runner import PolicyComparison, SweepResult

#: The metrics that correspond to the y-axes of the paper's figures.
FIGURE_METRICS: Dict[str, str] = {
    "traffic_reduction_ratio": "Traffic Reduction Ratio",
    "average_service_delay": "Average Service Delay (s)",
    "average_stream_quality": "Average Stream Quality",
    "total_added_value": "Total Added Value ($)",
}


def _format_row(cells: Sequence[str], widths: Sequence[int]) -> str:
    return "  ".join(cell.rjust(width) for cell, width in zip(cells, widths))


def format_sweep_table(sweep: SweepResult, metric_name: str, precision: int = 4) -> str:
    """Render one metric of a sweep as an aligned text table.

    The first column is the swept parameter; one column follows per policy,
    matching the curves in the corresponding paper figure.
    """
    policies = sweep.policies()
    header = [sweep.parameter_name] + policies
    rows: List[List[str]] = []
    for index, value in enumerate(sweep.parameter_values):
        row = [f"{value:.4g}"]
        for policy in policies:
            metric_value = getattr(sweep.metrics[policy][index], metric_name)
            row.append(f"{metric_value:.{precision}g}")
        rows.append(row)
    widths = [
        max(len(header[col]), max((len(r[col]) for r in rows), default=0))
        for col in range(len(header))
    ]
    lines = [_format_row(header, widths), _format_row(["-" * w for w in widths], widths)]
    lines.extend(_format_row(row, widths) for row in rows)
    return "\n".join(lines)


def format_comparison(comparison: PolicyComparison, precision: int = 4) -> str:
    """Render a policy comparison (all figure metrics, one row per policy)."""
    metric_names = list(FIGURE_METRICS)
    header = ["policy"] + [FIGURE_METRICS[name] for name in metric_names]
    rows: List[List[str]] = []
    for policy in comparison.policies():
        metrics = comparison.metrics_by_policy[policy]
        row = [policy] + [
            f"{getattr(metrics, name):.{precision}g}" for name in metric_names
        ]
        rows.append(row)
    widths = [
        max(len(header[col]), max((len(r[col]) for r in rows), default=0))
        for col in range(len(header))
    ]
    lines = [_format_row(header, widths), _format_row(["-" * w for w in widths], widths)]
    lines.extend(_format_row(row, widths) for row in rows)
    return "\n".join(lines)


#: Human-readable names for the per-window fault state levels.
_FAULT_STATES = {0: "ok", 1: "degraded", 2: "failed"}


def format_timeline(
    timeline: MetricsTimeline, max_rows: int = 12, precision: int = 4
) -> str:
    """Render a :class:`~repro.obs.timeline.MetricsTimeline` as a table.

    One row per simulated-time window: request count, hit and byte-hit
    ratios, mean service delay, cache occupancy, evictions, reactive
    re-keys, and the window's fault state.  Timelines longer than
    ``max_rows`` are subsampled at an even stride (the final window is
    always shown) with a trailing note, so recovery curves stay readable
    at any window width.
    """
    count = timeline.num_windows
    if count == 0:
        return "(empty timeline)"
    series = timeline.series()
    starts = timeline.window_starts()
    stride = max(1, -(-count // max_rows))
    indices = list(range(0, count, stride))
    if indices[-1] != count - 1:
        indices.append(count - 1)
    header = ["window_start", "requests", "hit_ratio", "byte_hit",
              "mean_delay", "occupancy", "evictions", "rekeys", "fault"]
    rows: List[List[str]] = []
    for index in indices:
        rows.append([
            f"{starts[index]:.6g}",
            f"{int(series['requests'][index])}",
            f"{series['hit_ratio'][index]:.{precision}g}",
            f"{series['byte_hit_ratio'][index]:.{precision}g}",
            f"{series['mean_delay'][index]:.{precision}g}",
            f"{series['cache_occupancy'][index]:.{precision}g}",
            f"{int(series['evictions'][index])}",
            f"{int(series['reactive_rekeys'][index])}",
            _FAULT_STATES.get(int(series["fault_state"][index]), "?"),
        ])
    widths = [
        max(len(header[col]), max((len(r[col]) for r in rows), default=0))
        for col in range(len(header))
    ]
    lines = [_format_row(header, widths), _format_row(["-" * w for w in widths], widths)]
    lines.extend(_format_row(row, widths) for row in rows)
    if stride > 1:
        lines.append(f"({count} windows of {timeline.window_s:g} s, "
                     f"showing every {stride}th)")
    return "\n".join(lines)


def render_experiment(result: ExperimentResult) -> str:
    """Render an :class:`ExperimentResult` the way ``repro experiment`` prints it.

    Sweep-based experiments get one table per figure metric; scalar-valued
    experiments (the bandwidth-model figures and Table 1) get key/value
    lines.  Paper notes are appended so the console output is
    self-describing.
    """
    lines: List[str] = [f"== {result.experiment_id}: {result.title} =="]

    sweep = result.data.get("sweep")
    if isinstance(sweep, SweepResult):
        for metric_name, label in FIGURE_METRICS.items():
            lines.append("")
            lines.append(f"-- {label} --")
            lines.append(format_sweep_table(sweep, metric_name))

    sweeps_by_key = None
    for key in ("sweeps_by_alpha", "sweeps_by_e", "sweeps_by_setting"):
        if key in result.data:
            sweeps_by_key = (key, result.data[key])
    if sweeps_by_key is not None:
        key_name, surfaces = sweeps_by_key
        for parameter_value, surface in surfaces.items():
            lines.append("")
            lines.append(f"-- {key_name[10:] or 'value'} = {parameter_value} --")
            lines.append(format_sweep_table(surface, "traffic_reduction_ratio"))
            lines.append(format_sweep_table(surface, "average_service_delay"))

    comparisons = result.data.get("comparisons_by_setting")
    if comparisons:
        counters = result.data.get("reactive_counters", {})
        for label, comparison in comparisons.items():
            lines.append("")
            lines.append(f"-- setting = {label} --")
            lines.append(format_comparison(comparison))
            setting_counters = counters.get(label)
            if setting_counters:
                summary = ", ".join(
                    f"{policy}: {c['shifts']} shifts / {c['rekeys']} rekeys"
                    + (f" / {c['suppressed']} suppressed" if c["suppressed"] else "")
                    for policy, c in setting_counters.items()
                )
                lines.append(f"   reactive: {summary}")

    grid = result.data.get("comparisons")
    if isinstance(grid, dict):
        qoe = result.data.get("qoe", {})
        for outer_label, inner in grid.items():
            if not isinstance(inner, dict):
                continue
            for inner_label, comparison in inner.items():
                if not isinstance(comparison, PolicyComparison):
                    continue
                lines.append("")
                lines.append(f"-- {outer_label} / {inner_label} --")
                lines.append(format_comparison(comparison))
                cell_qoe = qoe.get(outer_label, {}).get(inner_label)
                if cell_qoe:
                    for policy, values in cell_qoe.items():
                        summary = ", ".join(
                            f"{name}={float(value):.4g}"
                            for name, value in values.items()
                        )
                        lines.append(f"   QoE[{policy}]: {summary}")

    scalar_keys = [
        "fraction_below_50",
        "fraction_below_100",
        "sample_count",
        "mean_bandwidth",
        "coefficient_of_variation",
        "fraction_in_half_band",
        "mean",
        "max_ratio",
    ]
    scalars = {key: result.data[key] for key in scalar_keys if key in result.data}
    if scalars:
        lines.append("")
        for key, value in scalars.items():
            lines.append(f"{key}: {float(value):.4g}")

    if "summary" in result.data:
        lines.append("")
        for key, value in dict(result.data["summary"]).items():
            lines.append(f"{key}: {float(value):.6g}")

    if "coefficients_of_variation" in result.data:
        lines.append("")
        for path, cov in result.data["coefficients_of_variation"].items():
            lines.append(f"cov[{path}]: {float(cov):.4g}")

    timelines = result.data.get("recovery_timelines")
    if timelines:
        window = result.data.get("outage_window")
        if window:
            lines.append("")
            lines.append(f"outage window: {float(window[0]):.6g} s .. "
                         f"{float(window[1]):.6g} s")
        for label, timeline in timelines.items():
            lines.append("")
            lines.append(f"-- recovery timeline: {label} --")
            lines.append(format_timeline(timeline))

    if result.notes:
        lines.append("")
        lines.append("Paper reference:")
        lines.extend(f"  {note}" for note in result.notes)
    return "\n".join(lines)
