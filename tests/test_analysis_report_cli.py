"""Tests for report formatting and the command-line interface."""

from pathlib import Path

import pytest

from repro.analysis.experiments import (
    experiment_fig2_bandwidth_distribution,
    experiment_fig5_constant_bandwidth,
    experiment_table1_workload,
)
from repro.analysis.report import (
    format_comparison,
    format_sweep_table,
    render_experiment,
)
from repro.cli import build_parser, main
from repro.core.policies import make_policy
from repro.sim.config import SimulationConfig
from repro.sim.runner import compare_policies, sweep_cache_sizes

REPO_ROOT = Path(__file__).resolve().parent.parent
SAMPLE_SQUID = REPO_ROOT / "examples" / "data" / "sample_squid.log"


@pytest.fixture(scope="module")
def tiny_sweep():
    from repro.workload.gismo import GismoWorkloadGenerator, WorkloadConfig

    workload = GismoWorkloadGenerator(
        WorkloadConfig(num_objects=40, num_requests=800, num_servers=8, seed=2)
    ).generate()
    return sweep_cache_sizes(
        workload,
        {"IF": lambda: make_policy("IF"), "PB": lambda: make_policy("PB")},
        cache_sizes_gb=[0.05, 0.2],
        config=SimulationConfig(cache_size_gb=0.05, seed=1),
        num_runs=1,
    )


@pytest.fixture(scope="module")
def tiny_comparison():
    from repro.workload.gismo import GismoWorkloadGenerator, WorkloadConfig

    workload = GismoWorkloadGenerator(
        WorkloadConfig(num_objects=40, num_requests=800, num_servers=8, seed=2)
    ).generate()
    return compare_policies(
        workload,
        {"IF": lambda: make_policy("IF"), "PB": lambda: make_policy("PB")},
        SimulationConfig(cache_size_gb=0.1, seed=1),
        num_runs=1,
    )


class TestReportFormatting:
    def test_sweep_table_contains_policies_and_values(self, tiny_sweep):
        table = format_sweep_table(tiny_sweep, "traffic_reduction_ratio")
        assert "IF" in table and "PB" in table
        assert "cache_size_gb" in table
        assert len(table.splitlines()) == 2 + len(tiny_sweep.parameter_values)

    def test_comparison_table(self, tiny_comparison):
        table = format_comparison(tiny_comparison)
        assert "Traffic Reduction Ratio" in table
        assert "IF" in table and "PB" in table

    def test_render_sweep_experiment(self):
        result = experiment_fig5_constant_bandwidth(
            scale=0.01, num_runs=1, cache_fractions=(0.05,), seed=0
        )
        text = render_experiment(result)
        assert "fig5" in text
        assert "Traffic Reduction Ratio" in text
        assert "Paper reference:" in text

    def test_render_scalar_experiment(self):
        result = experiment_fig2_bandwidth_distribution(num_records=3_000, seed=0)
        text = render_experiment(result)
        assert "fraction_below_50" in text

    def test_render_table1(self):
        text = render_experiment(experiment_table1_workload(scale=0.01))
        assert "objects" in text


class TestCLI:
    def test_parser_knows_both_commands(self):
        parser = build_parser()
        args = parser.parse_args(["run", "--policy", "IB", "--cache-gb", "2"])
        assert args.command == "run" and args.policy == "IB"
        args = parser.parse_args(["experiment", "tab1"])
        assert args.command == "experiment" and args.name == "tab1"

    def test_run_command_prints_metrics(self, capsys):
        exit_code = main(
            ["run", "--policy", "PB", "--cache-gb", "0.2", "--scale", "0.01", "--seed", "1"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "traffic_reduction_ratio" in captured
        assert "policy: PB" in captured

    def test_run_command_with_estimator(self, capsys):
        exit_code = main(
            [
                "run", "--policy", "PB", "--estimator-e", "0.5",
                "--cache-gb", "0.2", "--scale", "0.01",
                "--variability", "measured",
            ]
        )
        assert exit_code == 0
        assert "PB(e=0.5)" in capsys.readouterr().out

    def test_experiment_command_tab1(self, capsys):
        exit_code = main(["experiment", "tab1", "--scale", "0.01"])
        assert exit_code == 0
        assert "objects" in capsys.readouterr().out

    def test_experiment_command_fig2(self, capsys):
        exit_code = main(["experiment", "fig2"])
        assert exit_code == 0
        assert "fraction_below_50" in capsys.readouterr().out

    def test_experiment_command_fig5_scaled(self, capsys):
        exit_code = main(["experiment", "fig5", "--scale", "0.01", "--runs", "1"])
        assert exit_code == 0
        assert "Traffic Reduction Ratio" in capsys.readouterr().out

    def test_unknown_policy_fails_cleanly(self, capsys):
        assert main(["run", "--policy", "BOGUS", "--scale", "0.01"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: unknown policy 'BOGUS'")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_negative_cache_size_fails_cleanly(self, capsys):
        assert main(["run", "--cache-gb", "-1", "--scale", "0.01"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: cache_size_gb must be non-negative, got -1.0\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--scale", "nan"], "factor must be positive and finite, got nan"),
            (["run", "--scale", "inf"], "factor must be positive and finite, got inf"),
            (
                ["experiment", "fig7", "--scale", "nan", "--runs", "1"],
                "scale must be positive and finite, got nan",
            ),
        ],
        ids=["run-nan", "run-inf", "experiment-nan"],
    )
    def test_non_finite_scale_fails_cleanly(
        self, argv, message, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--scale", "0.01"],
            *(
                ["experiment", name]
                for name in ("fig2", "fig3", "fig4", "tab1", "hetero")
            ),
            ["ingest", str(SAMPLE_SQUID)],
        ],
        ids=["run", "fig2", "fig3", "fig4", "tab1", "hetero", "ingest"],
    )
    def test_negative_seed_fails_before_any_work(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --seed must be non-negative, got -1\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--metrics-out", "--trace-out"])
    def test_output_in_missing_directory_fails_before_the_replay(
        self, flag, tmp_path, capsys
    ):
        target = tmp_path / "missing" / "out.json"
        assert main(["run", "--scale", "0.01", flag, str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {flag} {target}: directory {target.parent} does not exist\n"
        )
        assert captured.out == ""  # nothing replayed, nothing printed
        assert list(tmp_path.iterdir()) == []

    def test_nan_cache_size_fails_cleanly(self, capsys):
        assert main(["run", "--scale", "0.01", "--cache-gb", "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: cache_size_gb must be non-negative, got nan\n"
        assert captured.out == ""

    def test_nan_streaming_segment_size_fails_cleanly(self, capsys):
        args = ["run", "--scale", "0.01", "--streaming-fraction", "1.0"]
        assert main(args + ["--streaming-segment-kb", "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: base_segment_kb must be positive and finite, got nan\n"
        )
        assert captured.out == ""

    def test_run_command_with_streaming_prints_qoe(self, capsys):
        exit_code = main(
            [
                "run", "--policy", "PB", "--cache-gb", "0.2",
                "--scale", "0.01", "--seed", "1",
                "--streaming-fraction", "1.0", "--streaming-prefetch", "2",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "streaming:" in captured and "prefix caching" in captured
        assert "streaming QoE:" in captured
        assert "average_stream_quality" in captured

    def test_run_command_streaming_whole_object_mode(self, capsys):
        exit_code = main(
            [
                "run", "--policy", "PB", "--cache-gb", "0.2",
                "--scale", "0.01", "--seed", "1",
                "--streaming-fraction", "1.0", "--streaming-whole-object",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "whole-object caching" in captured

    def test_streaming_whole_object_requires_fraction(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "run", "--policy", "PB", "--scale", "0.01",
                    "--streaming-whole-object",
                ]
            )

    def test_experiment_command_streaming(self, capsys):
        exit_code = main(
            ["experiment", "streaming", "--scale", "0.01", "--runs", "1"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "prefix / static" in captured
        assert "whole-object / reactive-passive" in captured
        assert "QoE[PB]" in captured
