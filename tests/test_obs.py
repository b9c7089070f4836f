"""The observability layers (``repro.obs``): timelines, tracing, profiling.

Pinned guarantees, mirroring the acceptance criteria of the subsystem:

* **Path identity** — with the timeline enabled, the per-window metrics
  are bit-identical for object and columnar traces and match the
  recorded golden, under the richest configuration (passive knowledge +
  reactive re-keying + faults).
* **Zero drift** — a run with observability absent, with a
  configured-but-disabled :class:`ObservabilityConfig`, and with the
  timeline enabled all produce bit-identical metrics; observation is
  read-only.
* **Exactness** — the timeline's final cumulative row equals the run's
  aggregates (not approximately: it *is* the accumulators), integer
  per-window deltas sum back exactly, and window sums reproduce the
  aggregate counters.
* **Trace semantics** — JSONL schema, level filtering, deterministic
  (never random) sampling with exempt run boundaries.
* **Profiler hygiene** — wrappers attach as instance attributes, detach
  cleanly, and refuse slotted objects instead of crashing the run.
"""

import importlib.util
import io
import json
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.core.policies import make_policy
from repro.core.store import CacheStore
from repro.exceptions import ConfigurationError
from repro.network.variability import NLANRRatioVariability
from repro.obs import (
    CUMULATIVE_FIELDS,
    MetricsTimeline,
    ObservabilityConfig,
    ObservedCacheStore,
    StageProfiler,
    TraceSink,
)
from repro.obs.log import configure, get_logger
from repro.obs.timeline import _INTEGER_FIELDS
from repro.sim.config import BandwidthKnowledge, SimulationConfig
from repro.sim.faults import FaultConfig
from repro.sim.simulator import ProxyCacheSimulator
from repro.workload.gismo import GismoWorkloadGenerator, WorkloadConfig

from conftest import replay_golden

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Timeline window width used throughout: a handful of windows over the
#: 0.02-scale trace, so boundaries fall mid-run on every path.
WINDOW_S = 1800.0


@pytest.fixture(scope="module")
def workloads():
    """Object and columnar variants of the same 2000-request workload."""
    config = WorkloadConfig(seed=0).scaled(0.02)
    return {
        "object": GismoWorkloadGenerator(config).generate(columnar=False),
        "columnar": GismoWorkloadGenerator(config).generate(columnar=True),
    }


def _rich_config(**overrides):
    """Passive + reactive + faulted: every counter the timeline reads moves."""
    base = dict(
        cache_size_gb=0.05,
        variability=NLANRRatioVariability(),
        bandwidth_knowledge=BandwidthKnowledge.PASSIVE,
        reactive_threshold=0.15,
        reactive_passive=True,
        reactive_hysteresis=0.05,
        faults=FaultConfig(random_origin_outages=2, seed=1),
        seed=0,
    )
    base.update(overrides)
    return SimulationConfig(**base)


@pytest.fixture(scope="module")
def path_results(workloads):
    """One observed, golden-checked run per trace representation under the
    rich configuration."""
    config = _rich_config(observability=ObservabilityConfig(window_s=WINDOW_S))
    return {
        name: replay_golden("obs/rich-timeline", workload, config)
        for name, workload in workloads.items()
    }


# ----------------------------------------------------------------------
# Timeline identity and exactness
# ----------------------------------------------------------------------
class TestTimelineAcrossPaths:
    """The paths compared are the two trace representations."""

    def test_metrics_identical_across_paths(self, path_results):
        reference = path_results["object"]
        for key, result in path_results.items():
            assert result.metrics.as_dict() == reference.metrics.as_dict(), key

    def test_timelines_identical_across_paths(self, path_results):
        reference = path_results["object"].timeline
        assert reference is not None and reference.finished
        assert reference.num_windows > 2
        for key, result in path_results.items():
            assert result.timeline == reference, key

    def test_series_identical_across_paths(self, path_results):
        reference = path_results["object"].timeline.series()
        for key, result in path_results.items():
            series = result.timeline.series()
            assert set(series) == set(reference)
            for name, values in series.items():
                np.testing.assert_array_equal(
                    values, reference[name], err_msg=f"{key}:{name}"
                )

    def test_fault_and_reactive_windows_present(self, path_results):
        series = path_results["object"].timeline.series()
        assert int(series["fault_state"].max()) >= 1
        assert int(series["reactive_rekeys"].sum()) > 0

    def test_totals_are_the_aggregates(self, path_results):
        result = path_results["columnar"]
        totals = result.timeline.totals()
        metrics = result.metrics
        assert totals["requests"] == metrics.requests
        assert totals["failed"] == metrics.failed_requests
        assert totals["stale_served"] == metrics.stale_served_requests
        assert totals["retried"] == metrics.retried_requests
        assert totals["total_retries"] == metrics.total_retries
        assert totals["reactive_shifts"] == result.reactive_shifts
        assert totals["reactive_rekeys"] == result.reactive_rekeys
        # The cumulative byte counters are the very accumulators the run
        # finalises, so the GB conversion agrees to the last bit of the
        # division, not to a tolerance of simulation drift.
        assert totals["bytes_from_cache"] / 1e6 == pytest.approx(
            metrics.bytes_from_cache_gb, abs=1e-12
        )
        assert totals["hits"] / totals["requests"] == metrics.hit_ratio

    def test_integer_deltas_sum_exactly(self, path_results):
        timeline = path_results["columnar"].timeline
        totals = timeline.totals()
        for field in sorted(_INTEGER_FIELDS):
            deltas = timeline.delta(field)
            assert deltas.dtype == np.int64
            assert int(deltas.sum()) == totals[field], field

    def test_cumulative_ends_at_totals(self, path_results):
        timeline = path_results["columnar"].timeline
        totals = timeline.totals()
        for field in CUMULATIVE_FIELDS:
            assert timeline.cumulative(field)[-1] == totals[field], field

    def test_window_grid_consistent(self, path_results):
        timeline = path_results["object"].timeline
        starts = timeline.window_starts()
        assert len(starts) == timeline.num_windows
        assert starts[0] == timeline.start_time
        np.testing.assert_allclose(np.diff(starts), timeline.window_s)
        for name, values in timeline.series().items():
            assert len(values) == timeline.num_windows, name

    def test_as_dict_schema(self, path_results):
        payload = path_results["object"].timeline.as_dict()
        assert payload["schema"] == 1
        assert payload["num_windows"] == len(payload["window_starts"])
        for values in payload["series"].values():
            assert len(values) == payload["num_windows"]
        assert payload["totals"]["requests"] == sum(payload["series"]["requests"])

    def test_pickle_round_trip_preserves_value(self, path_results):
        timeline = path_results["columnar"].timeline
        clone = pickle.loads(pickle.dumps(timeline))
        assert clone == timeline
        assert clone.as_dict() == timeline.as_dict()

    def test_accessors_require_finished(self):
        timeline = MetricsTimeline(60.0, 0.0)
        with pytest.raises(RuntimeError):
            timeline.totals()
        with pytest.raises(RuntimeError):
            timeline.series()


class TestZeroDrift:
    def test_disabled_and_absent_and_enabled_agree(self, workloads):
        absent = ProxyCacheSimulator(
            workloads["columnar"], _rich_config()
        ).run(make_policy("PB"))
        disabled = ProxyCacheSimulator(
            workloads["columnar"],
            _rich_config(observability=ObservabilityConfig(timeline=False)),
        ).run(make_policy("PB"))
        enabled = ProxyCacheSimulator(
            workloads["columnar"],
            _rich_config(observability=ObservabilityConfig(window_s=WINDOW_S)),
        ).run(make_policy("PB"))
        assert absent.metrics.as_dict() == disabled.metrics.as_dict()
        assert absent.metrics.as_dict() == enabled.metrics.as_dict()
        assert absent.timeline is None and disabled.timeline is None
        assert absent.profile is None and disabled.profile is None
        assert enabled.timeline is not None

    def test_heap_statistics_promoted_regardless(self, workloads):
        result = ProxyCacheSimulator(
            workloads["columnar"], _rich_config()
        ).run(make_policy("PB"))
        stats = result.heap_statistics
        assert stats is not None
        for key in ("size", "live_entries", "peak_size", "compactions"):
            assert key in stats


# ----------------------------------------------------------------------
# Trace sink and observed store
# ----------------------------------------------------------------------
class TestTraceSink:
    def test_level_filter_drops_debug(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceSink(path, level="info") as sink:
            sink.emit("info", "run-start", 0.0)
            sink.emit("debug", "cache-admission", 1.0, object=1)
            sink.emit("info", "run-end", 2.0)
        lines = path.read_text().splitlines()
        assert [json.loads(line)["event"] for line in lines] == [
            "run-start", "run-end",
        ]
        assert sink.emitted == 2 and sink.dropped == 1

    def test_sampling_is_deterministic_stride(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceSink(path, level="debug", sample=0.5) as sink:
            sink.emit("info", "run-start", 0.0)
            for index in range(100):
                sink.emit("debug", "cache-admission", float(index), n=index)
            sink.emit("info", "run-end", 100.0)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        # Run boundaries are exempt from sampling; the stride keeps half.
        assert records[0]["event"] == "run-start"
        assert records[-1]["event"] == "run-end"
        sampled = [r for r in records if r["event"] == "cache-admission"]
        assert len(sampled) == 50
        # Deterministic: the same emit sequence keeps the same events.
        assert [r["n"] for r in sampled] == list(range(1, 100, 2))

    def test_invalid_arguments_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            TraceSink(tmp_path / "t.jsonl", level="verbose")
        with pytest.raises(ValueError):
            TraceSink(tmp_path / "t.jsonl", sample=0.0)

    def test_observed_store_emits_transitions(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceSink(path, level="debug") as sink:
            store = ObservedCacheStore(100.0, sink)
            store.touch(7, 5.0)
            store.set_cached_bytes(7, 50.0)           # admission
            store.set_cached_bytes(7, 80.0)           # grow
            store.set_cached_bytes(7, 20.0)           # trim
            store.set_cached_bytes(7, 0.0, now=9.0)   # eviction
            store.set_cached_bytes(7, 0.0)            # no-op: no event
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["event"] for r in records] == [
            "cache-admission", "cache-grow", "cache-trim", "cache-eviction",
        ]
        # Clock-less changes are stamped with the last request time seen;
        # explicit timestamps win.
        assert records[0]["t"] == 5.0
        assert records[-1]["t"] == 9.0
        assert store.evictions == 1

    def test_simulator_trace_file_end_to_end(self, workloads, tmp_path):
        trace_path = tmp_path / "run.jsonl"
        config = _rich_config(
            observability=ObservabilityConfig(
                timeline=False, trace_path=str(trace_path), trace_level="debug"
            )
        )
        observed = ProxyCacheSimulator(workloads["columnar"], config).run(
            make_policy("PB")
        )
        baseline = ProxyCacheSimulator(
            workloads["columnar"], _rich_config()
        ).run(make_policy("PB"))
        # Tracing must not perturb the run either.
        assert observed.metrics.as_dict() == baseline.metrics.as_dict()
        records = [
            json.loads(line) for line in trace_path.read_text().splitlines()
        ]
        assert records[0]["event"] == "run-start"
        assert records[-1]["event"] == "run-end"
        events = {record["event"] for record in records}
        assert "cache-admission" in events
        assert "fault-episode-start" in events
        assert "rekey" in events


# ----------------------------------------------------------------------
# Stage profiler
# ----------------------------------------------------------------------
class TestStageProfiler:
    def test_block_and_wrap_accounting(self):
        profiler = StageProfiler()
        with profiler.stage("block"):
            pass
        wrapped = profiler.wrap("calls", lambda x: x + 1)
        assert wrapped(1) == 2 and wrapped(2) == 3
        report = profiler.report()
        assert report["block"]["calls"] == 1
        assert report["calls"]["calls"] == 2
        assert report["calls"]["seconds"] >= 0.0

    def test_attach_detach_leaves_no_trace(self):
        class Component:
            def work(self):
                return 42

        component = Component()
        profiler = StageProfiler()
        assert profiler.attach(component, "work", "work_stage") is True
        assert component.work() == 42
        assert "work" in vars(component)  # instance-attr shadow installed
        profiler.detach_all()
        assert "work" not in vars(component)
        assert component.work() == 42
        assert profiler.report()["work_stage"]["calls"] == 1

    def test_attach_refuses_slotted_objects(self):
        class Slotted:
            __slots__ = ("x",)

            def work(self):
                return 1

        profiler = StageProfiler()
        assert profiler.attach(Slotted(), "work", "stage") is False
        assert "stage" not in profiler.report()

    def test_simulator_profile_stages(self, workloads):
        config = _rich_config(
            observability=ObservabilityConfig(timeline=False, profile=True)
        )
        result = ProxyCacheSimulator(workloads["columnar"], config).run(
            make_policy("PB")
        )
        assert result.profile is not None
        assert "replay" in result.profile
        assert "policy_ops" in result.profile
        assert "fault_evaluation" in result.profile
        assert result.profile["policy_ops"]["calls"] > 0


# ----------------------------------------------------------------------
# Configuration and logging
# ----------------------------------------------------------------------
class TestObservabilityConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ObservabilityConfig(window_s=0.0)
        with pytest.raises(ConfigurationError):
            ObservabilityConfig(trace_level="verbose")
        with pytest.raises(ConfigurationError):
            ObservabilityConfig(trace_sample=1.5)

    def test_any_enabled(self):
        assert ObservabilityConfig().any_enabled
        assert not ObservabilityConfig(timeline=False).any_enabled
        assert ObservabilityConfig(timeline=False, profile=True).any_enabled
        assert ObservabilityConfig(
            timeline=False, trace_path="x.jsonl"
        ).any_enabled

    def test_with_observability_helper(self):
        config = SimulationConfig(cache_size_gb=1.0)
        assert config.observability is None
        attached = config.with_observability(ObservabilityConfig())
        assert attached.observability is not None
        assert config.observability is None  # original untouched


class TestLogging:
    def test_prefixes_and_levels(self):
        stream = io.StringIO()
        configure(stream=stream)
        logger = get_logger("testmod")
        logger.debug("hidden at default verbosity")
        logger.info("something ordinary")
        logger.warning("something odd")
        logger.error("something broken")
        output = stream.getvalue()
        assert "note: something ordinary" in output
        assert "warning: something odd" in output
        assert "error: something broken" in output
        assert "hidden" not in output

    def test_verbose_enables_debug(self):
        stream = io.StringIO()
        configure(verbosity=1, stream=stream)
        get_logger("testmod").debug("now visible")
        assert "debug: now visible" in stream.getvalue()

    def test_quiet_keeps_errors_only(self):
        stream = io.StringIO()
        configure(quiet=True, stream=stream)
        logger = get_logger("testmod")
        logger.warning("suppressed")
        logger.error("kept")
        output = stream.getvalue()
        assert "suppressed" not in output and "error: kept" in output

    def test_reconfigure_does_not_stack_handlers(self):
        stream = io.StringIO()
        configure(stream=stream)
        configure(stream=stream)
        get_logger("testmod").info("once")
        assert stream.getvalue().count("once") == 1


# ----------------------------------------------------------------------
# Store eviction counter
# ----------------------------------------------------------------------
class TestStoreEvictions:
    def test_counts_complete_removals_only(self):
        store = CacheStore(100.0)
        store.set_cached_bytes(1, 10.0)
        store.set_cached_bytes(2, 10.0)
        store.set_cached_bytes(1, 5.0)       # trim, not an eviction
        assert store.evictions == 0
        store.set_cached_bytes(1, 0.0)
        assert store.evictions == 1
        store.set_cached_bytes(1, 0.0)       # already gone: no double count
        assert store.evictions == 1
        store.set_cached_bytes(2, 0.0)
        assert store.evictions == 2


# ----------------------------------------------------------------------
# CLI end-to-end + artifact schema gate
# ----------------------------------------------------------------------
def _load_check_obs():
    spec = importlib.util.spec_from_file_location(
        "check_obs", REPO_ROOT / "scripts" / "check_obs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCLI:
    def test_run_writes_schema_clean_artifacts(self, tmp_path, capsys):
        from repro.cli import main

        metrics_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "trace.jsonl"
        exit_code = main([
            "run", "--policy", "PB", "--scale", "0.02", "--seed", "1",
            "--cache-gb", "0.05", "--knowledge", "passive",
            "--reactive-threshold", "0.15", "--reactive-passive",
            "--fault-origin-outages", "2", "--fault-seed", "1",
            "--metrics-out", str(metrics_path), "--metrics-window", "1800",
            "--trace-out", str(trace_path), "--trace-level", "debug",
            "--profile",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "metrics timeline:" in captured.out
        assert "profile (wall-clock):" in captured.out
        assert "window_start" in captured.out  # the rendered table
        check_obs = _load_check_obs()
        assert check_obs.check_metrics(metrics_path) == []
        assert check_obs.check_trace(trace_path) == []

    def test_default_output_unchanged_without_flags(self, capsys):
        from repro.cli import main

        exit_code = main([
            "run", "--policy", "PB", "--scale", "0.01", "--seed", "1",
            "--cache-gb", "0.2",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "policy: PB" in captured.out
        assert "metrics timeline:" not in captured.out
        assert "profile" not in captured.out
        assert "event trace" not in captured.out

    def test_verbose_flag_surfaces_heap_debug_line(self, capsys):
        from repro.cli import main

        exit_code = main([
            "-v", "run", "--policy", "PB", "--scale", "0.01", "--seed", "1",
            "--cache-gb", "0.2",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "debug: policy heap:" in captured.err
