"""The observability layers (``repro.obs``): timelines, tracing, profiling.

Pinned guarantees, mirroring the acceptance criteria of the subsystem:

* **Path identity** — with the timeline enabled, the per-window metrics
  are bit-identical for a generated trace and the same trace reloaded
  from its ``.npz`` archive, and match the recorded golden, under the
  richest configuration (passive knowledge + reactive re-keying +
  faults).
* **Zero drift** — a run with observability absent, with a
  configured-but-disabled :class:`ObservabilityConfig`, and with the
  timeline enabled all produce bit-identical metrics; observation is
  read-only.
* **Exactness** — the timeline's final cumulative row equals the run's
  aggregates (not approximately: it *is* the accumulators), integer
  per-window deltas sum back exactly, and window sums reproduce the
  aggregate counters.
* **Trace semantics** — JSONL schema, level filtering, deterministic
  (never random) sampling with exempt run boundaries, and a ``run-end``
  event that counts a fleet's evictions over every tier store.
* **Profiler at the seam** — the kernel context binds the stage timers,
  so each stage counts exactly the kernel's own calls and nothing is set
  on the policy it times.
"""

import importlib.util
import io
import json
import pickle
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import repro.sim.hierarchy as hierarchy_module
from repro.core.policies import make_policy
from repro.core.policies.bandwidth import PartialBandwidthPolicy
from repro.core.store import CacheStore
from repro.exceptions import ConfigurationError
from repro.network.distributions import NLANRBandwidthDistribution
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
from repro.sim.config import BandwidthKnowledge, ClientCloudConfig, SimulationConfig
from repro.sim.events import RemeasurementConfig
from repro.sim.faults import FaultConfig
from repro.sim.hierarchy import CacheTier, HierarchyConfig
from repro.sim.simulator import ProxyCacheSimulator
from repro.sim.streaming import StreamingConfig
from repro.trace.columnar import ColumnarTrace
from repro.workload.gismo import GismoWorkloadGenerator, WorkloadConfig

from conftest import replay_golden

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Timeline window width used throughout: a handful of windows over the
#: 0.02-scale trace, so boundaries fall mid-run on every path.
WINDOW_S = 1800.0


@pytest.fixture(scope="module")
def workloads(tmp_path_factory):
    """The same 2000-request workload as generated and as reloaded from its
    ``.npz`` archive (the form ``repro ingest`` stores traces in)."""
    generated = GismoWorkloadGenerator(WorkloadConfig(seed=0).scaled(0.02)).generate()
    path = tmp_path_factory.mktemp("obs") / "trace.npz"
    generated.trace.to_npz(path)
    return {
        "generated": generated,
        "archived": replace(generated, trace=ColumnarTrace.from_npz(path)),
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
    """One observed, golden-checked run per form of the trace under the
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
    """The paths compared are the generated trace and its reloaded archive."""

    def test_metrics_identical_across_paths(self, path_results):
        reference = path_results["generated"]
        for key, result in path_results.items():
            assert result.metrics.as_dict() == reference.metrics.as_dict(), key

    def test_timelines_identical_across_paths(self, path_results):
        reference = path_results["generated"].timeline
        assert reference is not None and reference.finished
        assert reference.num_windows > 2
        for key, result in path_results.items():
            assert result.timeline == reference, key

    def test_series_identical_across_paths(self, path_results):
        reference = path_results["generated"].timeline.series()
        for key, result in path_results.items():
            series = result.timeline.series()
            assert set(series) == set(reference)
            for name, values in series.items():
                np.testing.assert_array_equal(
                    values, reference[name], err_msg=f"{key}:{name}"
                )

    def test_fault_and_reactive_windows_present(self, path_results):
        series = path_results["generated"].timeline.series()
        assert int(series["fault_state"].max()) >= 1
        assert int(series["reactive_rekeys"].sum()) > 0

    def test_totals_are_the_aggregates(self, path_results):
        result = path_results["archived"]
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
        timeline = path_results["archived"].timeline
        totals = timeline.totals()
        for field in sorted(_INTEGER_FIELDS):
            deltas = timeline.delta(field)
            assert deltas.dtype == np.int64
            assert int(deltas.sum()) == totals[field], field

    def test_cumulative_ends_at_totals(self, path_results):
        timeline = path_results["archived"].timeline
        totals = timeline.totals()
        for field in CUMULATIVE_FIELDS:
            assert timeline.cumulative(field)[-1] == totals[field], field

    def test_window_grid_consistent(self, path_results):
        timeline = path_results["generated"].timeline
        starts = timeline.window_starts()
        assert len(starts) == timeline.num_windows
        assert starts[0] == timeline.start_time
        np.testing.assert_allclose(np.diff(starts), timeline.window_s)
        for name, values in timeline.series().items():
            assert len(values) == timeline.num_windows, name

    def test_as_dict_schema(self, path_results):
        payload = path_results["generated"].timeline.as_dict()
        assert payload["schema"] == 1
        assert payload["num_windows"] == len(payload["window_starts"])
        for values in payload["series"].values():
            assert len(values) == payload["num_windows"]
        assert payload["totals"]["requests"] == sum(payload["series"]["requests"])

    def test_pickle_round_trip_preserves_value(self, path_results):
        timeline = path_results["archived"].timeline
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
            workloads["generated"], _rich_config()
        ).run(make_policy("PB"))
        disabled = ProxyCacheSimulator(
            workloads["generated"],
            _rich_config(observability=ObservabilityConfig(timeline=False)),
        ).run(make_policy("PB"))
        enabled = ProxyCacheSimulator(
            workloads["generated"],
            _rich_config(observability=ObservabilityConfig(window_s=WINDOW_S)),
        ).run(make_policy("PB"))
        assert absent.metrics.as_dict() == disabled.metrics.as_dict()
        assert absent.metrics.as_dict() == enabled.metrics.as_dict()
        assert absent.timeline is None and disabled.timeline is None
        assert absent.profile is None and disabled.profile is None
        assert enabled.timeline is not None

    def test_heap_statistics_promoted_regardless(self, workloads):
        result = ProxyCacheSimulator(
            workloads["generated"], _rich_config()
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
            store.set_cached_bytes(7, 50.0, now=5.0)  # admission
            store.set_cached_bytes(7, 80.0)           # grow
            store.trim(7, 60.0, now=6.0)              # trim
            store.evict(7, now=9.0)                   # eviction
            store.set_cached_bytes(7, 0.0)            # no-op: no event
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["event"] for r in records] == [
            "cache-admission", "cache-grow", "cache-trim", "cache-eviction",
        ]
        # Every change is stamped with the time it was made at.
        assert [r["t"] for r in records] == [5.0, 0.0, 6.0, 9.0]
        assert store.evictions == 1

    def test_stream_trims_carry_their_request_time(self, tmp_path):
        """A session trims a mid-segment fragment of the object it serves
        before the policy runs; the trace stamps that trim with the time
        of the request being served, not with an earlier request's."""
        workload_config = replace(WorkloadConfig(seed=0).scaled(0.05), num_clients=8)
        workload = GismoWorkloadGenerator(workload_config).generate()
        trace_path = tmp_path / "stream.jsonl"
        config = SimulationConfig(
            cache_size_gb=8.0,
            bandwidth_knowledge=BandwidthKnowledge.PASSIVE,
            client_clouds=ClientCloudConfig(groups=8),
            streaming=StreamingConfig(fraction=1.0),
            observability=ObservabilityConfig(
                timeline=False, trace_path=str(trace_path), trace_level="debug"
            ),
            seed=0,
        )
        result = ProxyCacheSimulator(workload, config).run(make_policy("PB"))
        requested = {}
        for time, object_id in zip(
            workload.trace.times_array.tolist(),
            workload.trace.object_ids_array.tolist(),
        ):
            requested.setdefault(time, set()).add(object_id)
        changes = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
            if '"event":"cache-' in line
        ]
        # Every store change happens while some request is served.
        assert changes and all(record["t"] in requested for record in changes)
        own_trims = [
            record
            for record in changes
            if record["event"] == "cache-trim"
            and record["object"] in requested[record["t"]]
        ]
        fragment_trims = result.streaming_report.fragment_trims
        assert fragment_trims > 0
        assert len(own_trims) == fragment_trims

    def test_simulator_trace_file_end_to_end(self, workloads, tmp_path):
        trace_path = tmp_path / "run.jsonl"
        config = _rich_config(
            observability=ObservabilityConfig(
                timeline=False, trace_path=str(trace_path), trace_level="debug"
            )
        )
        observed = ProxyCacheSimulator(workloads["generated"], config).run(
            make_policy("PB")
        )
        baseline = ProxyCacheSimulator(
            workloads["generated"], _rich_config()
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

    def test_fleet_run_end_counts_every_tier_store(
        self, workloads, tmp_path, monkeypatch
    ):
        """A fleet serves from its tier stores, never from the flat store,
        so ``run-end`` reports their evictions summed."""
        tier_stores = []

        class CountedStore(CacheStore):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tier_stores.append(self)

        monkeypatch.setattr(hierarchy_module, "CacheStore", CountedStore)
        trace_path = tmp_path / "fleet.jsonl"
        config = SimulationConfig(
            cache_size_gb=0.3,
            seed=0,
            observability=ObservabilityConfig(
                timeline=False, trace_path=str(trace_path)
            ),
        ).with_hierarchy(
            HierarchyConfig(
                tiers=(
                    CacheTier(name="edge", cache_kb=100_000.0),
                    CacheTier(name="parent", cache_kb=400_000.0),
                ),
                num_pops=2,
            )
        )
        ProxyCacheSimulator(workloads["generated"], config).run(make_policy("PB"))
        run_end = json.loads(trace_path.read_text().splitlines()[-1])
        assert run_end["event"] == "run-end"
        assert len(tier_stores) == 4
        evictions = sum(store.evictions for store in tier_stores)
        assert evictions > 0
        assert run_end["evictions"] == evictions

    @pytest.mark.parametrize(
        "tier_kb, num_pops",
        [((), 1), ((100_000.0,), 2), ((100_000.0, 400_000.0), 1)],
        ids=["flat", "one-tier-two-pops", "two-tiers-one-pop"],
    )
    def test_run_end_counts_the_stores_that_served(
        self, workloads, tmp_path, monkeypatch, tier_kb, num_pops
    ):
        """``run-end`` reports the evictions of every store the run built:
        the flat store alone, or each tier store of every pop (a fleet's
        flat store serves nothing and evicts nothing)."""
        stores = []
        init = CacheStore.__init__

        def counted_init(store, *args, **kwargs):
            init(store, *args, **kwargs)
            stores.append(store)

        monkeypatch.setattr(CacheStore, "__init__", counted_init)
        trace_path = tmp_path / "run.jsonl"
        config = SimulationConfig(
            cache_size_gb=0.3,
            seed=0,
            observability=ObservabilityConfig(
                timeline=False, trace_path=str(trace_path)
            ),
        )
        if tier_kb:
            config = config.with_hierarchy(
                HierarchyConfig(
                    tiers=tuple(
                        CacheTier(name=f"tier-{level}", cache_kb=kb)
                        for level, kb in enumerate(tier_kb)
                    ),
                    num_pops=num_pops,
                )
            )
        ProxyCacheSimulator(workloads["generated"], config).run(make_policy("PB"))
        run_end = json.loads(trace_path.read_text().splitlines()[-1])
        assert run_end["event"] == "run-end"
        assert len(stores) == 1 + len(tier_kb) * num_pops
        evictions = sum(store.evictions for store in stores)
        assert evictions > 0
        assert run_end["evictions"] == evictions


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

    def test_simulator_profile_stages(self, workloads):
        config = _rich_config(
            observability=ObservabilityConfig(timeline=False, profile=True)
        )
        result = ProxyCacheSimulator(workloads["generated"], config).run(
            make_policy("PB")
        )
        assert result.profile is not None
        assert "replay" in result.profile
        assert "policy_ops" in result.profile
        assert "fault_evaluation" in result.profile
        assert result.profile["policy_ops"]["calls"] > 0

    def test_stages_count_the_kernels_own_calls(self, workloads):
        """Each stage times the calls the kernel makes: the estimator twice
        per request (the belief and the observation) and the fault injector
        once, however often re-measurement probes, the re-keyer and the
        injector read the estimator themselves."""
        workload = workloads["generated"]
        config = _rich_config(
            remeasurement=RemeasurementConfig(interval=3600.0),
            faults=FaultConfig(
                random_origin_outages=2, random_bandwidth_flaps=4, seed=1
            ),
            client_clouds=ClientCloudConfig(
                groups=4, distribution=NLANRBandwidthDistribution()
            ),
            observability=ObservabilityConfig(timeline=False, profile=True),
        )
        result = ProxyCacheSimulator(workload, config).run(make_policy("PB"))
        requests = len(workload.trace)
        assert result.auxiliary_events_fired > 0 and result.reactive_shifts > 0
        assert result.profile["estimator"]["calls"] == 2 * requests
        assert result.profile["fault_evaluation"]["calls"] == requests

    def test_profiling_sets_nothing_on_the_policy(self, workloads):
        seen = set()

        class SelfInspectingPB(PartialBandwidthPolicy):
            def on_request(self, obj, bandwidth, now, store):
                seen.add("on_request" in vars(self))
                return super().on_request(obj, bandwidth, now, store)

        config = _rich_config(
            observability=ObservabilityConfig(timeline=False, profile=True)
        )
        result = ProxyCacheSimulator(workloads["generated"], config).run(
            SelfInspectingPB()
        )
        assert result.profile["policy_ops"]["calls"] > 0
        assert seen == {False}

    def test_a_slotted_policy_is_timed(self, workloads):
        class SlottedPolicy:
            __slots__ = ("requests",)
            name = "slotted"

            def __init__(self):
                self.requests = 0

            def on_request(self, obj, bandwidth, now, store):
                self.requests += 1

        policy = SlottedPolicy()
        config = _rich_config(
            observability=ObservabilityConfig(timeline=False, profile=True)
        )
        result = ProxyCacheSimulator(workloads["generated"], config).run(policy)
        assert result.profile["policy_ops"]["calls"] == policy.requests > 0


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

    def test_metrics_check_sums_every_integer_series(self, path_results, tmp_path):
        payload = path_results["generated"].timeline.as_dict()
        check = _load_check_obs().check_metrics
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(payload))
        assert check(path) == []
        for name in ("hits", "evictions", "reactive_shifts", "reactive_rekeys"):
            doctored = json.loads(json.dumps(payload))
            doctored["series"][name][0] += 1
            path.write_text(json.dumps(doctored))
            failures = check(path)
            assert len(failures) == 1 and f"per-window {name}" in failures[0], name

    def test_trace_check_rejects_cache_events_their_payload_contradicts(self):
        check = _load_check_obs().check_cache_event
        good = [
            {"event": "cache-admission", "object": 1, "bytes": 5.0, "prev": 0.0},
            {"event": "cache-grow", "object": 1, "bytes": 9.0, "prev": 5.0},
            {"event": "cache-trim", "object": 1, "bytes": 2.0, "prev": 9.0},
            {"event": "cache-eviction", "object": 1, "bytes": 0.0, "prev": 2.0},
        ]
        assert [check("t", record) for record in good] == [[]] * 4
        bad = [
            {"event": "cache-grow", "object": 1, "bytes": 2.0, "prev": 9.0},
            {"event": "cache-trim", "object": 1, "bytes": 0.0, "prev": 9.0},
            {"event": "cache-admission", "object": 1, "bytes": 9.0, "prev": 2.0},
            {"event": "cache-eviction", "object": 1, "bytes": 0.0, "prev": 0.0},
            {"event": "cache-trim", "bytes": 2.0, "prev": 9.0},
            {"event": "cache-trim", "object": 1, "prev": 9.0},
            {"event": "cache-evict", "object": 1, "bytes": 0.0, "prev": 2.0},
        ]
        assert all(len(check("t", record)) == 1 for record in bad)

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
