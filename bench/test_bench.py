"""Tests of the benchmark itself: workloads, tracing arithmetic, goldens, hygiene.

No timing is asserted.  Run with the rest of the suite::

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _repro_attributes():
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
        for attr, value in vars(module).items()
    }


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_outputs_pass_invariants(name, tmp_path):
    prepare = workloads.PREPARE.get(name)
    if prepare is not None:
        prepare(0, workloads.SIZES["tiny"][name], tmp_path)
    workloads.run(name, 0, "tiny", tmp_path)  # imports what the workload uses
    before = _repro_attributes()
    report = workloads.run(name, 0, "tiny", tmp_path)
    after = _repro_attributes()
    assert {key: after.get(key) for key in before} == before, "hooks left installed"
    assert report["errors"] == []
    assert report["work"] > 0 and report["main_s"] > 0
    assert report["first_main_ns"] is not None
    outputs = workloads.flatten(report["outputs"])
    assert outputs and all(not isinstance(v, dict) for v in outputs.values())


def test_invariants_catch_a_broken_result():
    from repro.sim.metrics import SimulationMetrics

    class Result:
        metrics = SimulationMetrics(
            requests=10, traffic_reduction_ratio=1.5, average_service_delay=0.0,
            average_stream_quality=1.0, total_added_value=0.0, hit_ratio=0.5,
            byte_hit_ratio=0.5, immediate_service_ratio=1.0,
            average_delay_among_delayed=0.0, delayed_request_ratio=0.0,
            bytes_from_cache_gb=0.001, bytes_from_server_gb=0.001,
        )
        streaming_report = hierarchy_report = timeline = None

    errors = workloads.check_result(Result(), requested_kb=1000.0, exact_bytes=True)
    assert any("traffic_reduction_ratio" in e for e in errors)
    assert any("requested" in e for e in errors)


def test_sampled_self_times_sum_to_the_total():
    from repro.core.store import CacheStore
    from repro.sim.simulator import ProxyCacheSimulator

    evict, run = CacheStore.evict.__code__, ProxyCacheSimulator.run.__code__
    outside = test_sampled_self_times_sum_to_the_total.__code__
    sampler = spans.Sampler()
    for seconds, codes in ((0.5, [outside, evict, outside, run]),
                           (0.25, [run, outside]), (0.125, [outside])):
        sampler.stacks[("main", *map(id, codes))] = [seconds, codes]
    summary = spans.summarise_samples(sampler, spans.FunctionKeys())
    own = summary["self"]["main"]
    assert own == {"store:CacheStore.evict": 0.5, "kernel:ProxyCacheSimulator.run": 0.25}
    assert summary["unattributed"]["main"] == 0.125
    assert sum(own.values()) + summary["unattributed"]["main"] == 0.875
    assert summary["inclusive"]["kernel:ProxyCacheSimulator.run"] == 0.75


def test_sampler_credits_no_more_than_the_sampled_time():
    sampler = spans.Sampler()
    start = time.perf_counter()
    sampler.start("main")
    while time.perf_counter() - start < 0.05:
        sum(range(1000))
    sampler.stop()
    elapsed = time.perf_counter() - start
    credited = sum(seconds for seconds, _ in sampler.stacks.values())
    assert sampler.stacks and 0.0 <= sampler.own_s["main"]
    assert 0.0 < credited + sampler.own_s["main"] <= elapsed


@pytest.mark.parametrize("name", ["replay-pb", "sweep-fig7"])
def test_traced_run_counts_every_request(name, tmp_path):
    plain = workloads.run(name, 0, "tiny", tmp_path)
    tracer = spans.Tracer(tmp_path / "workers")
    traced = workloads.run(name, 0, "tiny", tmp_path, tracer)
    assert traced["outputs"] == plain["outputs"] and traced["errors"] == []
    metrics = spans.layer_metrics(traced["trace"], traced["facts"])
    assert set(metrics) == set(spans.LAYER_METRICS)
    # Every request passes through the policy once; on sweep-fig7 the
    # counts come from the pool workers.
    assert metrics["policy.calls"] == traced["facts"]["requests"]
    assert metrics["policy.self_s"] > 0 and metrics["trace.sampler_share"] >= 0


def test_declared_per_layer_metrics_are_the_reported_ones():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == spans.LAYER_METRICS


def test_golden_semantics():
    recorded = {"a": 1.5, "b.c": "sha256:00", "d": [1, 2]}
    assert checks.compare(recorded, {**recorded, "new": 3.0}) == []
    changed = checks.compare(recorded, {**recorded, "a": 1.5000000000000002})
    assert len(changed) == 1 and changed[0].startswith("a:")
    missing = checks.compare(recorded, {"a": 1.5, "d": [1, 2]})
    assert len(missing) == 1 and "missing" in missing[0]


def test_flatten_digests_long_lists_and_nan():
    flat = workloads.flatten({"x": {"y": float("nan"), "z": list(range(20))}, "w": [1, 2]})
    assert flat["x.y"] == "nan"
    assert flat["x.z"].startswith("sha256:")
    assert flat["w"] == [1, 2]


def test_goldens_are_recorded_for_every_workload():
    for seed in (0, 1):
        golden = checks.load_golden(seed)
        assert golden is not None and set(golden) == set(workloads.WORKLOADS)


def test_harness_run_leaves_the_tree_clean():
    root = BENCH.parent
    if shutil.which("git") is None or not (root / ".git").exists():
        pytest.skip("needs a git checkout")

    def status():
        return subprocess.run(
            ["git", "-C", str(root), "status", "--porcelain"],
            capture_output=True, text=True, check=True,
        ).stdout

    before = status()
    run = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "replay-pb",
         "--seed", "0", "--seconds", "0.1", "--trace", "0", "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    summary = json.loads(run.stdout.strip().splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0
    declared = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
    assert set(summary["metrics"]) == {metric["name"] for metric in declared}
    assert status() == before


def test_bench_calls_no_retired_entry_point():
    retired = re.compile(
        r"replay=|use_fast_path|stage_observer|StageProfiler|REPLAY_PATHS"
        r"|SimulationEngine|schedule_auxiliary_events"
    )
    for path in BENCH.rglob("*"):
        if path.suffix in (".py", ".md", ".json") and path.name != Path(__file__).name:
            assert not retired.search(path.read_text()), path.name
