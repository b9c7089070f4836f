"""The BENCH_perf.json trajectory gate (``scripts/check_bench.py``).

The gate has two jobs — fail when the benchmark record *loses* keys, and
fail when a recorded ratio regresses past the tolerance in its bad
direction — and two non-jobs: never fail on *new* keys (the record must be
able to grow) and never fail on improvements.  All four are pinned here,
plus an end-to-end check that the committed ``BENCH_perf.json`` passes its
own gate (so CI's baseline comparison starts from a green state).
"""

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "scripts"))

import check_bench  # noqa: E402  (scripts/ is not a package)

BASELINE = {
    "requests": 200_000,
    "hierarchy": {"sharded_speedup_vs_serial": 1.6},
    "remeasurement": {"overhead_ratio_vs_passive": 1.2, "events_fired": 20_000},
    "client_clouds": {"overhead_ratio_vs_uniform": 1.4},
}


def test_identical_files_pass():
    assert check_bench.check(BASELINE, BASELINE) == []


def test_lost_keys_fail_recursively():
    current = json.loads(json.dumps(BASELINE))
    del current["requests"]
    del current["remeasurement"]["events_fired"]
    problems = check_bench.check(BASELINE, current)
    assert "lost key: requests" in problems
    assert "lost key: remeasurement.events_fired" in problems


def test_new_keys_never_fail():
    current = json.loads(json.dumps(BASELINE))
    current["reactive"] = {"overhead_ratio_vs_passive": 1.1}
    current["remeasurement"]["brand_new"] = 7
    assert check_bench.check(BASELINE, current) == []


def test_speedup_regression_fails_and_improvement_passes():
    slower = json.loads(json.dumps(BASELINE))
    slower["hierarchy"]["sharded_speedup_vs_serial"] = 1.6 * 0.45  # past 50%
    problems = check_bench.check(BASELINE, slower)
    assert any(p.startswith("hierarchy.sharded_speedup_vs_serial:") for p in problems)

    faster = json.loads(json.dumps(BASELINE))
    faster["hierarchy"]["sharded_speedup_vs_serial"] = 16.0
    assert check_bench.check(BASELINE, faster) == []


def test_machine_profile_ratios_get_the_wider_band():
    """The sharded speedup compares in-process loops against process
    spawn, so its run-to-run noise exceeds the default tolerance; a shift
    inside the widened per-key band must not fail the gate."""
    wobbling = json.loads(json.dumps(BASELINE))
    # Past 25%, inside 50%.
    wobbling["hierarchy"]["sharded_speedup_vs_serial"] = 1.6 * 0.6
    assert check_bench.check(BASELINE, wobbling) == []


def test_overhead_regression_is_direction_aware():
    heavier = json.loads(json.dumps(BASELINE))
    heavier["client_clouds"]["overhead_ratio_vs_uniform"] = 1.4 * 1.26
    problems = check_bench.check(BASELINE, heavier)
    assert any(
        p.startswith("client_clouds.overhead_ratio_vs_uniform:") for p in problems
    )

    lighter = json.loads(json.dumps(BASELINE))
    lighter["client_clouds"]["overhead_ratio_vs_uniform"] = 0.9
    assert check_bench.check(BASELINE, lighter) == []


def test_interpreter_bound_overheads_get_the_wider_band():
    """The remeasurement/reactive ratios move with interpreter state (their
    observed no-code-change span exceeds the default tolerance), so they
    carry the 40% per-key band — inside it passes, past it still fails."""
    wobbling = json.loads(json.dumps(BASELINE))
    wobbling["remeasurement"]["overhead_ratio_vs_passive"] = 1.2 * 1.35
    assert check_bench.check(BASELINE, wobbling) == []

    runaway = json.loads(json.dumps(BASELINE))
    runaway["remeasurement"]["overhead_ratio_vs_passive"] = 1.2 * 1.45
    problems = check_bench.check(BASELINE, runaway)
    assert any(
        p.startswith("remeasurement.overhead_ratio_vs_passive:") for p in problems
    )


def test_tolerance_is_configurable():
    slightly_heavier = json.loads(json.dumps(BASELINE))
    slightly_heavier["client_clouds"]["overhead_ratio_vs_uniform"] = 1.4 * 1.1
    assert check_bench.check(BASELINE, slightly_heavier) == []
    problems = check_bench.check(BASELINE, slightly_heavier, tolerance=0.05)
    assert any(
        p.startswith("client_clouds.overhead_ratio_vs_uniform:") for p in problems
    )


def test_cli_exit_codes(tmp_path):
    baseline_path = tmp_path / "baseline.json"
    current_path = tmp_path / "current.json"
    baseline_path.write_text(json.dumps(BASELINE))
    current_path.write_text(json.dumps(BASELINE))
    assert check_bench.main(
        [str(current_path), "--baseline", str(baseline_path)]
    ) == 0
    broken = json.loads(json.dumps(BASELINE))
    del broken["client_clouds"]
    current_path.write_text(json.dumps(broken))
    assert check_bench.main(
        [str(current_path), "--baseline", str(baseline_path)]
    ) == 1


def test_committed_record_passes_its_own_gate():
    committed = json.loads((REPO_ROOT / "BENCH_perf.json").read_text())
    assert check_bench.check(committed, committed) == []
    # Every gated ratio the record carries is a real number.
    gated = [
        key
        for key in check_bench.RATIO_KEYS
        if check_bench._lookup(committed, key) is not None
    ]
    assert len(gated) >= 5


def test_committed_record_has_the_reactive_section():
    """The reactive overhead ratio is part of the trajectory from PR 5 on."""
    committed = json.loads((REPO_ROOT / "BENCH_perf.json").read_text())
    reactive = committed["reactive"]
    assert reactive["overhead_ratio_vs_passive"] > 0  # value is machine-specific
    assert reactive["requests_per_sec"] > 0
    assert reactive["shifts"] > 0
    assert reactive["rekeys"] > 0
