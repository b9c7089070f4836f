#!/usr/bin/env python
"""Benchmark-trajectory gate: ``BENCH_perf.json`` must not silently decay.

``BENCH_perf.json`` is the repo's performance record.  Two failure modes
have historically gone unnoticed in CI: a refactor of the benchmark file
*dropping* a recorded section (the trajectory quietly loses a metric), and
a *ratio* regressing while absolute numbers still look plausible on a
differently-sized runner.  This gate catches both by comparing a freshly
measured ``BENCH_perf.json`` against the committed baseline (captured
before the benchmark rewrites the file):

* **Key loss** — every key present in the baseline must still exist in the
  current file, recursively.  New keys are fine (that is how the record
  grows); losing one fails.
* **Ratio regression** — the recorded *ratios* (speedups and overheads,
  :data:`RATIO_KEYS`) are machine-normalised, so they are comparable
  across runners: a current ratio more than ``--tolerance`` (default 25%)
  worse than the baseline fails.  "Worse" is direction-aware — lower for
  speedups, higher for overhead ratios — so improvements never fail the
  gate, and ratios that exist only in the current file (newly added
  metrics) are skipped.  Ratios that compare differently shaped code
  paths (and therefore move with the machine profile, not the code)
  carry a wider per-key tolerance in :data:`RATIO_KEYS`.

Used by the CI bench-smoke job (see ``.github/workflows/ci.yml``), which
also uploads the fresh file as a workflow artifact so the perf trajectory
is inspectable per run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Dotted paths of the recorded ratios, mapped to ``(better, tolerance)``:
#: the direction that is *better* ("higher" for speedups, "lower" for
#: overheads) and an optional per-key tolerance override.  Absolute
#: requests/sec numbers are deliberately not gated: they measure the
#: runner, not the code.  The overridden keys compare two *differently
#: shaped* code paths (interpreter-bound engines vs the numpy-bound
#: columnar loop; process spawn vs pickle), so their ratio shifts with the
#: machine profile itself — observed run-to-run deltas approach 25% with
#: no code change, which would put the default gate at the flake
#: boundary.  Same-shaped overhead ratios keep the tight default.
RATIO_KEYS: Dict[str, tuple] = {
    # The remeasurement and reactive overheads are dominated by per-request
    # interpreter work layered on the numpy-bound columnar-event baseline,
    # so interpreter state (and whether the benchmark runs standalone or
    # inside the full suite, as CI does) moves the ratio with no code
    # change: observed spans on the 1-core runner are 0.89–1.29 for
    # remeasurement and 1.08–1.62 for reactive, past the default gate.
    "remeasurement.overhead_ratio_vs_passive": ("lower", 0.40),
    "client_clouds.overhead_ratio_vs_uniform": ("lower", None),
    "reactive.overhead_ratio_vs_passive": ("lower", 0.40),
    # The fault-injection overhead is a few percent at most, so run-to-run
    # timer noise dominates the ratio itself (baselines below 1.0 occur);
    # the wider tolerance keeps a noise-low committed baseline from turning
    # the gate into a coin flip.
    "faults.overhead_ratio_vs_baseline": ("lower", 0.40),
    # The streaming-session engine is per-request interpreter work layered
    # on the numpy-bound columnar loop — the same machine-profile argument
    # as the remeasurement/reactive ratios, but with a larger interpreter
    # share (session arithmetic + segment-boundary sync per request), so
    # the band is wider still.
    "streaming.overhead_ratio_vs_baseline": ("lower", 0.50),
    # The hierarchy engine is the same shape as the streaming engine:
    # per-request interpreter work (residency reads, uplink-chain caps,
    # per-tier policy calls) on the numpy-bound columnar baseline, so the
    # ratio moves with the machine's interpreter profile, not the code.
    "hierarchy.overhead_ratio_vs_baseline": ("lower", 0.50),
    # Serial vs pooled shard replay compares in-process loops against
    # process spawn + per-worker imports — the dispatch argument, but
    # with the whole speedup (not just transport) exposed to the machine
    # profile: a 1-core runner can legitimately land below 1.0.
    "hierarchy.sharded_speedup_vs_serial": ("higher", 0.50),
    # Disabled observability is the same dead branch on both sides, so the
    # true ratio is 1.0 and the measurement is pure timer noise — same
    # flake argument as the faults ratio above.
    "observability.overhead_ratio_vs_baseline": ("lower", 0.40),
    "observability.timeline_overhead_ratio_vs_baseline": ("lower", 0.40),
    "dispatch.shm_vs_pickle_ratio": ("lower", 0.40),
}

#: A ratio may be this fraction worse than the committed baseline before
#: the gate fails (ratios are machine-normalised but still noisy);
#: applies to every key without a :data:`RATIO_KEYS` override.
DEFAULT_TOLERANCE = 0.25


def missing_keys(baseline: dict, current: dict, prefix: str = "") -> List[str]:
    """Dotted paths of keys present in ``baseline`` but lost in ``current``."""
    lost: List[str] = []
    for key, value in baseline.items():
        path = f"{prefix}.{key}" if prefix else str(key)
        if key not in current:
            lost.append(path)
            continue
        if isinstance(value, dict) and isinstance(current[key], dict):
            lost.extend(missing_keys(value, current[key], path))
    return lost


def _lookup(data: dict, dotted: str) -> Optional[float]:
    node = data
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return float(node) if isinstance(node, (int, float)) else None


def ratio_regressions(
    baseline: dict, current: dict, tolerance: float = DEFAULT_TOLERANCE
) -> List[str]:
    """Human-readable failures for every gated ratio that regressed.

    A ratio is checked against the baseline only when the *baseline*
    records it — newly added ratios have no baseline to regress from.  A
    ratio the baseline records but the current file lost is reported by
    :func:`missing_keys`, not here.
    """
    failures: List[str] = []
    for dotted, (better, override) in RATIO_KEYS.items():
        recorded = _lookup(baseline, dotted)
        measured = _lookup(current, dotted)
        if recorded is None or measured is None:
            continue
        allowed = tolerance if override is None else max(override, tolerance)
        if better == "higher":
            floor = recorded * (1.0 - allowed)
            if measured < floor:
                failures.append(
                    f"{dotted}: {measured:.3f} is below the baseline "
                    f"{recorded:.3f} by more than {allowed:.0%} "
                    f"(floor {floor:.3f})"
                )
        else:
            ceiling = recorded * (1.0 + allowed)
            if measured > ceiling:
                failures.append(
                    f"{dotted}: {measured:.3f} is above the baseline "
                    f"{recorded:.3f} by more than {allowed:.0%} "
                    f"(ceiling {ceiling:.3f})"
                )
    return failures


def check(
    baseline: dict, current: dict, tolerance: float = DEFAULT_TOLERANCE
) -> List[str]:
    """All gate failures: lost keys first, then ratio regressions."""
    problems = [f"lost key: {path}" for path in missing_keys(baseline, current)]
    problems.extend(ratio_regressions(baseline, current, tolerance))
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "current",
        nargs="?",
        default=str(REPO_ROOT / "BENCH_perf.json"),
        help="freshly measured BENCH_perf.json (default: repo root)",
    )
    parser.add_argument(
        "--baseline",
        required=True,
        help="committed BENCH_perf.json captured before the benchmark ran",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed fractional ratio regression (default: 0.25)",
    )
    args = parser.parse_args(argv)

    baseline = json.loads(Path(args.baseline).read_text())
    current = json.loads(Path(args.current).read_text())
    problems = check(baseline, current, args.tolerance)
    for problem in problems:
        print(problem)
    gated = sum(1 for key in RATIO_KEYS if _lookup(baseline, key) is not None)
    print(
        f"bench gate: {gated} ratios checked against {args.baseline}, "
        f"{len(problems)} problem(s)"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
