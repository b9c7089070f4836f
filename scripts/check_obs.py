#!/usr/bin/env python
"""Schema gate for the observability artifacts (``make obs-smoke``).

Validates the two files ``repro-sim run`` writes when observability is
switched on:

* the ``--metrics-out`` JSON timeline — schema version, consistent
  window count across every series, the expected series keys, and
  totals that carry the run's aggregate counters, each integer
  per-window series (:data:`SUMMED_SERIES`) summing to its total;
* the ``--trace-out`` JSONL event trace — every line parses, carries
  the required envelope fields (``t``/``event``/``level``), uses a
  known level, and the file is bracketed by ``run-start``/``run-end``;
  every ``cache-*`` event names an object and a ``prev`` -> ``bytes``
  transition its name allows (:data:`CACHE_TRANSITIONS`).

Event timestamps are deliberately *not* required to be monotone:
fault-episode boundaries are emitted when the injector first looks past
them, which can trail the requests already processed.

Usage::

    python scripts/check_obs.py METRICS_JSON TRACE_JSONL
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List

#: Series the timeline JSON must expose, one value per window.
REQUIRED_SERIES = (
    "requests",
    "hits",
    "hit_ratio",
    "byte_hit_ratio",
    "mean_delay",
    "cache_occupancy",
    "cached_objects",
    "evictions",
    "reactive_shifts",
    "reactive_rekeys",
    "fault_state",
    "streaming_startup_delay",
    "streaming_rebuffer_ratio",
    "streaming_quality",
    "streaming_abandonment_rate",
)

#: Integer per-window series whose windows must sum to the run's total.
SUMMED_SERIES = ("requests", "hits", "evictions", "reactive_shifts", "reactive_rekeys")

#: Envelope fields every trace line must carry.
TRACE_ENVELOPE = ("t", "event", "level")

TRACE_LEVELS = ("debug", "info")

#: The store change each ``cache-*`` event may describe, as a test on its
#: cached KB before (``prev``) and after (``bytes``).
CACHE_TRANSITIONS = {
    "cache-admission": lambda prev, now: prev == 0 < now,
    "cache-grow": lambda prev, now: 0 < prev < now,
    "cache-trim": lambda prev, now: 0 < now < prev,
    "cache-eviction": lambda prev, now: now == 0 < prev,
}


def check_metrics(path: Path) -> List[str]:
    """Validate a ``--metrics-out`` timeline file; return failure strings."""
    failures: List[str] = []
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as error:
        return [f"{path}: unreadable metrics JSON: {error}"]
    if payload.get("schema") != 1:
        failures.append(f"{path}: schema {payload.get('schema')!r}, expected 1")
    num_windows = payload.get("num_windows")
    if not isinstance(num_windows, int) or num_windows < 1:
        failures.append(f"{path}: bad num_windows {num_windows!r}")
        return failures
    starts = payload.get("window_starts", [])
    if len(starts) != num_windows:
        failures.append(
            f"{path}: {len(starts)} window_starts for {num_windows} windows"
        )
    series = payload.get("series", {})
    for name in REQUIRED_SERIES:
        values = series.get(name)
        if values is None:
            failures.append(f"{path}: series {name!r} missing")
        elif len(values) != num_windows:
            failures.append(
                f"{path}: series {name!r} has {len(values)} values "
                f"for {num_windows} windows"
            )
    totals = payload.get("totals", {})
    for name in SUMMED_SERIES:
        if name not in totals:
            failures.append(f"{path}: totals missing {name!r}")
        elif name in series and sum(series[name]) != totals[name]:
            failures.append(
                f"{path}: per-window {name} sum to "
                f"{sum(series[name])}, totals say {totals[name]}"
            )
    return failures


def check_trace(path: Path) -> List[str]:
    """Validate a ``--trace-out`` JSONL file; return failure strings."""
    failures: List[str] = []
    try:
        lines = path.read_text().splitlines()
    except OSError as error:
        return [f"{path}: unreadable trace file: {error}"]
    if not lines:
        return [f"{path}: empty trace"]
    records = []
    for number, line in enumerate(lines, start=1):
        try:
            record = json.loads(line)
        except ValueError as error:
            failures.append(f"{path}:{number}: unparseable line: {error}")
            continue
        for field in TRACE_ENVELOPE:
            if field not in record:
                failures.append(f"{path}:{number}: missing {field!r}")
        if record.get("level") not in TRACE_LEVELS:
            failures.append(
                f"{path}:{number}: unknown level {record.get('level')!r}"
            )
        if str(record.get("event")).startswith("cache-"):
            failures.extend(check_cache_event(f"{path}:{number}", record))
        records.append(record)
    if records:
        if records[0].get("event") != "run-start":
            failures.append(
                f"{path}: first event is {records[0].get('event')!r}, "
                "expected 'run-start'"
            )
        if records[-1].get("event") != "run-end":
            failures.append(
                f"{path}: last event is {records[-1].get('event')!r}, "
                "expected 'run-end'"
            )
    return failures


def check_cache_event(where: str, record: dict) -> List[str]:
    """Check one ``cache-*`` record's payload against its event name."""
    event = record["event"]
    allowed = CACHE_TRANSITIONS.get(event)
    if allowed is None:
        return [f"{where}: unknown cache event {event!r}"]
    object_id = record.get("object")
    prev, now = record.get("prev"), record.get("bytes")
    if not isinstance(object_id, int) or isinstance(object_id, bool):
        return [f"{where}: {event} without an integer object id"]
    if not all(
        isinstance(value, (int, float)) and not isinstance(value, bool)
        for value in (prev, now)
    ):
        return [f"{where}: {event} of object {object_id} lacks numeric bytes/prev"]
    if not allowed(prev, now):
        return [
            f"{where}: {event} of object {object_id} goes from {prev!r} KB "
            f"to {now!r} KB"
        ]
    return []


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    metrics_path, trace_path = Path(argv[0]), Path(argv[1])
    failures = check_metrics(metrics_path) + check_trace(trace_path)
    if failures:
        for failure in failures:
            print(f"FAIL {failure}")
        return 1
    print(f"OK {metrics_path} and {trace_path} pass the observability schema")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
