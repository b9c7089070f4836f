"""Golden-output comparison for the benchmark.

A golden file (``bench/golden/seed-<n>.json``) maps each workload to the
flattened outputs one run of it produced at the commit that recorded it.
:func:`compare` checks every recorded key exactly and tolerates keys the
current program adds, so new result fields never count as errors while a
changed value or a missing key always does.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def golden_path(seed: int) -> Path:
    return GOLDEN_DIR / f"seed-{seed}.json"


def load_golden(seed: int) -> Optional[Dict[str, dict]]:
    """The recorded outputs for ``seed``, or ``None`` if none were recorded."""
    path = golden_path(seed)
    if not path.exists():
        return None
    return json.loads(path.read_text())


def compare(expected: Dict[str, object], actual: Dict[str, object]) -> List[str]:
    """Differences between recorded and current flattened outputs.

    Every key of ``expected`` must be present in ``actual`` with an equal
    value; keys only in ``actual`` are ignored.
    """
    problems = []
    for key, value in expected.items():
        if key not in actual:
            problems.append(f"{key}: missing (recorded {value!r})")
        elif actual[key] != value:
            problems.append(f"{key}: {actual[key]!r} != recorded {value!r}")
    return problems


def record(seed: int, outputs: Dict[str, Dict[str, object]]) -> Path:
    """Write (or extend) the golden file for ``seed``."""
    path = golden_path(seed)
    data = load_golden(seed) or {}
    data.update(outputs)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return path
