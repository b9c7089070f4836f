"""Structured event tracing: the JSONL :class:`TraceSink` and the
store subclass that feeds it cache admission/eviction events.

The sink is opt-in (``ObservabilityConfig.trace_path``) and write-only:
components that can emit events carry an optional ``trace`` attribute
that the simulator points at the sink for the duration of one run.  Two
filters keep trace files bounded:

* **level** — events are ``"info"`` (run boundaries, re-keys, fault
  episodes, failed fetches) or ``"debug"`` (per-object cache admissions,
  evictions, trims, retry attempts); a sink opened at ``"info"`` drops
  debug events at the emit site.
* **sampling** — ``trace_sample`` keeps a deterministic fraction of
  events *per event name* using a fixed stride over the per-name emit
  count.  Sampling never draws randomness, so tracing cannot perturb
  the simulation's RNG streams; ``run-start``/``run-end`` are exempt so
  every file stays self-delimiting.

Records are one JSON object per line with at least ``t`` (simulated
seconds), ``event``, and ``level``.
"""

from __future__ import annotations

import json
from typing import Dict, Optional

from repro.core.store import CacheStore

__all__ = ["ObservedCacheStore", "TraceSink"]

#: Numeric severity per trace level name.
_LEVELS = {"debug": 10, "info": 20}

#: Events exempt from sampling: they delimit the file.
_UNSAMPLED = frozenset({"run-start", "run-end"})


class TraceSink:
    """Filtered JSONL writer for structured simulation events."""

    def __init__(
        self, path: str, level: str = "info", sample: float = 1.0
    ) -> None:
        """Open ``path`` for writing with the given level/sampling filter.

        ``level`` is the minimum severity written (``"info"`` or
        ``"debug"``); ``sample`` is the per-event-name keep fraction in
        ``(0, 1]``.
        """
        if level not in _LEVELS:
            raise ValueError(
                f"level must be one of {tuple(_LEVELS)}, got {level!r}"
            )
        if not 0.0 < sample <= 1.0:
            raise ValueError(f"sample must be in (0, 1], got {sample!r}")
        self.path = str(path)
        self._min_level = _LEVELS[level]
        self._sample = float(sample)
        self._counts: Dict[str, int] = {}
        self._handle = open(self.path, "w", encoding="utf-8")
        #: Records written / suppressed by the level+sampling filters.
        self.emitted = 0
        self.dropped = 0

    def emit(self, level: str, event: str, time: float, **fields) -> None:
        """Write one event record, subject to the level/sampling filters.

        ``time`` is simulated seconds; ``fields`` become extra JSON keys
        and must be JSON-serialisable.
        """
        if _LEVELS[level] < self._min_level:
            self.dropped += 1
            return
        if self._sample < 1.0 and event not in _UNSAMPLED:
            count = self._counts.get(event, 0) + 1
            self._counts[event] = count
            if int(count * self._sample) == int((count - 1) * self._sample):
                self.dropped += 1
                return
        record = {"t": time, "event": event, "level": level}
        record.update(fields)
        self._handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        self.emitted += 1

    def close(self) -> None:
        """Flush and close the trace file; safe to call more than once."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "TraceSink":
        """Context-manager entry: the sink itself."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: close the file."""
        self.close()


class ObservedCacheStore(CacheStore):
    """A :class:`CacheStore` that traces admissions, growth, trims, and
    evictions to a :class:`TraceSink` at debug level.

    Every allocation change arrives through :meth:`set_cached_bytes` with
    the simulation time of the request that caused it, which stamps the
    event.  The subclass changes no caching behaviour — byte accounting
    and eviction order are inherited unchanged — so simulated metrics are
    identical with or without it.
    """

    def __init__(self, capacity_kb: float, sink: TraceSink) -> None:
        """Create a store of ``capacity_kb`` KB reporting to ``sink``."""
        super().__init__(capacity_kb)
        self._sink = sink

    def set_cached_bytes(
        self, object_id: int, target_bytes: float, now: float = 0.0
    ) -> None:
        """Apply an allocation change and trace the transition at ``now``."""
        before = self.cached_bytes(object_id)
        super().set_cached_bytes(object_id, target_bytes, now)
        after = self.cached_bytes(object_id)
        if after == before:
            return
        if before == 0.0:
            event = "cache-admission"
        elif after == 0.0:
            event = "cache-eviction"
        elif after < before:
            event = "cache-trim"
        else:
            event = "cache-grow"
        self._sink.emit(
            "debug", event, now, object=object_id, bytes=after, prev=before
        )
