"""Performance metrics (Section 3.3 of the paper).

Four metrics are collected, each reflecting a different caching objective:

* **traffic reduction ratio** — the fraction of all delivered bytes served
  out of the proxy cache (backbone traffic avoided),
* **average service delay** — the mean startup delay (seconds) a client
  perceives when it chooses to wait for full-quality playout,
* **average stream quality** — the mean fraction of the stream (layers)
  that can be played with zero startup delay when the client chooses to
  degrade instead of wait,
* **total added value** — the summed value ``V_i`` of requests that could be
  served immediately at full quality (the revenue objective of Section 2.6).

The collector also tracks conventional cache statistics (request hit ratio,
byte hit ratio) because they help explain the headline metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.obs.timeline import CUMULATIVE_FIELDS
from repro.streaming.session import DeliveryOutcome

#: The columns of an outcome row, one per measured request, in storage
#: order: KB from the cache, KB from the server, service delay, stream
#: quality, added value (0.0 unless the request earned it), status
#: (:data:`SERVED`, :data:`STALE` or :data:`FAILED`) and retries.
OUTCOME_COLUMNS = (
    "cache_kb",
    "server_kb",
    "delay",
    "quality",
    "value",
    "status",
    "retries",
)

#: Values of the ``status`` column: a served request, a stale serve of
#: the cached prefix of an unreachable origin, and a failed request.
SERVED, STALE, FAILED = 0.0, 1.0, 2.0

#: The collector's sums, named after the core fields of a timeline row.
_CORE_SUMS = tuple("_" + name for name in CUMULATIVE_FIELDS[:14])


def _running(carried, values: np.ndarray) -> np.ndarray:
    """``[carried, carried + v0, (carried + v0) + v1, ...]``, added in order.

    An ordered ``np.add.accumulate`` adds exactly as a sequence of ``+=``
    does; ``np.sum`` (pairwise) and Python 3.12's ``sum`` (compensated)
    do not.  Counts (an ``int`` carried value) stay integers.
    """
    dtype = np.float64 if isinstance(carried, float) else np.int64
    out = np.empty(values.size + 1, dtype=dtype)
    out[0] = carried
    out[1:] = values
    return np.add.accumulate(out, out=out)


@dataclass(frozen=True)
class SimulationMetrics:
    """Aggregated metrics over the measurement phase of one simulation run.

    The fault-model fields (``availability`` and the failed / stale /
    retried counters) stay at their no-fault defaults unless the run had
    :attr:`~repro.sim.config.SimulationConfig.faults` enabled:
    ``availability`` is the fraction of measured requests that were served
    at all (stale serves count as served — degraded, not failed), and
    ``stale_served_requests`` counts requests answered from the cached
    prefix of an unreachable origin (:mod:`repro.sim.faults`).
    """

    requests: int
    traffic_reduction_ratio: float
    average_service_delay: float
    average_stream_quality: float
    total_added_value: float
    hit_ratio: float
    byte_hit_ratio: float
    immediate_service_ratio: float
    average_delay_among_delayed: float
    delayed_request_ratio: float
    bytes_from_cache_gb: float
    bytes_from_server_gb: float
    availability: float = 1.0
    failed_requests: int = 0
    stale_served_requests: int = 0
    retried_requests: int = 0
    total_retries: int = 0

    def as_dict(self) -> Dict[str, float]:
        """Return the metrics as a plain dictionary (for tables and JSON)."""
        return {
            "requests": float(self.requests),
            "traffic_reduction_ratio": self.traffic_reduction_ratio,
            "average_service_delay": self.average_service_delay,
            "average_stream_quality": self.average_stream_quality,
            "total_added_value": self.total_added_value,
            "hit_ratio": self.hit_ratio,
            "byte_hit_ratio": self.byte_hit_ratio,
            "immediate_service_ratio": self.immediate_service_ratio,
            "average_delay_among_delayed": self.average_delay_among_delayed,
            "delayed_request_ratio": self.delayed_request_ratio,
            "bytes_from_cache_gb": self.bytes_from_cache_gb,
            "bytes_from_server_gb": self.bytes_from_server_gb,
            "availability": self.availability,
            "failed_requests": float(self.failed_requests),
            "stale_served_requests": float(self.stale_served_requests),
            "retried_requests": float(self.retried_requests),
            "total_retries": float(self.total_retries),
        }

    @staticmethod
    def average(metrics: List["SimulationMetrics"]) -> "SimulationMetrics":
        """Average a list of metrics (the paper averages ten runs per point)."""
        if not metrics:
            raise ValueError("cannot average an empty list of metrics")
        count = len(metrics)

        def mean(attribute: str) -> float:
            return sum(getattr(m, attribute) for m in metrics) / count

        return SimulationMetrics(
            requests=int(mean("requests")),
            traffic_reduction_ratio=mean("traffic_reduction_ratio"),
            average_service_delay=mean("average_service_delay"),
            average_stream_quality=mean("average_stream_quality"),
            total_added_value=mean("total_added_value"),
            hit_ratio=mean("hit_ratio"),
            byte_hit_ratio=mean("byte_hit_ratio"),
            immediate_service_ratio=mean("immediate_service_ratio"),
            average_delay_among_delayed=mean("average_delay_among_delayed"),
            delayed_request_ratio=mean("delayed_request_ratio"),
            bytes_from_cache_gb=mean("bytes_from_cache_gb"),
            bytes_from_server_gb=mean("bytes_from_server_gb"),
            availability=mean("availability"),
            failed_requests=int(mean("failed_requests")),
            stale_served_requests=int(mean("stale_served_requests")),
            retried_requests=int(mean("retried_requests")),
            total_retries=int(mean("total_retries")),
        )


@dataclass
class MetricsCollector:
    """Accumulate per-request outcomes and finalise into metrics.

    :meth:`record` adds one :class:`DeliveryOutcome`; only requests
    recorded while :attr:`measuring` is True contribute to the final
    metrics.  The replay kernel instead writes outcome rows and hands them
    over in blocks (:meth:`absorb_rows`), which sum exactly as
    :meth:`record` would.
    """

    measuring: bool = False
    _requests: int = 0
    _bytes_from_cache: float = 0.0
    _bytes_from_server: float = 0.0
    _delay_sum: float = 0.0
    _quality_sum: float = 0.0
    _value_sum: float = 0.0
    _hits: int = 0
    _immediate: int = 0
    _delayed: int = 0
    _delay_sum_delayed: float = 0.0
    _warmup_requests: int = 0
    _failed: int = 0
    _stale_served: int = 0
    _retried: int = 0
    _total_retries: int = 0

    def record(self, outcome: DeliveryOutcome) -> None:
        """Record one served request (warm-up requests are counted separately)."""
        if not self.measuring:
            self._warmup_requests += 1
            return
        self._requests += 1
        self._bytes_from_cache += outcome.bytes_from_cache
        self._bytes_from_server += outcome.bytes_from_server
        self._delay_sum += outcome.service_delay
        self._quality_sum += outcome.stream_quality
        if outcome.immediate_full_quality:
            self._value_sum += outcome.value
            self._immediate += 1
        else:
            self._delayed += 1
            self._delay_sum_delayed += outcome.service_delay
        if outcome.bytes_from_cache > 0:
            self._hits += 1

    @property
    def warmup_requests(self) -> int:
        """Number of requests processed during warm-up."""
        return self._warmup_requests

    def absorb(
        self,
        *,
        requests: int = 0,
        bytes_from_cache: float = 0.0,
        bytes_from_server: float = 0.0,
        delay_sum: float = 0.0,
        quality_sum: float = 0.0,
        value_sum: float = 0.0,
        hits: int = 0,
        immediate: int = 0,
        delayed: int = 0,
        delay_sum_delayed: float = 0.0,
        warmup_requests: int = 0,
        failed: int = 0,
        stale_served: int = 0,
        retried: int = 0,
        total_retries: int = 0,
    ) -> None:
        """Add totals summed elsewhere to the collector's sums.

        The replay kernel adds its warm-up count here, and
        :func:`~repro.analysis.parallel.merge_shard_results` each shard's
        totals.
        """
        self._requests += requests
        self._bytes_from_cache += bytes_from_cache
        self._bytes_from_server += bytes_from_server
        self._delay_sum += delay_sum
        self._quality_sum += quality_sum
        self._value_sum += value_sum
        self._hits += hits
        self._immediate += immediate
        self._delayed += delayed
        self._delay_sum_delayed += delay_sum_delayed
        self._warmup_requests += warmup_requests
        self._failed += failed
        self._stale_served += stale_served
        self._retried += retried
        self._total_retries += total_retries

    def absorb_rows(
        self, columns: Sequence[memoryview], count: int, rows: List[int]
    ) -> List[tuple]:
        """Add the first ``count`` outcome rows to the sums, in row order.

        ``columns`` hold one typed double per row, in
        :data:`OUTCOME_COLUMNS` order.  Each sum is one ordered accumulate
        over ``[carried, x0, x1, ...]``, so it equals ``count`` calls of
        :meth:`record` bit for bit; counts derive from the same rows:

        * a hit is a row with cache KB above zero;
        * an immediate request is served with no delay, every other one
          is delayed (a failed or stale request counts as delayed even
          with nothing waited), and only delayed rows add their delay to
          the delayed-delay sum.

        Returns, for each of ``rows``, the core fields of a timeline row
        summed over the outcome rows before it (``count``: all of them).
        Without ``rows`` the counts skip their running sums: a count adds
        up the same in any order.
        """
        cache, server, delay, quality, value, status, retries = (
            np.frombuffer(column, dtype=np.float64, count=count)
            for column in columns
        )
        immediate = (status == SERVED) & (delay <= 0.0)
        values = (
            np.ones(count, dtype=bool),
            cache,
            server,
            delay,
            quality,
            value,
            cache > 0.0,
            immediate,
            ~immediate,
            np.where(immediate, 0.0, delay),
            status == FAILED,
            status == STALE,
            retries > 0.0,
            retries.astype(np.int64),
        )
        picked = []
        for name, column in zip(_CORE_SUMS, values):
            carried = getattr(self, name)
            if rows or isinstance(carried, float):
                running = _running(carried, column)
                setattr(self, name, running[-1].item())
                picked.append(running)
            else:
                setattr(self, name, carried + int(column.sum()))
        if not rows:
            return []
        return list(zip(*(running[rows].tolist() for running in picked)))

    def finalize(self) -> SimulationMetrics:
        """Produce the aggregate metrics for the measurement phase."""
        requests = self._requests
        total_bytes = self._bytes_from_cache + self._bytes_from_server
        return SimulationMetrics(
            requests=requests,
            traffic_reduction_ratio=(
                self._bytes_from_cache / total_bytes if total_bytes > 0 else 0.0
            ),
            average_service_delay=(self._delay_sum / requests if requests > 0 else 0.0),
            average_stream_quality=(
                self._quality_sum / requests if requests > 0 else 1.0
            ),
            total_added_value=self._value_sum,
            hit_ratio=(self._hits / requests if requests > 0 else 0.0),
            byte_hit_ratio=(
                self._bytes_from_cache / total_bytes if total_bytes > 0 else 0.0
            ),
            immediate_service_ratio=(
                self._immediate / requests if requests > 0 else 1.0
            ),
            average_delay_among_delayed=(
                self._delay_sum_delayed / self._delayed if self._delayed > 0 else 0.0
            ),
            delayed_request_ratio=(self._delayed / requests if requests > 0 else 0.0),
            bytes_from_cache_gb=self._bytes_from_cache / 1_000_000.0,
            bytes_from_server_gb=self._bytes_from_server / 1_000_000.0,
            availability=(
                1.0 - self._failed / requests if requests > 0 else 1.0
            ),
            failed_requests=self._failed,
            stale_served_requests=self._stale_served,
            retried_requests=self._retried,
            total_retries=self._total_retries,
        )
