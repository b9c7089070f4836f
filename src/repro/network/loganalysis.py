"""Synthetic proxy-log substrate and the Section 3.1 analysis pipeline.

The paper derives its bandwidth models from nine days of NLANR proxy cache
logs (site UC, April 2001).  Those logs are proprietary and no longer
distributed, so this module substitutes a synthetic equivalent that
exercises the same code path:

* :class:`SyntheticProxyLog` generates HTTP transfer records (URL, size,
  duration, cache status) whose per-transfer throughput follows the
  published Figure 2 distribution and whose per-path variability follows
  the Figure 3 sample-to-mean model.
* :class:`ProxyLogAnalyzer` reproduces the paper's analysis: keep only
  *missed* requests for objects larger than 200 KB, compute throughput as
  size / duration, build the bandwidth histogram and CDF (Figure 2), and
  compute per-path sample-to-mean ratio statistics (Figure 3).

The substitution is behaviour-preserving because the simulation only ever
consumes the *distributions* this pipeline produces, and those distributions
are published in the paper.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ConfigurationError, TraceFormatError
from repro.network.distributions import (
    BandwidthDistribution,
    EmpiricalBandwidthDistribution,
    NLANRBandwidthDistribution,
)
from repro.network.variability import (
    BandwidthVariabilityModel,
    NLANRRatioVariability,
    empirical_ratio_statistics,
)


@dataclass(frozen=True)
class TransferRecord:
    """One HTTP transfer as it would appear in a proxy access log.

    Attributes
    ----------
    timestamp:
        Completion time of the transfer (seconds since the log start).
    server_id:
        Anonymised origin-server identifier.
    size_kb:
        Bytes transferred, in KB.
    duration_s:
        Connection duration in seconds.
    cache_hit:
        Whether the proxy served the object itself.  The paper's analysis
        discards hits because only misses reveal the server path bandwidth.
    """

    timestamp: float
    server_id: int
    size_kb: float
    duration_s: float
    cache_hit: bool

    @property
    def throughput(self) -> float:
        """Observed throughput in KB/s (size divided by duration)."""
        if self.duration_s <= 0:
            return 0.0
        return self.size_kb / self.duration_s


class SyntheticProxyLog:
    """Generate synthetic proxy-log transfer records.

    Each origin server is assigned a mean path bandwidth from ``base``; each
    transfer to that server observes the mean multiplied by a ratio from
    ``variability``.  Object sizes follow a Pareto-like heavy tail (most Web
    transfers are small, a minority exceed the 200 KB threshold the paper's
    analysis uses), and a configurable fraction of requests are cache hits.
    """

    def __init__(
        self,
        num_servers: int = 200,
        num_records: int = 20_000,
        base: Optional[BandwidthDistribution] = None,
        variability: Optional[BandwidthVariabilityModel] = None,
        hit_fraction: float = 0.3,
        large_object_fraction: float = 0.25,
        seed: int = 0,
    ):
        if num_servers <= 0 or num_records <= 0:
            raise ConfigurationError("num_servers and num_records must be positive")
        if not 0.0 <= hit_fraction < 1.0:
            raise ConfigurationError(f"hit_fraction must be in [0, 1), got {hit_fraction}")
        if not 0.0 < large_object_fraction <= 1.0:
            raise ConfigurationError(
                f"large_object_fraction must be in (0, 1], got {large_object_fraction}"
            )
        self.num_servers = int(num_servers)
        self.num_records = int(num_records)
        self.base = base or NLANRBandwidthDistribution()
        self.variability = variability or NLANRRatioVariability()
        self.hit_fraction = float(hit_fraction)
        self.large_object_fraction = float(large_object_fraction)
        self.seed = int(seed)

    def generate(self) -> List[TransferRecord]:
        """Generate the full list of transfer records."""
        rng = np.random.default_rng(self.seed)
        server_means = np.maximum(self.base.sample(self.num_servers, rng), 1.0)
        records: List[TransferRecord] = []
        timestamp = 0.0
        for _ in range(self.num_records):
            timestamp += float(rng.exponential(30.0))
            server_id = int(rng.integers(0, self.num_servers))
            is_hit = bool(rng.random() < self.hit_fraction)
            if rng.random() < self.large_object_fraction:
                # Large objects: 200 KB to several MB (Pareto tail).
                size_kb = 200.0 + float(rng.pareto(1.5)) * 400.0
            else:
                # Typical small Web objects: 1-200 KB.
                size_kb = float(rng.uniform(1.0, 200.0))
            ratio = float(self.variability.sample_ratio(rng, size=1)[0])
            throughput = max(server_means[server_id] * ratio, 0.5)
            duration_s = size_kb / throughput
            records.append(
                TransferRecord(
                    timestamp=timestamp,
                    server_id=server_id,
                    size_kb=size_kb,
                    duration_s=duration_s,
                    cache_hit=is_hit,
                )
            )
        return records

    @staticmethod
    def to_csv(records: Sequence[TransferRecord], path: Union[str, Path]) -> None:
        """Write records to a CSV file (for archival or external tools)."""
        path = Path(path)
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["timestamp", "server_id", "size_kb", "duration_s", "cache_hit"])
            for record in records:
                writer.writerow(
                    [
                        record.timestamp,
                        record.server_id,
                        record.size_kb,
                        record.duration_s,
                        int(record.cache_hit),
                    ]
                )

    @staticmethod
    def from_csv(path: Union[str, Path]) -> List[TransferRecord]:
        """Read records previously written by :meth:`to_csv`."""
        path = Path(path)
        records: List[TransferRecord] = []
        with path.open("r", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            expected = ["timestamp", "server_id", "size_kb", "duration_s", "cache_hit"]
            if header != expected:
                raise TraceFormatError(f"{path}: expected header {expected}, got {header}")
            for line_number, row in enumerate(reader, start=2):
                if not row:
                    continue
                try:
                    records.append(
                        TransferRecord(
                            timestamp=float(row[0]),
                            server_id=int(row[1]),
                            size_kb=float(row[2]),
                            duration_s=float(row[3]),
                            cache_hit=bool(int(row[4])),
                        )
                    )
                except (ValueError, IndexError) as exc:
                    raise TraceFormatError(f"{path}:{line_number}: bad row {row!r}") from exc
        return records


@dataclass
class BandwidthAnalysis:
    """Output of the Section 3.1 log analysis."""

    #: Per-transfer throughput samples (KB/s) that passed the filters.
    samples: np.ndarray
    #: Histogram bin edges (KB/s), 4 KB/s slots as in Figure 2(a).
    histogram_edges: np.ndarray
    #: Histogram counts per bin.
    histogram_counts: np.ndarray
    #: Sample-to-mean ratios pooled over paths (Figure 3).
    ratios: np.ndarray

    def cdf(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(bandwidth, cumulative_fraction)`` arrays (Figure 2(b))."""
        total = self.histogram_counts.sum()
        if total == 0:
            return self.histogram_edges[1:], np.zeros(self.histogram_counts.size)
        cumulative = np.cumsum(self.histogram_counts) / total
        return self.histogram_edges[1:], cumulative

    def fraction_below(self, bandwidth: float) -> float:
        """Fraction of samples with throughput below ``bandwidth`` KB/s."""
        if self.samples.size == 0:
            return 0.0
        return float(np.mean(self.samples < bandwidth))

    def ratio_statistics(self) -> Dict[str, float]:
        """Coefficient of variation etc. of the pooled ratio samples."""
        return empirical_ratio_statistics(self.ratios)

    def to_distribution(self, bin_width: float = 4.0) -> EmpiricalBandwidthDistribution:
        """Turn the filtered samples into a sampleable bandwidth distribution."""
        return EmpiricalBandwidthDistribution(self.samples, bin_width=bin_width)


class ProxyLogAnalyzer:
    """Reproduce the paper's log-analysis methodology (Section 3.1)."""

    def __init__(self, min_object_kb: float = 200.0, bin_width: float = 4.0):
        if not min_object_kb >= 0:
            raise ConfigurationError(
                f"min_object_kb must be non-negative, got {min_object_kb}"
            )
        if not bin_width > 0:
            raise ConfigurationError(f"bin_width must be positive, got {bin_width}")
        self.min_object_kb = float(min_object_kb)
        self.bin_width = float(bin_width)

    def analyze(self, records: Iterable[TransferRecord]) -> BandwidthAnalysis:
        """Filter records and compute Figure 2/3 style statistics.

        Filters follow the paper: only cache *misses* (so the transfer was
        actually served by the origin server) and only objects at least
        ``min_object_kb`` large (long transfers measure bandwidth more
        accurately).
        """
        samples: List[float] = []
        per_server: Dict[int, List[float]] = {}
        for record in records:
            if record.cache_hit:
                continue
            if record.size_kb < self.min_object_kb:
                continue
            throughput = record.throughput
            if not throughput > 0:
                continue
            samples.append(throughput)
            per_server.setdefault(record.server_id, []).append(throughput)

        sample_array = np.asarray(samples, dtype=float)
        if sample_array.size == 0:
            raise ConfigurationError(
                "no transfer records survived the filters; "
                "generate a larger log or lower min_object_kb"
            )

        upper = max(float(sample_array.max()), self.bin_width)
        num_bins = int(np.ceil(upper / self.bin_width))
        edges = np.arange(0.0, (num_bins + 1) * self.bin_width, self.bin_width)
        counts, _ = np.histogram(sample_array, bins=edges)

        # Sample-to-mean ratios per path, pooled; paths with a single sample
        # carry no variability information and are skipped.
        ratios: List[float] = []
        for throughputs in per_server.values():
            if len(throughputs) < 2:
                continue
            mean = float(np.mean(throughputs))
            if mean <= 0:
                continue
            ratios.extend(t / mean for t in throughputs)
        ratio_array = np.asarray(ratios, dtype=float)
        if ratio_array.size == 0:
            ratio_array = np.ones(1)

        return BandwidthAnalysis(
            samples=sample_array,
            histogram_edges=edges,
            histogram_counts=counts.astype(float),
            ratios=ratio_array,
        )


def analyze_access_log(
    path: Union[str, Path],
    log_format: str = "auto",
    min_object_kb: float = 200.0,
    bin_width: float = 4.0,
) -> BandwidthAnalysis:
    """Run the Section 3.1 analysis on a **real** proxy access log.

    Bridges :func:`repro.trace.ingest.ingest_access_log` into
    :class:`ProxyLogAnalyzer`, making ingested Squid logs an alternative
    substrate to :class:`SyntheticProxyLog` — the resulting
    :class:`BandwidthAnalysis` feeds
    :meth:`BandwidthAnalysis.to_distribution` exactly like the synthetic
    pipeline.  Only formats that record transfer durations (Squid native)
    yield usable throughput samples; CLF records are filtered out by the
    analyzer because their throughput is unknown.
    """
    # Imported lazily: repro.trace.ingest imports TransferRecord from this
    # module, so a top-level import would be circular.
    from repro.trace.ingest import ingest_access_log

    result = ingest_access_log(path, log_format=log_format, include_hits=True)
    analyzer = ProxyLogAnalyzer(min_object_kb=min_object_kb, bin_width=bin_width)
    return analyzer.analyze(result.to_transfer_records())
