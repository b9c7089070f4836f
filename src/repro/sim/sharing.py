"""Stream sharing (batching / patching) analysis at the proxy.

The paper's future-work section proposes "combining our partial caching
mechanisms with other streaming content delivery techniques, such as
patching and batching techniques at caching proxies".  This module provides
that extension as an analysis layer over a request trace:

* **Batching** — when requests for the same object arrive within one
  playback window of each other, the proxy can serve the later arrivals from
  the ongoing origin-server stream instead of opening a new one, so the
  suffix bytes are fetched from the server only once per *batch*.
* **Patching** — later arrivals additionally need the part of the stream
  they missed (the "patch") which, with prefix caching, is often already in
  the cache; the analysis reports how much of the patch traffic the cached
  prefix absorbs.

The analysis is deliberately independent of the replacement policies: it
takes a trace, the catalog, and a prefix-size function, and reports how many
origin-server bytes batching and patching would save on top of whatever the
cache already serves.  This keeps the core reproduction faithful to the
paper while making the future-work combination measurable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.exceptions import ConfigurationError
from repro.workload.catalog import Catalog, MediaObject

if TYPE_CHECKING:
    from repro.trace.columnar import ColumnarTrace

#: A function mapping a media object to the cached prefix size (KB) assumed
#: to be resident when a batch forms.  The analysis treats it as static for
#: the duration of the trace, which matches the paper's static-optimum lens.
PrefixFunction = Callable[[MediaObject], float]


@dataclass(frozen=True)
class SharingReport:
    """Outcome of the batching/patching analysis over one trace."""

    #: Total KB the origin servers would send without any sharing (cache
    #: misses only — the cached prefix is already excluded).
    baseline_server_bytes: float
    #: KB actually sent by origin servers when later arrivals join an
    #: ongoing stream (batching) and fetch only their patch.
    shared_server_bytes: float
    #: KB of patch data that was needed by late joiners.
    patch_bytes: float
    #: KB of patch data absorbed by the cached prefix.
    patch_bytes_from_cache: float
    #: Number of request batches formed (every request belongs to exactly one).
    batches: int
    #: Number of requests that joined an existing batch.
    joined_requests: int
    #: Total number of requests analysed.
    requests: int

    @property
    def server_byte_savings(self) -> float:
        """Fraction of origin-server bytes removed by sharing."""
        if self.baseline_server_bytes <= 0:
            return 0.0
        return 1.0 - self.shared_server_bytes / self.baseline_server_bytes

    @property
    def join_ratio(self) -> float:
        """Fraction of requests that could join an ongoing stream."""
        if self.requests == 0:
            return 0.0
        return self.joined_requests / self.requests


class StreamSharingAnalyzer:
    """Estimate the origin-server traffic saved by batching and patching.

    Parameters
    ----------
    catalog:
        The media-object catalog referenced by the trace.
    prefix_for:
        Function returning the cached prefix (KB) assumed for each object;
        defaults to "nothing cached".  Pass the paper's ``(r − b)·T`` prefix
        to study the combination of partial caching with sharing.
    batching_window:
        Maximum age (seconds) of an ongoing stream that a new request may
        join.  ``None`` means a request can join any stream of the same
        object that is still being transmitted (i.e. the window equals the
        object duration).
    """

    def __init__(
        self,
        catalog: Catalog,
        prefix_for: Optional[PrefixFunction] = None,
        batching_window: Optional[float] = None,
    ):
        if batching_window is not None and not batching_window >= 0:
            raise ConfigurationError(
                f"batching_window must be non-negative, got {batching_window}"
            )
        self.catalog = catalog
        self.prefix_for = prefix_for or (lambda obj: 0.0)
        self.batching_window = batching_window

    def analyze(self, trace: ColumnarTrace) -> SharingReport:
        """Run the analysis over a request trace."""
        baseline = 0.0
        shared = 0.0
        patch_total = 0.0
        patch_from_cache = 0.0
        batches = 0
        joined = 0
        requests = 0
        # Per object: start time of the most recent origin stream (batch leader).
        open_streams: Dict[int, float] = {}

        for request in trace:
            requests += 1
            obj = self.catalog.get(request.object_id)
            prefix = min(max(self.prefix_for(obj), 0.0), obj.size)
            suffix = obj.size - prefix
            baseline += suffix

            window = (
                obj.duration if self.batching_window is None else min(
                    self.batching_window, obj.duration
                )
            )
            leader_start = open_streams.get(request.object_id)
            leader_active = (
                leader_start is not None
                and request.time - leader_start < obj.duration
            )
            can_join = leader_active and request.time - leader_start <= window

            if can_join:
                # The joiner shares the remainder of the leader's stream and
                # only needs a patch covering what it missed.
                joined += 1
                missed_seconds = request.time - leader_start
                patch = min(missed_seconds * obj.bitrate, obj.size)
                patch_total += patch
                absorbed = min(patch, prefix)
                patch_from_cache += absorbed
                shared += patch - absorbed
            else:
                # This request becomes the leader of a new batch; the origin
                # server streams the suffix once for the whole batch.
                batches += 1
                open_streams[request.object_id] = request.time
                shared += suffix

        return SharingReport(
            baseline_server_bytes=baseline,
            shared_server_bytes=shared,
            patch_bytes=patch_total,
            patch_bytes_from_cache=patch_from_cache,
            batches=batches,
            joined_requests=joined,
            requests=requests,
        )


def prefix_function_for_bandwidth(
    bandwidths: Dict[int, float]
) -> PrefixFunction:
    """Build a prefix function from per-object bandwidths.

    The returned function yields the paper's delay-hiding prefix
    ``(r − b)+ · T`` for each object, i.e. what a PB-managed cache would hold
    for objects it decided to cache.
    """

    def prefix_for(obj: MediaObject) -> float:
        bandwidth = float(bandwidths.get(obj.object_id, 0.0))
        return obj.minimum_prefix_for_bandwidth(bandwidth)

    return prefix_for


def sharing_summary_rows(reports: Dict[str, SharingReport]) -> List[Dict[str, float]]:
    """Flatten labelled reports into printable rows (used by examples/benches)."""
    rows = []
    for label, report in reports.items():
        rows.append(
            {
                "configuration": label,
                "server_byte_savings": report.server_byte_savings,
                "join_ratio": report.join_ratio,
                "batches": float(report.batches),
                "patch_absorbed_by_cache": (
                    report.patch_bytes_from_cache / report.patch_bytes
                    if report.patch_bytes > 0
                    else 0.0
                ),
            }
        )
    return rows
