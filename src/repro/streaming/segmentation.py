"""Fine-grain segment maintenance for partially cached objects.

Section 2.7 notes that a deployed proxy has to maintain partial objects as
either *prefixes* or *fine-grain segments*.  The rest of the library models
the cached portion of an object as a single prefix byte-count (which is all
the paper's algorithms need); this module supplies the segment-level view a
real proxy would keep on disk:

* :class:`SegmentationScheme` turns a byte-count into a list of segments —
  either fixed-size or exponentially growing segments (the layout used by
  later segment-based caching systems, where segment ``k`` covers
  ``[2^(k-1), 2^k)`` base units), and
* :class:`SegmentedPrefix` tracks which segments of one object are resident,
  supports growing/trimming to match a policy's byte target, and reports
  the byte ranges a joint-delivery session must still fetch from the origin
  server.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import List, Tuple

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class Segment:
    """One contiguous byte range of an object, ``[start, end)`` in KB."""

    index: int
    start: float
    end: float

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.end:
            raise ConfigurationError(
                f"invalid segment [{self.start}, {self.end}) at index {self.index}"
            )

    @property
    def size(self) -> float:
        """Segment length in KB."""
        return self.end - self.start


class SegmentationScheme:
    """Partition an object into segments.

    Parameters
    ----------
    base_segment_kb:
        Size of the first segment in KB.
    exponential:
        When True (the default) segment sizes double from one segment to the
        next — the layout that keeps per-object metadata logarithmic in the
        object size.  When False all segments have the base size.
    """

    def __init__(self, base_segment_kb: float = 256.0, exponential: bool = True):
        if not 0.0 < base_segment_kb < math.inf:
            raise ConfigurationError(
                f"base_segment_kb must be positive and finite, got {base_segment_kb}"
            )
        self.base_segment_kb = float(base_segment_kb)
        self.exponential = bool(exponential)

    def segments(self, object_size_kb: float) -> List[Segment]:
        """The full segment list covering ``[0, object_size_kb)``."""
        return [
            Segment(index=index, start=start, end=end)
            for index, (start, end) in enumerate(self._bounds(object_size_kb))
        ]

    def _bounds(self, object_size_kb: float) -> List[Tuple[float, float]]:
        """``(start, end)`` of every segment covering ``[0, object_size_kb)``.

        The one copy of the segmentation rule: :meth:`segments` wraps each
        pair in a :class:`Segment`, and :class:`SegmentedPrefix` takes its
        sizes straight from the pairs without building the objects.
        """
        if not 0.0 <= object_size_kb < math.inf:
            raise ConfigurationError(
                f"object_size_kb must be non-negative and finite, got {object_size_kb}"
            )
        bounds: List[Tuple[float, float]] = []
        start = 0.0
        size = self.base_segment_kb
        while start < object_size_kb:
            end = min(start + size, object_size_kb)
            bounds.append((start, end))
            start = end
            if self.exponential:
                size *= 2.0
        return bounds


class SegmentedPrefix:
    """Segment-level bookkeeping for one partially cached object.

    The class keeps the invariant that cached segments always form a prefix
    (segment ``k`` is only resident if all earlier segments are), which is
    what makes joint delivery with the origin server straightforward.

    Residency is one count of leading segments, read against a table of
    cumulative boundary sums built once per object: entry ``k`` is the
    builtin :func:`sum` of the first ``k`` segment sizes, so every byte
    count equals the sum over :attr:`resident_segments` bit for bit.

    :meth:`floor` and :meth:`ceil` are stateless binary searches over
    that table and the one home of the boundary rule: :meth:`grow_to`
    and :meth:`trim_to` clamp the resident count to the index each
    search finds.  Every boundary method rejects a negative or NaN
    byte count with :class:`~repro.exceptions.ConfigurationError`.
    """

    def __init__(self, object_size_kb: float, scheme: SegmentationScheme = None):
        if not 0.0 < object_size_kb < math.inf:
            raise ConfigurationError(
                f"object_size_kb must be positive and finite, got {object_size_kb}"
            )
        self.object_size_kb = float(object_size_kb)
        self.scheme = scheme or SegmentationScheme()
        bounds = self.scheme._bounds(self.object_size_kb)
        sizes = [end - start for start, end in bounds]
        # sum() over each prefix of the list, not a running total: from
        # Python 3.12 sum() compensates float rounding, so a running total
        # can differ from it in the last bit.
        self._cum = tuple(sum(sizes[:k]) for k in range(len(sizes) + 1))
        self._last = len(sizes)
        self._resident = 0  # number of fully resident leading segments

    @property
    def resident_segments(self) -> List[Segment]:
        """The segments currently held by the cache."""
        return self.scheme.segments(self.object_size_kb)[: self._resident]

    @property
    def cached_bytes(self) -> float:
        """Total KB held (the sum of resident segment sizes)."""
        return self._cum[self._resident]

    @property
    def total_segments(self) -> int:
        """Number of segments the whole object divides into."""
        return self._last

    def _floor_index(self, kb: float) -> int:
        """Index of the last boundary at or below ``kb``."""
        if not kb >= 0:
            raise ConfigurationError(f"KB must be non-negative, got {kb}")
        return bisect_right(self._cum, kb) - 1

    def _ceil_index(self, kb: float) -> int:
        """Index of the first boundary at or above ``min(kb, size)``.

        Capped at the last index, as the walking loop it replaced was, so
        a table whose sum fell short of the object size would still end
        the search inside it.
        """
        if not kb >= 0:
            raise ConfigurationError(f"KB must be non-negative, got {kb}")
        size = self.object_size_kb
        index = bisect_left(self._cum, kb if kb < size else size)
        last = self._last
        return index if index < last else last

    def floor(self, kb: float) -> float:
        """The largest segment boundary at or below ``kb`` KB.

        Reads no residency: the KB a prefix of ``kb`` keeps once its
        trailing partial segment is dropped.
        """
        return self._cum[self._floor_index(kb)]

    def ceil(self, kb: float) -> float:
        """The smallest segment boundary at or above ``min(kb, size)`` KB.

        Reads no residency: the KB whole segments hold once a prefix of
        ``kb`` is rounded up.
        """
        return self._cum[self._ceil_index(kb)]

    def grow_to(self, target_kb: float) -> float:
        """Admit whole segments until at least ``target_kb`` KB are resident.

        Returns the actual number of KB resident afterwards (segment
        granularity means it can exceed the target).
        """
        index = self._ceil_index(target_kb)
        if index > self._resident:
            self._resident = index
        return self._cum[self._resident]

    def trim_to(self, target_kb: float) -> float:
        """Drop trailing segments until at most ``target_kb`` KB remain."""
        index = self._floor_index(target_kb)
        if index < self._resident:
            self._resident = index
        return self._cum[self._resident]

    def missing_ranges(self) -> List[Tuple[float, float]]:
        """Byte ranges (KB offsets) that must be fetched from the origin server."""
        cached = self.cached_bytes
        if cached >= self.object_size_kb:
            return []
        return [(cached, self.object_size_kb)]
