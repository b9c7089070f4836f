"""Media-object catalog model.

A :class:`MediaObject` captures the per-object attributes the paper's cache
management problem depends on (Section 2.2):

* ``duration`` — the object's playback duration ``T_i`` in seconds,
* ``bitrate`` — its constant bit-rate (CBR) encoding ``r_i`` in KB/s,
* ``value`` — the revenue ``V_i`` obtained when the object is played at
  full quality (Section 2.6), and
* ``server_id`` — which origin server stores the object, which determines
  the cache-to-server bandwidth ``b_i``.

A :class:`Catalog` is an immutable collection of media objects indexed by
object id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Sequence, Union

from repro.exceptions import ConfigurationError, UnknownObjectError
from repro.units import kb_to_gb


@dataclass(frozen=True, slots=True)
class MediaObject:
    """A single streaming media object available from an origin server.

    Attributes
    ----------
    object_id:
        Unique integer identifier (also the popularity rank by convention
        of the GISMO generator, but nothing in the library relies on that).
    duration:
        Playback duration ``T_i`` in seconds.
    bitrate:
        CBR encoding rate ``r_i`` in KB/s.
    server_id:
        Identifier of the origin server hosting the object.
    value:
        Revenue ``V_i`` (dollars) added when the object is served at full
        quality; used only by the value-based policies of Section 2.6.
    layers:
        Number of encoding layers for quality degradation.  The paper's
        stream-quality metric assumes a layered encoding; with ``layers``
        layers, quality is quantised to multiples of ``1 / layers``.
    size:
        Total object size ``T_i * r_i`` in KB, computed once from
        ``duration`` and ``bitrate`` (not a constructor argument).
    """

    object_id: int
    duration: float
    bitrate: float
    server_id: int = 0
    value: float = 1.0
    layers: int = 4
    size: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Bitrate first: a non-finite bitrate also spoils a duration derived
        # from it (``size / bitrate``), and the bitrate is the input to name.
        if not 0 < self.bitrate < math.inf:
            raise ConfigurationError(
                f"object {self.object_id}: bitrate must be positive and finite, "
                f"got {self.bitrate}"
            )
        if not self.duration > 0:
            raise ConfigurationError(
                f"object {self.object_id}: duration must be positive, got {self.duration}"
            )
        if not self.value >= 0:
            raise ConfigurationError(
                f"object {self.object_id}: value must be non-negative, got {self.value}"
            )
        if self.layers < 1:
            raise ConfigurationError(
                f"object {self.object_id}: layers must be >= 1, got {self.layers}"
            )
        # A field, not a property: the replacement engine reads it on
        # every request.  Slots keep an object with the extra field
        # smaller than an unslotted one without it.
        object.__setattr__(self, "size", self.duration * self.bitrate)

    @property
    def frames(self) -> float:
        """Approximate number of frames, assuming 24 frames per second."""
        return self.duration * 24.0

    def minimum_prefix_for_bandwidth(self, bandwidth: float) -> float:
        """Return the smallest cached prefix (KB) hiding all startup delay.

        For a path of bandwidth ``b`` the paper shows (Section 2.3) that
        caching ``(r_i - b) * T_i`` kilobytes of the object is enough for the
        cache and the origin server to jointly sustain immediate playout;
        caching more does not reduce the delay further.  When the path is
        already fast enough (``b >= r_i``) no caching is needed.
        """
        _check_bandwidth(bandwidth)
        deficit = self.bitrate - bandwidth
        if deficit <= 0:
            return 0.0
        return deficit * self.duration

    def startup_delay(self, bandwidth: float, cached_bytes: float = 0.0) -> float:
        """Service delay ``[T_i r_i - T_i b - x_i]+ / b`` in seconds.

        This is the delay a client perceives before playout can begin when
        ``cached_bytes`` of the object are available from a (fast) cache and
        the rest must be streamed from the origin server over a path of
        ``bandwidth`` KB/s (Section 2.2).  A zero-bandwidth path makes the
        object unserviceable; the delay is reported as ``float('inf')``
        unless the whole object is cached.
        """
        _check_bandwidth(bandwidth)
        missing = self.size - self.duration * bandwidth - cached_bytes
        if missing <= 0:
            return 0.0
        if bandwidth <= 0:
            return float("inf")
        return missing / bandwidth

    def stream_quality(self, bandwidth: float, cached_bytes: float = 0.0) -> float:
        """Fraction of the full stream playable immediately (Section 3.3).

        The client degrades the stream instead of waiting: with a layered
        encoding it plays only as many layers as the combined cache + server
        delivery can sustain.  The supported fraction is
        ``(x_i / T_i + b) / r_i`` clipped to ``[0, 1]`` and quantised down to
        a multiple of ``1 / layers``.
        """
        _check_bandwidth(bandwidth)
        if self.duration <= 0:
            return 1.0
        supported_rate = cached_bytes / self.duration + bandwidth
        fraction = min(1.0, supported_rate / self.bitrate)
        if fraction >= 1.0:
            return 1.0
        quantum = 1.0 / self.layers
        supported_layers = int(fraction / quantum + 1e-9)
        return supported_layers * quantum


def _check_bandwidth(bandwidth: float) -> None:
    # ``not >=`` so that NaN, which every comparison fails, is refused too.
    if not bandwidth >= 0:
        raise ConfigurationError(f"bandwidth must be non-negative, got {bandwidth}")


def dense_ids(low: int, high: int, count: int) -> bool:
    """Whether ids from ``low`` to ``high``, out of a population of
    ``count``, are dense: none negative and the largest below
    ``4 * count + 1024``, so a list indexed by id stays a small multiple
    of the population."""
    return low >= 0 and high < 4 * count + 1024


def id_table(ids: Sequence[int], count: int, fill) -> Union[list, dict]:
    """A table with a ``fill`` slot for every id in the sorted ``ids``.

    Dense ids (:func:`dense_ids`, where ``count`` is the size of the
    population they come from) index a list of ``ids[-1] + 1`` slots, so
    ``table[object_id]`` is one list subscript.  Sparse ids key a dict
    holding the same slots, so a few huge ids never allocate a list up to
    the largest one.  Either way every id in ``ids`` can be read and
    written without a bounds check.
    """
    if ids and not dense_ids(ids[0], ids[-1], count):
        return dict.fromkeys(ids, fill)
    return [fill] * (ids[-1] + 1 if ids else 0)


def id_table_get(table: Union[list, dict], object_id: int) -> float:
    """``table[object_id]``, or 0.0 for an id without a slot."""
    if isinstance(table, dict):
        return table.get(object_id, 0.0)
    return table[object_id] if 0 <= object_id < len(table) else 0.0


def id_table_set(table: Union[list, dict], object_id: int, value: float) -> None:
    """``table[object_id] = value``; a list table grows (with 0.0 slots)
    for ids past its end."""
    if isinstance(table, list) and not 0 <= object_id < len(table):
        if object_id < 0:
            raise UnknownObjectError(object_id)
        table.extend([0.0] * (object_id + 1 - len(table)))
    table[object_id] = value


def id_table_items(table: Union[list, dict]) -> Iterable:
    """``(object_id, value)`` for every slot of the table."""
    return table.items() if isinstance(table, dict) else enumerate(table)


class Catalog:
    """An indexed, iterable collection of :class:`MediaObject` instances."""

    def __init__(self, objects: Iterable[MediaObject]):
        self._objects: Dict[int, MediaObject] = {}
        for obj in objects:
            if obj.object_id in self._objects:
                raise ConfigurationError(f"duplicate object id {obj.object_id}")
            self._objects[obj.object_id] = obj

    def __len__(self) -> int:
        return len(self._objects)

    def __iter__(self) -> Iterator[MediaObject]:
        return iter(self._objects.values())

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._objects

    def get(self, object_id: int) -> MediaObject:
        """Return the object with the given id, raising if unknown."""
        try:
            return self._objects[object_id]
        except KeyError:
            raise UnknownObjectError(object_id) from None

    def object_ids(self) -> List[int]:
        """Return all object ids in insertion order."""
        return list(self._objects.keys())

    def id_table(self, fill) -> Union[list, dict]:
        """A fresh :func:`id_table` with a ``fill`` slot per catalog object."""
        return id_table(sorted(self._objects), len(self._objects), fill)

    def server_ids(self) -> List[int]:
        """Return the sorted set of distinct origin-server ids."""
        return sorted({obj.server_id for obj in self._objects.values()})

    @property
    def total_size(self) -> float:
        """Total unique object size in KB (the paper's 790 GB figure)."""
        return sum(obj.size for obj in self._objects.values())

    @property
    def total_size_gb(self) -> float:
        """Total unique object size in GB."""
        return kb_to_gb(self.total_size)

    @property
    def mean_duration(self) -> float:
        """Mean object duration in seconds."""
        if not self._objects:
            return 0.0
        return sum(obj.duration for obj in self._objects.values()) / len(self._objects)

    def describe(self) -> Dict[str, float]:
        """Return summary statistics of the catalog for reporting."""
        if not self._objects:
            return {
                "objects": 0,
                "total_size_gb": 0.0,
                "mean_duration_s": 0.0,
                "mean_bitrate_kbps": 0.0,
            }
        return {
            "objects": float(len(self._objects)),
            "total_size_gb": self.total_size_gb,
            "mean_duration_s": self.mean_duration,
            "mean_bitrate_kbps": sum(o.bitrate for o in self) / len(self),
        }
