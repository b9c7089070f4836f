"""Online request-frequency estimation.

The paper's replacement algorithms approximate the unknown request arrival
rate ``lambda_i`` of each object by "recording the number (or frequency) of
requests to each object", denoted ``F_i`` (Section 2.4).  The tracker below
keeps exactly that: a cumulative request count per object.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.workload.catalog import id_table_get, id_table_items, id_table_set


class FrequencyTracker:
    """Track per-object request counts ``F_i`` in one id-indexed table.

    The table, :attr:`counts`, has exactly one writer.  A tracker used on
    its own is written by :meth:`record`.  The tracker of a
    :class:`~repro.core.policies.base.CachePolicy` is written by the
    policy's request path, which increments ``counts`` in place and never
    calls :meth:`record`.
    """

    def __init__(self) -> None:
        #: Object id -> requests recorded (a float, 0.0 for none yet).  A
        #: dict of the ids seen so far until :meth:`reserve` gives every
        #: catalog object a slot.
        self.counts = {}

    def reserve(self, catalog) -> None:
        """Make :attr:`counts` a fresh table with a 0 for every catalog object.

        The table is a list when the catalog's ids are dense and a dict
        otherwise (:meth:`~repro.workload.catalog.Catalog.id_table`).
        """
        self.counts = catalog.id_table(0.0)

    def _recorded(self) -> List[Tuple[int, float]]:
        """``(object_id, count)`` for every object with a recorded request."""
        return [item for item in id_table_items(self.counts) if item[1] > 0.0]

    @property
    def total_requests(self) -> int:
        """Number of requests recorded so far."""
        return int(sum(count for _, count in self._recorded()))

    def record(self, object_id: int) -> float:
        """Record one request and return the updated frequency."""
        updated = self.frequency(object_id) + 1.0
        id_table_set(self.counts, object_id, updated)
        return updated

    def frequency(self, object_id: int) -> float:
        """Current frequency estimate ``F_i`` (0 for never-seen objects)."""
        return id_table_get(self.counts, object_id)

    def known_objects(self) -> List[int]:
        """Objects with at least one recorded request."""
        return [object_id for object_id, _ in self._recorded()]

    def top(self, count: int = 10) -> List[Tuple[int, float]]:
        """The ``count`` most frequently requested objects."""
        ranked = sorted(self._recorded(), key=lambda item: item[1], reverse=True)
        return ranked[:count]

    def reset(self) -> None:
        """Forget all recorded requests (the table keeps its slots)."""
        table = self.counts
        for object_id, _ in self._recorded():
            table[object_id] = 0.0
