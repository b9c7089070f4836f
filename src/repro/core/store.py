"""The proxy's cache store.

The store tracks, for every object, how many kilobytes of its *prefix* are
currently cached, and enforces the capacity constraint
``sum_i x_i <= C`` from the paper's optimisation problem (Section 2.2).
It is deliberately policy-agnostic: all decisions about *what* to cache live
in :mod:`repro.core.policies`; the store only guarantees the accounting is
consistent.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.exceptions import CapacityError, ConfigurationError
from repro.workload.catalog import id_table_get, id_table_items, id_table_set

_INF = float("inf")


class CacheStore:
    """Byte-accurate storage accounting for partial object prefixes.

    Parameters
    ----------
    capacity_kb:
        Total cache capacity ``C`` in KB.  A zero-capacity store is legal
        (it models the no-cache baseline) — every admission attempt simply
        fails.

    The cached KB of every object lives in one table, :attr:`cached_kb`.
    Request paths read it directly (``store.cached_kb[object_id]``); every
    write goes through :meth:`set_cached_bytes` (which :meth:`grow`,
    :meth:`trim` and :meth:`evict` call), so a subclass sees each change.

    :attr:`free_kb` is a plain field, not a property, because the policy
    engine reads it on every admission attempt.  The only writers of the
    used-KB total, :meth:`set_cached_bytes` and :meth:`clear`, also write
    ``free_kb = max(capacity_kb - used_kb, 0.0)``; :attr:`capacity_kb` is
    fixed at construction.  NaN is rejected as the capacity and as every
    KB argument.  ``inf`` is a legal capacity and amount to trim, but not
    a cached size: an infinite prefix would turn the used total into
    ``inf - inf`` once it is evicted.
    """

    def __init__(self, capacity_kb: float):
        if not capacity_kb >= 0:
            raise ConfigurationError(
                f"capacity_kb must be non-negative, got {capacity_kb}"
            )
        self.capacity_kb = float(capacity_kb)
        # The growth tolerance of set_cached_bytes is relative to the
        # capacity: callers legitimately grow an object by exactly the
        # remaining free space, and the float round-trip
        # (current + free) - current can overshoot by a few ULPs.
        self._tolerance = 1e-9 * max(self.capacity_kb, 1.0)
        #: Object id -> cached prefix KB (0.0 when nothing is cached).  A
        #: dict of the ids ever cached until :meth:`reserve` gives every
        #: catalog object a slot; only then may a reader index it with any
        #: catalog id.
        self.cached_kb = {}
        self._count = 0
        self._used = 0.0
        #: Remaining capacity in KB (never negative).
        self.free_kb = self.capacity_kb if self.capacity_kb > 0.0 else 0.0
        #: Monotone count of complete removals (an object's cached prefix
        #: shrinking to zero through :meth:`set_cached_bytes`, which is
        #: where :meth:`trim` / :meth:`evict` land).  :meth:`clear` does
        #: not count: it resets a run, it is not a replacement decision.
        self.evictions = 0

    def reserve(self, catalog) -> None:
        """Give every catalog object a slot in :attr:`cached_kb`.

        The table becomes a list when the catalog's ids are dense and a
        dict otherwise (:meth:`~repro.workload.catalog.Catalog.id_table`);
        cached prefixes are kept.
        """
        held = self.snapshot()
        self.cached_kb = catalog.id_table(0.0)
        for object_id, kb in held.items():
            id_table_set(self.cached_kb, object_id, kb)

    def __len__(self) -> int:
        return self._count

    def __contains__(self, object_id: int) -> bool:
        return self.cached_bytes(object_id) > 0.0

    @property
    def used_kb(self) -> float:
        """Total KB currently occupied."""
        return self._used

    @property
    def occupancy(self) -> float:
        """Fraction of capacity in use (0 for an empty or zero-capacity store)."""
        if self.capacity_kb <= 0:
            return 0.0
        return self._used / self.capacity_kb

    def cached_bytes(self, object_id: int) -> float:
        """KB of the object's prefix currently cached (0 for any other id)."""
        return id_table_get(self.cached_kb, object_id)

    def object_ids(self) -> List[int]:
        """Ids of all objects with a cached prefix."""
        return list(self.snapshot())

    def set_cached_bytes(self, object_id: int, target_bytes: float, now: float = 0.0) -> None:
        """Set the cached prefix of an object to exactly ``target_bytes`` KB.

        ``now`` is the simulation time of the change; the store itself
        ignores it, a tracing subclass stamps its events with it.  Growing
        beyond the available free space raises
        :class:`~repro.exceptions.CapacityError`; shrinking to zero removes
        the object.
        """
        if not 0.0 <= target_bytes < _INF:
            raise ConfigurationError(
                f"target_bytes must be finite and non-negative, got {target_bytes}"
            )
        table = self.cached_kb
        # A subscript for an id with a slot; a list table would read a
        # negative id from its end, so that goes through id_table_get.
        try:
            current = (
                table[object_id] if object_id >= 0 else id_table_get(table, object_id)
            )
        except LookupError:
            current = 0.0
        delta = target_bytes - current
        if delta > self.free_kb + self._tolerance:
            raise CapacityError(
                f"cannot grow object {object_id} by {delta:.1f} KB; "
                f"only {self.free_kb:.1f} KB free"
            )
        if current > 0:
            # A cached object already has its slot: update it in place.
            if target_bytes > 0:
                table[object_id] = target_bytes
            else:
                table[object_id] = 0.0
                self._count -= 1
                self.evictions += 1
        elif target_bytes > 0:
            id_table_set(table, object_id, target_bytes)
            self._count += 1
        used = max(self._used + delta, 0.0)
        self._used = used
        free = self.capacity_kb - used
        self.free_kb = free if free > 0.0 else 0.0

    def grow(self, object_id: int, additional_bytes: float, now: float = 0.0) -> None:
        """Grow an object's cached prefix by ``additional_bytes`` KB."""
        if not 0.0 <= additional_bytes < _INF:
            raise ConfigurationError(
                f"additional_bytes must be finite and non-negative, got {additional_bytes}"
            )
        self.set_cached_bytes(object_id, self.cached_bytes(object_id) + additional_bytes, now)

    def trim(self, object_id: int, bytes_to_remove: float, now: float = 0.0) -> float:
        """Remove up to ``bytes_to_remove`` KB from an object's cached prefix.

        Returns the number of KB actually reclaimed (0 if the object is not
        cached).  Trimming everything removes the object.
        """
        if not bytes_to_remove >= 0:
            raise ConfigurationError(
                f"bytes_to_remove must be non-negative, got {bytes_to_remove}"
            )
        table = self.cached_kb
        try:
            current = (
                table[object_id] if object_id >= 0 else id_table_get(table, object_id)
            )
        except LookupError:
            current = 0.0
        if current <= 0:
            return 0.0
        reclaimed = min(current, bytes_to_remove)
        self.set_cached_bytes(object_id, current - reclaimed, now)
        return reclaimed

    def evict(self, object_id: int, now: float = 0.0) -> float:
        """Remove an object entirely; returns the KB reclaimed."""
        return self.trim(object_id, float("inf"), now)

    def clear(self) -> None:
        """Empty the cache (the table keeps its slots)."""
        table = self.cached_kb
        for object_id in self.snapshot():
            table[object_id] = 0.0
        self._count = 0
        self._used = 0.0
        self.free_kb = self.capacity_kb if self.capacity_kb > 0.0 else 0.0

    def snapshot(self) -> Dict[int, float]:
        """Map of object id to cached KB (a copy, safe to mutate)."""
        return {
            object_id: kb
            for object_id, kb in id_table_items(self.cached_kb)
            if kb > 0.0
        }

    def verify_consistency(self) -> bool:
        """Check that the used-bytes counter matches the sum of entries.

        Used by tests and by the simulator's optional integrity checks,
        which run it after every request: it sums the table in C rather
        than building a snapshot.
        """
        table = self.cached_kb
        values = list(table.values()) if isinstance(table, dict) else table
        return (
            len(values) - values.count(0.0) == self._count
            and abs(sum(values) - self._used) < 1e-6
            and self._used <= self.capacity_kb + 1e-6
        )

    def largest_entries(self, count: int = 10) -> List[Tuple[int, float]]:
        """The ``count`` largest cached prefixes, for diagnostics."""
        ranked = sorted(
            self.snapshot().items(),
            key=lambda item: item[1],
            reverse=True,
        )
        return ranked[:count]
