"""The offline optimal cache allocation (Section 2.3).

Under static conditions (constant bandwidth, known request rates, no
replacement) the delay-minimisation problem is a *fractional knapsack*:

1. objects whose path bandwidth covers their bit-rate are never cached;
2. the remaining objects are ranked by ``λ_i / b_i``;
3. each is cached up to ``(r_i − b_i) T_i`` kilobytes, in rank order, until
   the capacity ``C`` is exhausted (the marginal object gets whatever space
   is left).

:func:`optimal_allocation` computes this allocation; :func:`optimal_average_delay`
evaluates the resulting expected service delay analytically (the objective
the paper's formalisation minimises); and :class:`StaticAllocationPolicy`
wraps a fixed allocation so the trace-driven simulator can run the optimal
(or any externally computed) cache content without replacement.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.core.frequency import FrequencyTracker
from repro.core.store import CacheStore
from repro.exceptions import ConfigurationError
from repro.units import positive_part
from repro.workload.catalog import Catalog, MediaObject


def optimal_allocation(
    catalog: Catalog,
    bandwidths: Mapping[int, float],
    request_rates: Mapping[int, float],
    capacity_kb: float,
) -> Dict[int, float]:
    """Solve the fractional knapsack of Section 2.3.

    Parameters
    ----------
    catalog:
        The media-object catalog.
    bandwidths:
        Map of object id to the (constant) bandwidth ``b_i`` of the path to
        that object's origin server, in KB/s.
    request_rates:
        Map of object id to the known request arrival rate ``λ_i``.
    capacity_kb:
        Cache capacity ``C`` in KB.

    Returns
    -------
    dict
        Map of object id to cached bytes ``x_i``; objects allocated zero
        bytes are omitted.
    """
    if not capacity_kb >= 0:
        raise ConfigurationError(f"capacity must be non-negative, got {capacity_kb}")

    candidates = []
    for obj in catalog:
        bandwidth = float(bandwidths.get(obj.object_id, 0.0))
        rate = float(request_rates.get(obj.object_id, 0.0))
        if bandwidth <= 0:
            raise ConfigurationError(
                f"object {obj.object_id}: bandwidth must be positive, got {bandwidth}"
            )
        max_useful = positive_part(obj.bitrate - bandwidth) * obj.duration
        if max_useful <= 0 or rate <= 0:
            continue
        candidates.append((rate / bandwidth, obj.object_id, max_useful))

    candidates.sort(key=lambda item: item[0], reverse=True)

    allocation: Dict[int, float] = {}
    remaining = float(capacity_kb)
    for _, object_id, max_useful in candidates:
        if remaining <= 0:
            break
        granted = min(max_useful, remaining)
        allocation[object_id] = granted
        remaining -= granted
    return allocation


def optimal_average_delay(
    catalog: Catalog,
    bandwidths: Mapping[int, float],
    request_rates: Mapping[int, float],
    allocation: Mapping[int, float],
) -> float:
    """Expected average service delay under a given static allocation.

    Evaluates the paper's objective
    ``(1 / Σλ) Σ_i λ_i [T_i r_i − T_i b_i − x_i]+ / b_i`` (Section 2.2).
    """
    total_rate = sum(float(rate) for rate in request_rates.values())
    if total_rate <= 0:
        return 0.0
    weighted_delay = 0.0
    for obj in catalog:
        rate = float(request_rates.get(obj.object_id, 0.0))
        if rate <= 0:
            continue
        bandwidth = float(bandwidths.get(obj.object_id, 0.0))
        cached = float(allocation.get(obj.object_id, 0.0))
        weighted_delay += rate * obj.startup_delay(bandwidth, cached)
    return weighted_delay / total_rate


class StaticAllocationPolicy:
    """A non-adaptive policy that installs a fixed allocation and never evicts.

    The class quacks like :class:`~repro.core.policies.base.CachePolicy`
    (it exposes ``name``, ``allows_partial``, ``frequencies``, and
    ``on_request``) so the simulator can run it interchangeably, but its
    ``on_request`` only records frequencies — the cache content is whatever
    :meth:`install` placed there, which is how the paper's "optimal solution
    for populating caches" is evaluated.
    """

    allows_partial = True

    def __init__(self, allocation: Mapping[int, float], name: str = "OPT"):
        self.allocation = {int(oid): float(bytes_) for oid, bytes_ in allocation.items()}
        self.name = name
        self.frequencies = FrequencyTracker()

    def install(self, store: CacheStore, catalog: Catalog) -> None:
        """Populate ``store`` with the allocation (clearing it first).

        The recorded frequencies are forgotten (:meth:`reset`) and the
        store's table is sized to the catalog first, as
        :meth:`CachePolicy.install <repro.core.policies.base.CachePolicy.install>`
        does, and each allocation is capped at its object's size.
        """
        self.reset()
        store.clear()
        store.reserve(catalog)
        for object_id, cached_bytes in self.allocation.items():
            if cached_bytes <= 0:
                continue
            cached_bytes = min(cached_bytes, catalog.get(object_id).size)
            store.set_cached_bytes(object_id, cached_bytes)

    def on_request(
        self, obj: MediaObject, bandwidth: float, now: float, store: CacheStore
    ) -> None:
        """Record the request; never changes the cache content."""
        self.frequencies.record(obj.object_id)

    def reset(self) -> None:
        """Forget recorded frequencies (the installed allocation is kept)."""
        self.frequencies.reset()
