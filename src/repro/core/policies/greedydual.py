"""GreedyDual-Size family of cost-aware baselines.

The related-work section of the paper credits two lines of cost-aware Web
caching that the network-aware policies generalise to streaming media:

* **GreedyDual-Size** [Cao & Irani, USITS 97] — each cached object carries a
  credit ``H = L + cost / size`` where ``L`` is an inflation value set to
  the credit of the most recently evicted object; the object with the
  lowest credit is evicted first.
* **Popularity-aware GreedyDual-Size** (GDSP) [Jin & Bestavros, ICDCS 00] —
  the same structure with the credit scaled by the object's observed
  request frequency, ``H = L + F · cost / size``.

Both are implemented here as whole-object policies on top of the shared
replacement engine, with a pluggable *cost model*:

* ``"uniform"`` — cost 1 per object (maximises object hit ratio),
* ``"size"`` — cost equal to the object size (maximises byte hit ratio,
  i.e. traffic reduction),
* ``"delay"`` — cost equal to the startup delay the cache saves for the
  object, ``[T·r − T·b]+ / b``, which injects the same network awareness
  the paper's PB/IB policies have and makes for an interesting ablation.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.policies.base import CachePolicy
from repro.exceptions import ConfigurationError
from repro.units import positive_part
from repro.workload.catalog import MediaObject

#: The cost models GreedyDual-Size policies understand.
COST_MODELS = ("uniform", "size", "delay")


def _object_cost(obj: MediaObject, bandwidth: float, cost_model: str) -> float:
    """Fetch cost of an object under the given cost model."""
    if cost_model == "uniform":
        return 1.0
    if cost_model == "size":
        return obj.size
    # "delay": the startup delay a miss would incur at the believed bandwidth.
    bandwidth = max(bandwidth, 1e-9)
    return positive_part(obj.size - obj.duration * bandwidth) / bandwidth


class GreedyDualSizePolicy(CachePolicy):
    """GreedyDual-Size: credit ``L + cost / size``, whole objects only.

    Parameters
    ----------
    cost_model:
        One of :data:`COST_MODELS`; the classic GreedyDual-Size uses
        ``"uniform"`` (then the credit is ``L + 1/size``, favouring small
        objects) or ``"size"`` (credit ``L + 1``, which degenerates to
        FIFO-with-inflation).

    Only the ``"delay"`` cost model reads the bandwidth, so only that
    variant is ``bandwidth_keyed``: under passive bandwidth knowledge its
    heap keys go stale between requests exactly like PB/IB's, and the
    reactive hook (``docs/events.md``) may re-key them.  The re-key is
    **inflation-preserving** (:meth:`on_bandwidth_shift`): a GreedyDual key
    is ``L_at_key_time + credit``, and a correct re-key must recompute only
    the credit under the new bandwidth while adding back the inflation the
    entry was keyed at — recomputing the whole utility with the *current*
    ``L`` would silently age every re-keyed entry and reorder evictions.
    ``"uniform"`` and ``"size"`` keys never depend on bandwidth and are
    never re-keyed.
    """

    allows_partial = False

    def __init__(self, cost_model: str = "uniform", **kwargs):
        if cost_model not in COST_MODELS:
            raise ConfigurationError(
                f"unknown cost model {cost_model!r}; expected one of {COST_MODELS}"
            )
        super().__init__(**kwargs)
        self.cost_model = cost_model
        self.bandwidth_keyed = cost_model == "delay"
        self.inflation = 0.0
        #: Inflation value each live entry was keyed at; what
        #: :meth:`on_bandwidth_shift` adds back when recomputing credits.
        self._keyed_inflation: Dict[int, float] = {}
        self.name = f"GDS({cost_model})"

    def credit(self, obj: MediaObject, bandwidth: float, frequency: float) -> float:
        """The GreedyDual credit of the object, before inflation is added."""
        return _object_cost(obj, bandwidth, self.cost_model) / obj.size

    def plan(
        self, obj: MediaObject, bandwidth: float, frequency: float, now: float
    ) -> Tuple[float, float]:
        return obj.size, self.inflation + self.credit(obj, bandwidth, frequency)

    def on_evict(self, object_id: int, utility: float) -> None:
        # Classic GreedyDual aging: the inflation rises to the evicted
        # object's credit, so long-resident objects gradually lose ground.
        self.inflation = max(self.inflation, utility)

    def _set_utility(self, object_id: int, utility: float) -> None:
        super()._set_utility(object_id, utility)
        self._keyed_inflation[object_id] = self.inflation

    def _drop_utility(self, object_id: int) -> None:
        super()._drop_utility(object_id)
        self._keyed_inflation.pop(object_id, None)

    def on_bandwidth_shift(self, server_id: int, bandwidth: float, now: float) -> int:
        """Inflation-preserving re-key of one server's tracked objects.

        Each affected entry's credit is recomputed under the new believed
        ``bandwidth`` (and its current frequency estimate, for GDSP) and
        the inflation the entry was keyed at is added back unchanged —
        the global inflation value and the relative aging of entries are
        untouched, so the re-key moves keys only by what the bandwidth
        shift itself justifies.
        """
        if not self.bandwidth_keyed or self._catalog is None:
            return 0
        bandwidth = float(bandwidth)
        catalog_get = self._catalog.get
        frequency = self.frequencies.frequency
        utilities = self._utilities
        keyed_inflation = self._keyed_inflation
        rekeyed = 0
        for object_id in self._objects_on_server(server_id):
            old_utility = utilities.get(object_id)
            if old_utility is None:
                continue
            entry_inflation = keyed_inflation.get(object_id, self.inflation)
            utility = entry_inflation + self.credit(
                catalog_get(object_id), bandwidth, frequency(object_id, now)
            )
            if utility != old_utility:
                self._set_utility(object_id, utility)
                # _set_utility stamps the current global inflation; restore
                # the entry's own inflation so the re-key preserves it.
                keyed_inflation[object_id] = entry_inflation
                rekeyed += 1
        return rekeyed

    def reset(self) -> None:
        super().reset()
        self.inflation = 0.0
        self._keyed_inflation.clear()


class PopularityAwareGreedyDualSizePolicy(GreedyDualSizePolicy):
    """GDSP: GreedyDual-Size with the credit scaled by request frequency."""

    def __init__(self, cost_model: str = "uniform", **kwargs):
        super().__init__(cost_model=cost_model, **kwargs)
        self.name = f"GDSP({cost_model})"

    def credit(self, obj: MediaObject, bandwidth: float, frequency: float) -> float:
        return frequency * _object_cost(obj, bandwidth, self.cost_model) / obj.size
