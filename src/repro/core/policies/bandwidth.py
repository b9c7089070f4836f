"""The network-aware policies: PB, IB, and the hybrid estimator-``e`` family.

These are the paper's contribution (Sections 2.3–2.5):

* **PB (Partial Bandwidth-based)** approximates the fractional-knapsack
  optimum online: objects are prioritised by ``F_i / b_i`` and only the
  prefix ``(r_i − b_i) T_i`` that is actually needed to hide the bandwidth
  deficit is cached.  Objects whose path already delivers at least the
  bit-rate are not cached at all.
* **IB (Integral Bandwidth-based)** uses the same priority but caches whole
  objects.  It is the most conservative point of the over-provisioning
  heuristic of Section 2.5 and is robust to bandwidth variability at the
  cost of fitting fewer objects.
* **HybridPartialBandwidth** spans the spectrum between the two: the path
  bandwidth is deliberately under-estimated by a factor ``e`` in ``(0, 1]``,
  so the cached prefix grows to ``(r_i − e·b_i) T_i``.  ``e = 1`` recovers
  PB; ``e → 0`` approaches IB (Figure 9).

Where the bandwidth ``b_i`` comes from is the simulator's concern, not the
policy's: the ``bandwidth`` each request passes to ``plan`` is the value
the cache currently *believes* — the oracle long-term average under
``BandwidthKnowledge.ORACLE``, or the passive EWMA estimate under
``BandwidthKnowledge.PASSIVE``, optionally refreshed *between* requests by
periodic re-measurement (:mod:`repro.sim.events`, ``docs/events.md``).
Both policies are ``bandwidth_keyed``: when the believed bandwidth shifts
out of band — a probe lands, or (with
``SimulationConfig.reactive_passive``) an ordinary request's passive
observation moves the estimate — the reactive hook may call
``on_bandwidth_shift`` to refresh their stale heap keys immediately.
The ``estimator_e`` under-estimation composes with either source: it is a
hedge against *variability around* the believed value, while
re-measurement fights *staleness of* the believed value — the two are
ablated jointly by the Figure 9/12 experiments'
``remeasurement_interval`` option.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.policies.base import CachePolicy
from repro.exceptions import ConfigurationError
from repro.workload.catalog import MediaObject


class HybridPartialBandwidthPolicy(CachePolicy):
    """Partial bandwidth-based caching with bandwidth under-estimation.

    Parameters
    ----------
    estimator_e:
        The under-estimation factor ``e`` of Section 2.5, in ``(0, 1]``.
        The policy behaves as if the path to each origin server had
        bandwidth ``e * b`` rather than ``b``: it caches a prefix of
        ``(r − e·b)+ · T`` kilobytes and keys the priority heap on
        ``F / (e·b)`` (which orders objects identically to ``F / b`` but is
        kept in un-normalised form so mixed-``e`` experiments remain
        comparable).
    """

    allows_partial = True
    bandwidth_keyed = True

    def __init__(self, estimator_e: float = 1.0, **kwargs):
        if not 0.0 < estimator_e <= 1.0:
            raise ConfigurationError(
                f"estimator_e must be in (0, 1], got {estimator_e}"
            )
        super().__init__(**kwargs)
        self.estimator_e = float(estimator_e)
        self.name = f"PB(e={self.estimator_e:g})"

    def plan(
        self, obj: MediaObject, bandwidth: float, frequency: float, now: float
    ) -> Tuple[float, float]:
        # Plan as if the path sustained only the conservative ``e * b``.
        effective = bandwidth * self.estimator_e
        effective = effective if effective > 1e-9 else 1e-9
        deficit = obj.bitrate - effective
        target = (deficit if deficit > 0.0 else 0.0) * obj.duration
        return target, frequency / effective


class PartialBandwidthPolicy(HybridPartialBandwidthPolicy):
    """PB: the pure partial bandwidth-based policy (``e = 1``)."""

    name = "PB"

    def __init__(self, **kwargs):
        super().__init__(estimator_e=1.0, **kwargs)
        self.name = "PB"


class IntegralBandwidthPolicy(CachePolicy):
    """IB: cache whole objects, prioritised by ``F_i / b_i``.

    Like PB it skips objects whose path bandwidth already covers their
    bit-rate; unlike PB it caches the entire object (the most conservative
    over-provisioning choice), which keeps it effective when bandwidth
    varies drastically over time (Section 4.3).
    """

    name = "IB"
    allows_partial = False
    bandwidth_keyed = True

    def plan(
        self, obj: MediaObject, bandwidth: float, frequency: float, now: float
    ) -> Tuple[float, float]:
        target = 0.0 if obj.bitrate <= bandwidth else obj.size
        return target, frequency / max(bandwidth, 1e-9)
