"""Value-based policies: maximise the revenue added by the cache (§2.6, §4.4).

Each object has a value ``V_i`` that is earned whenever the object can be
played *immediately* at full quality.  Caching the prefix
``[T_i r_i − T_i b_i]+`` of an object guarantees immediate service, so the
cache-content problem becomes a 0/1 knapsack with per-object weight
``[T_i r_i − T_i b_i]+`` and profit ``λ_i V_i``; the paper's greedy
approximation caches the objects with the highest profit density
``λ_i V_i / (T_i r_i − T_i b_i)``.

Three online policies implement this idea:

* **PB-V** — cache exactly the required prefix, ranked by profit density.
* **IB-V** — cache whole objects ranked by ``λ_i V_i / (T_i r_i b_i)``
  (preferring low-bandwidth, high-value, small objects), the integral
  variant of Section 4.4.
* **HybridPartialBandwidthValue** — PB-V with the bandwidth under-estimated
  by a factor ``e`` (Figure 12); ``e ≈ 0.5`` is the paper's sweet spot.

All three are ``bandwidth_keyed``: their profit densities divide by the
believed bandwidth, so under passive knowledge the reactive hook
(``docs/events.md``) re-keys their heap entries when a probe or — with
``SimulationConfig.reactive_passive`` — a per-request passive observation
shifts a path's estimate past the configured threshold.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.policies.base import CachePolicy
from repro.exceptions import ConfigurationError
from repro.workload.catalog import MediaObject


class HybridPartialBandwidthValuePolicy(CachePolicy):
    """PB-V with bandwidth under-estimation factor ``e`` (Figure 12).

    With ``e = 1`` this is exactly the PB-V policy of Section 2.6; smaller
    ``e`` caches a larger prefix per object, hedging against bandwidth
    variability at the cost of covering fewer objects.
    """

    allows_partial = True
    bandwidth_keyed = True

    def __init__(self, estimator_e: float = 1.0):
        if not 0.0 < estimator_e <= 1.0:
            raise ConfigurationError(
                f"estimator_e must be in (0, 1], got {estimator_e}"
            )
        super().__init__()
        self.estimator_e = float(estimator_e)
        self.name = f"PB-V(e={self.estimator_e:g})"

    def plan(
        self, obj: MediaObject, bandwidth: float, frequency: float, now: float
    ) -> Tuple[float, float]:
        # The required prefix at the conservative bandwidth ``e * b``.
        deficit = obj.bitrate - max(bandwidth * self.estimator_e, 1e-9)
        prefix = (deficit if deficit > 0.0 else 0.0) * obj.duration
        if prefix <= 0:
            # The object needs no cache space to earn its value, so it should
            # never displace anything: give it the lowest possible priority.
            return prefix, 0.0
        return prefix, frequency * obj.value / prefix


class PartialBandwidthValuePolicy(HybridPartialBandwidthValuePolicy):
    """PB-V: greedy profit-density caching of the exact required prefix."""

    name = "PB-V"

    def __init__(self):
        super().__init__(estimator_e=1.0)
        self.name = "PB-V"


class IntegralBandwidthValuePolicy(CachePolicy):
    """IB-V: whole-object caching ranked by ``F_i V_i / (T_i r_i b_i)``.

    The ranking prefers objects with lower path bandwidth ``b_i``, higher
    value ``V_i``, and smaller size ``T_i r_i`` — the integral
    bandwidth-value-based policy of Section 4.4.  Objects whose path already
    sustains their bit-rate are not cached.
    """

    name = "IB-V"
    allows_partial = False
    bandwidth_keyed = True

    def plan(
        self, obj: MediaObject, bandwidth: float, frequency: float, now: float
    ) -> Tuple[float, float]:
        target = 0.0 if obj.bitrate <= bandwidth else obj.size
        denominator = obj.size * max(bandwidth, 1e-9)
        return target, frequency * obj.value / denominator
