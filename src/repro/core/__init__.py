"""The paper's primary contribution: network-aware (partial) cache management.

* :mod:`repro.core.store` — the proxy's cache store with byte-accurate
  accounting of (possibly partial) cached objects,
* :mod:`repro.core.frequency` — online request-frequency estimation,
* :mod:`repro.core.policies` — the cache management policies compared in the
  paper (IF, PB, IB, hybrid estimator-e, PB-V, IB-V, LRU/LFU baselines, and
  the offline optimal fractional-knapsack solution).
"""

from repro.core.frequency import FrequencyTracker
from repro.core.policies import (
    CachePolicy,
    HybridPartialBandwidthPolicy,
    IntegralBandwidthPolicy,
    IntegralBandwidthValuePolicy,
    IntegralFrequencyPolicy,
    LRUPolicy,
    PartialBandwidthPolicy,
    PartialBandwidthValuePolicy,
    StaticAllocationPolicy,
    make_policy,
    optimal_allocation,
)
from repro.core.store import CacheStore

__all__ = [
    "CachePolicy",
    "CacheStore",
    "FrequencyTracker",
    "HybridPartialBandwidthPolicy",
    "IntegralBandwidthPolicy",
    "IntegralBandwidthValuePolicy",
    "IntegralFrequencyPolicy",
    "LRUPolicy",
    "PartialBandwidthPolicy",
    "PartialBandwidthValuePolicy",
    "StaticAllocationPolicy",
    "make_policy",
    "optimal_allocation",
]
