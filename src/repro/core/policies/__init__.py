"""Cache management policies.

The policy classes implement the algorithms the paper compares:

==============================  =========================================
Class                           Paper name
==============================  =========================================
:class:`IntegralFrequencyPolicy`        IF — integral frequency-based caching
:class:`PartialBandwidthPolicy`         PB — partial bandwidth-based caching
:class:`IntegralBandwidthPolicy`        IB — integral bandwidth-based caching
:class:`HybridPartialBandwidthPolicy`   the estimator-``e`` spectrum of §2.5 / Fig 9
:class:`PartialBandwidthValuePolicy`    PB-V — partial bandwidth-value-based (§2.6)
:class:`IntegralBandwidthValuePolicy`   IB-V — integral bandwidth-value-based (§4.4)
:class:`LRUPolicy`, :class:`LFUPolicy`  classic baselines (§3.3)
:func:`optimal_allocation`              the offline fractional-knapsack optimum (§2.3)
==============================  =========================================
"""

from repro.core.policies.base import CachePolicy
from repro.core.policies.bandwidth import (
    HybridPartialBandwidthPolicy,
    IntegralBandwidthPolicy,
    PartialBandwidthPolicy,
)
from repro.core.policies.classic import LFUPolicy, LRUPolicy
from repro.core.policies.frequency import IntegralFrequencyPolicy
from repro.core.policies.greedydual import (
    GreedyDualSizePolicy,
    PopularityAwareGreedyDualSizePolicy,
)
from repro.core.policies.optimal import (
    StaticAllocationPolicy,
    optimal_allocation,
    optimal_average_delay,
)
from repro.core.policies.registry import POLICY_REGISTRY, PolicySpec, make_policy
from repro.core.policies.value_based import (
    HybridPartialBandwidthValuePolicy,
    IntegralBandwidthValuePolicy,
    PartialBandwidthValuePolicy,
)

__all__ = [
    "CachePolicy",
    "GreedyDualSizePolicy",
    "HybridPartialBandwidthPolicy",
    "HybridPartialBandwidthValuePolicy",
    "IntegralBandwidthPolicy",
    "IntegralBandwidthValuePolicy",
    "IntegralFrequencyPolicy",
    "LFUPolicy",
    "LRUPolicy",
    "POLICY_REGISTRY",
    "PartialBandwidthPolicy",
    "PartialBandwidthValuePolicy",
    "PolicySpec",
    "PopularityAwareGreedyDualSizePolicy",
    "StaticAllocationPolicy",
    "make_policy",
    "optimal_allocation",
    "optimal_average_delay",
]
