"""Classic network-unaware baselines: LRU and LFU.

Section 3.3 points out that algorithms "such as LRU and LFU cache objects
based on their access frequency only, not on the network bandwidth"; they
aim at hit ratio / traffic reduction rather than delay or quality.  Both are
provided as whole-object policies plugged into the same replacement engine,
so the network-aware policies can be compared against the textbook
baselines in addition to the paper's IF strawman.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.policies.base import CachePolicy
from repro.workload.catalog import MediaObject


class LRUPolicy(CachePolicy):
    """Least Recently Used: utility is the time of the most recent access.

    The least recently requested cached object has the smallest utility and
    is evicted first.  Whole objects only.
    """

    name = "LRU"
    allows_partial = False

    def plan(
        self, obj: MediaObject, bandwidth: float, frequency: float, now: float
    ) -> Tuple[float, float]:
        return obj.size, now


class LFUPolicy(CachePolicy):
    """Least Frequently Used: utility is the request count.

    Functionally identical to the paper's IF policy; kept as a separate
    class so experiments can list both names explicitly.
    """

    name = "LFU"
    allows_partial = False

    def plan(
        self, obj: MediaObject, bandwidth: float, frequency: float, now: float
    ) -> Tuple[float, float]:
        return obj.size, frequency
