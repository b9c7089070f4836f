"""IF — Integral Frequency-based caching.

The first algorithm compared in Section 4.1: cache the objects with the
highest request frequency, whole objects only, regardless of the bandwidth
available from their origin servers.  It is the natural adaptation of LFU to
streaming objects and serves as the network-unaware baseline; the paper
shows it maximises traffic reduction but does poorly on service delay and
stream quality because it wastes space on popular objects that would stream
fine straight from their servers.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.policies.base import CachePolicy
from repro.workload.catalog import MediaObject


class IntegralFrequencyPolicy(CachePolicy):
    """IF: utility ``F_i``, target the whole object, integral replacement."""

    name = "IF"
    allows_partial = False

    def plan(
        self, obj: MediaObject, bandwidth: float, frequency: float, now: float
    ) -> Tuple[float, float]:
        return obj.size, frequency
