"""Prefix prefetching schedules for joint cache + server delivery.

Section 2.7 notes that restricting cached content to object *prefixes* makes
joint delivery straightforward: the client plays the prefix out of the cache
while the remainder ("suffix") is prefetched from the origin server in the
background.  This module computes the timing of that prefetch and verifies
that the suffix arrives before the playout position catches up with it —
the condition under which the cached prefix truly hides the slow server
path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError
from repro.workload.catalog import MediaObject


@dataclass(frozen=True)
class PrefetchPlan:
    """The schedule for fetching an object's suffix during prefix playout.

    Attributes
    ----------
    prefix_bytes:
        KB of the object served from the cache.
    suffix_bytes:
        KB that must be fetched from the origin server.
    prefix_playout_seconds:
        How long the cached prefix plays for (prefix size / bit-rate).
    suffix_fetch_seconds:
        How long fetching the suffix takes at the server bandwidth.
    startup_delay:
        Extra delay (seconds) needed before playout can start so that the
        suffix is complete by the time the player reaches it.  Zero when
        the prefix is long enough.
    feasible_without_delay:
        True when the suffix download finishes during prefix playout.
    """

    prefix_bytes: float
    suffix_bytes: float
    prefix_playout_seconds: float
    suffix_fetch_seconds: float
    startup_delay: float
    feasible_without_delay: bool


def plan_prefix_prefetch(
    obj: MediaObject, cached_prefix_bytes: float, server_bandwidth: float
) -> PrefetchPlan:
    """Plan the suffix prefetch for an object with a cached prefix.

    The client starts playing the cached prefix immediately (or after
    ``startup_delay`` seconds if the prefix is too short) while the suffix
    streams from the origin server at ``server_bandwidth`` KB/s.  Playback is
    continuous iff the suffix transfer completes no later than the moment
    the playout position reaches the end of the prefix, i.e.::

        suffix_bytes / b  <=  startup_delay + prefix_bytes / r

    which rearranges to the paper's delay formula
    ``startup_delay = [T r − T b − x]+ / b``.
    """
    if not cached_prefix_bytes >= 0:
        raise ConfigurationError(
            f"cached_prefix_bytes must be non-negative, got {cached_prefix_bytes}"
        )
    if not server_bandwidth >= 0:
        raise ConfigurationError(
            f"server_bandwidth must be non-negative, got {server_bandwidth}"
        )

    prefix = min(float(cached_prefix_bytes), obj.size)
    suffix = obj.size - prefix
    prefix_playout = prefix / obj.bitrate
    if suffix <= 0:
        return PrefetchPlan(
            prefix_bytes=prefix,
            suffix_bytes=0.0,
            prefix_playout_seconds=prefix_playout,
            suffix_fetch_seconds=0.0,
            startup_delay=0.0,
            feasible_without_delay=True,
        )
    if server_bandwidth <= 0:
        return PrefetchPlan(
            prefix_bytes=prefix,
            suffix_bytes=suffix,
            prefix_playout_seconds=prefix_playout,
            suffix_fetch_seconds=float("inf"),
            startup_delay=float("inf"),
            feasible_without_delay=False,
        )

    suffix_fetch = suffix / server_bandwidth
    # While the suffix streams, playout also proceeds through it, so the
    # binding constraint is the paper's delay formula, not simply
    # suffix_fetch <= prefix_playout.
    startup_delay = obj.startup_delay(server_bandwidth, prefix)
    return PrefetchPlan(
        prefix_bytes=prefix,
        suffix_bytes=suffix,
        prefix_playout_seconds=prefix_playout,
        suffix_fetch_seconds=suffix_fetch,
        startup_delay=startup_delay,
        feasible_without_delay=startup_delay <= 0.0,
    )
