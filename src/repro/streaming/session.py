"""Joint cache + origin-server delivery sessions.

This module captures the client-side behaviour the paper describes in
Sections 2.1 and 3.3.  When a client requests an object:

* If the combined delivery (cached prefix streamed from the fast proxy plus
  the remainder streamed from the origin server at bandwidth ``b``) can
  sustain the object's bit-rate, playout starts immediately at full quality.
* Otherwise the client has two options.  It can **wait** — prefetch enough
  of the stream to hide the bandwidth deficit, incurring the service delay
  ``[T r - T b - x]+ / b`` — or it can **degrade** — start immediately but
  play only as many encoding layers as the available rate supports.

The :class:`DeliverySession` computes all of these quantities for a single
request, together with the byte accounting (how much was served from the
cache versus the origin server) that the traffic-reduction metric needs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError
from repro.workload.catalog import MediaObject


@dataclass(frozen=True)
class DeliveryOutcome:
    """Everything the metrics need to know about one served request.

    Attributes
    ----------
    object_id:
        Which object was served.
    service_delay:
        Startup delay in seconds if the client chooses to wait for full
        quality (0 when playout can start immediately).
    stream_quality:
        Fraction of the full stream (layers) playable with zero delay.
    bytes_from_cache:
        KB served out of the proxy cache.
    bytes_from_server:
        KB fetched from the origin server.
    observed_bandwidth:
        The server-path bandwidth (KB/s) this request experienced.
    cached_fraction:
        Fraction of the object that was cached when the request arrived.
    value:
        The object's value ``V_i`` (used by the added-value metric).
    immediate_full_quality:
        True when no delay and no degradation were needed.
    """

    object_id: int
    service_delay: float
    stream_quality: float
    bytes_from_cache: float
    bytes_from_server: float
    observed_bandwidth: float
    cached_fraction: float
    value: float
    immediate_full_quality: bool

    @property
    def total_bytes(self) -> float:
        """Total KB delivered for this request."""
        return self.bytes_from_cache + self.bytes_from_server


class DeliverySession:
    """Compute the outcome of serving one object with a cached prefix.

    Parameters
    ----------
    obj:
        The requested media object.
    cached_bytes:
        KB of the object's prefix currently held by the proxy cache.
    server_bandwidth:
        Available bandwidth (KB/s) on the cache/client-to-origin-server path
        for the duration of this request.
    """

    def __init__(self, obj: MediaObject, cached_bytes: float, server_bandwidth: float):
        if not cached_bytes >= 0:
            raise ConfigurationError(f"cached_bytes must be non-negative, got {cached_bytes}")
        if not server_bandwidth >= 0:
            raise ConfigurationError(
                f"server_bandwidth must be non-negative, got {server_bandwidth}"
            )
        self.obj = obj
        self.cached_bytes = min(float(cached_bytes), obj.size)
        self.server_bandwidth = float(server_bandwidth)

    def service_delay(self) -> float:
        """Startup delay (seconds) when the client waits for full quality."""
        return self.obj.startup_delay(self.server_bandwidth, self.cached_bytes)

    def stream_quality(self) -> float:
        """Quality (fraction of layers) playable with zero startup delay."""
        return self.obj.stream_quality(self.server_bandwidth, self.cached_bytes)

    def supports_immediate_full_quality(self) -> bool:
        """True when cache + server jointly sustain the full bit-rate now."""
        return self.service_delay() <= 0.0

    def bytes_from_cache(self) -> float:
        """KB the proxy serves (the cached prefix, capped at object size)."""
        return self.cached_bytes

    def bytes_from_server(self) -> float:
        """KB that must still come from the origin server."""
        return self.obj.size - self.cached_bytes

    def outcome(self) -> DeliveryOutcome:
        """Materialise the full :class:`DeliveryOutcome` for this request."""
        delay = self.service_delay()
        quality = self.stream_quality()
        return DeliveryOutcome(
            object_id=self.obj.object_id,
            service_delay=delay,
            stream_quality=quality,
            bytes_from_cache=self.bytes_from_cache(),
            bytes_from_server=self.bytes_from_server(),
            observed_bandwidth=self.server_bandwidth,
            cached_fraction=self.cached_bytes / self.obj.size if self.obj.size > 0 else 0.0,
            value=self.obj.value,
            immediate_full_quality=delay <= 0.0,
        )


def required_prefix_for_immediate_playout(
    obj: MediaObject, server_bandwidth: float
) -> float:
    """KB of prefix that must be cached for zero-delay full-quality playout.

    This is the paper's ``[T_i r_i − T_i b_i]+`` quantity (Section 2.6): the
    minimum cached portion that lets the cache and origin server jointly
    support immediate service.
    """
    return obj.minimum_prefix_for_bandwidth(server_bandwidth)
