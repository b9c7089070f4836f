"""Bandwidth measurement: active probing and passive observation.

Section 2.7 of the paper discusses how a cache can learn the bandwidth of
the path to an origin server:

* **Active measurement** — send probe packets, observe loss rate and
  round-trip time, and predict the throughput a TCP-friendly transport
  would obtain.  The standard prediction is the PFTK model of Padhye et al.
  [SIGCOMM 1998], in which throughput is inversely proportional to the RTT
  and to the square root of the loss rate.
* **Passive measurement** — observe the throughput of past transfers to the
  same server and smooth them (we use an exponentially weighted moving
  average).  No extra traffic, but the estimate lags when conditions change.

Both are implemented here; the simulator can attach a
:class:`PassiveEstimator` per path so that policies operate on estimated
rather than oracle bandwidth.

Passive observation alone only sees a path when a request uses it.
:mod:`repro.sim.events` closes that gap with rounds of periodic
re-measurement *between* requests; every out-of-band sample a round
draws is recorded in a :class:`BandwidthMeasurementLog`, which keeps bounded
per-server statistics (count / mean / extremes / last sample) so tests,
benchmarks, and reports can account for measurement traffic without
storing every sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, MeasurementError


@dataclass(frozen=True)
class PathConditions:
    """End-to-end conditions of a path, as observed by active probing.

    Attributes
    ----------
    rtt:
        Round-trip time in seconds.
    loss_rate:
        Packet loss probability in ``[0, 1)``.
    mss:
        Maximum segment size in KB (default 1.46 KB, a 1460-byte segment).
    rto:
        Retransmission timeout in seconds (PFTK uses ``max(1.0, 4 * rtt)``
        by convention when not measured; we default to ``4 * rtt``).
    """

    rtt: float
    loss_rate: float
    mss: float = 1.46
    rto: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.rtt > 0:
            raise ConfigurationError(f"rtt must be positive, got {self.rtt}")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ConfigurationError(
                f"loss_rate must be in [0, 1), got {self.loss_rate}"
            )
        if not self.mss > 0:
            raise ConfigurationError(f"mss must be positive, got {self.mss}")


def pftk_throughput(conditions: PathConditions) -> float:
    """Predict TCP throughput (KB/s) with the PFTK model [Padhye et al. 98].

    The full model is::

        B = MSS / (RTT * sqrt(2bp/3) + RTO * min(1, 3*sqrt(3bp/8)) * p * (1 + 32 p^2))

    with ``b = 2`` delayed-ACK packets per ACK and ``p`` the loss rate.
    With zero loss the model diverges, so the function returns the
    window-limited throughput of 64 KB per RTT instead, which is the
    sensible cap for an un-congested path.
    """
    p = conditions.loss_rate
    rtt = conditions.rtt
    if p <= 0.0:
        return 64.0 / rtt
    rto = conditions.rto if conditions.rto is not None else max(4.0 * rtt, 1.0)
    b = 2.0
    congestion_term = rtt * math.sqrt(2.0 * b * p / 3.0)
    timeout_term = rto * min(1.0, 3.0 * math.sqrt(3.0 * b * p / 8.0)) * p * (1.0 + 32.0 * p**2)
    throughput = conditions.mss / (congestion_term + timeout_term)
    # The window-limited cap still applies under loss.
    return min(throughput, 64.0 / rtt)


def simplified_tcp_throughput(conditions: PathConditions) -> float:
    """The simpler square-root model ``MSS / (RTT * sqrt(2p/3))`` (KB/s).

    This is the "inversely proportional to the square root of packet loss
    rate and round-trip time" formulation the paper cites.  Falls back to
    the window-limited value when loss is zero.
    """
    p = conditions.loss_rate
    if p <= 0.0:
        return 64.0 / conditions.rtt
    return min(
        conditions.mss / (conditions.rtt * math.sqrt(2.0 * p / 3.0)),
        64.0 / conditions.rtt,
    )


class ActiveProber:
    """Estimate path bandwidth by probing loss rate and RTT.

    The prober is given the *true* path conditions and adds measurement
    noise, mimicking the sampling error of a small probe train.  This keeps
    the substrate honest about the overhead/accuracy trade-off the paper
    mentions without simulating individual probe packets.
    """

    def __init__(self, probe_count: int = 20, noise_fraction: float = 0.1):
        if probe_count <= 0:
            raise ConfigurationError(f"probe_count must be positive, got {probe_count}")
        if not noise_fraction >= 0:
            raise ConfigurationError(
                f"noise_fraction must be non-negative, got {noise_fraction}"
            )
        self.probe_count = int(probe_count)
        self.noise_fraction = float(noise_fraction)

    def probe(
        self, conditions: PathConditions, rng: np.random.Generator
    ) -> float:
        """Return an estimated bandwidth (KB/s) for the given conditions."""
        # Loss estimate: binomial sampling error over probe_count probes.  A
        # probe train that loses every packet still yields a usable (if very
        # pessimistic) estimate rather than an out-of-range loss rate of 1.
        observed_losses = rng.binomial(self.probe_count, conditions.loss_rate)
        estimated_loss = min(observed_losses / self.probe_count, 0.99)
        # RTT estimate: multiplicative noise shrinking with probe count.
        rtt_noise = 1.0 + rng.normal(0.0, self.noise_fraction / math.sqrt(self.probe_count))
        estimated_rtt = max(conditions.rtt * rtt_noise, 1e-3)
        estimate = pftk_throughput(
            PathConditions(rtt=estimated_rtt, loss_rate=estimated_loss, mss=conditions.mss)
        )
        return max(estimate, 1.0)


class PassiveEstimator:
    """EWMA estimator of path bandwidth from observed transfer throughput.

    Each completed transfer to a server contributes one throughput sample;
    the estimator keeps an exponentially weighted moving average per server.
    Policies then use :meth:`estimate` instead of the oracle base bandwidth.

    Besides the per-server mode, the estimator has a ``(server_id,
    group_id)`` keyed mode for **per-group last-mile estimation**
    (``docs/clients.md``): when the simulator models a heterogeneous client
    cloud, each request's *delivered* throughput — the bottleneck of the
    origin hop and the client group's last mile — can be recorded per
    ``(server, client group)`` pair with :meth:`observe_group`, so the
    cache learns what each client population actually obtains from each
    server rather than assuming its client side is perfectly known.
    :meth:`estimate_group` falls back to the per-server estimate (and then
    to ``initial_estimate``) until the pair has its first sample, so the
    group view degrades gracefully to the origin view.
    """

    def __init__(self, smoothing: float = 0.25, initial_estimate: float = 100.0):
        if not 0.0 < smoothing <= 1.0:
            raise ConfigurationError(f"smoothing must be in (0, 1], got {smoothing}")
        if not initial_estimate > 0:
            raise ConfigurationError(
                f"initial_estimate must be positive, got {initial_estimate}"
            )
        self.smoothing = float(smoothing)
        self.initial_estimate = float(initial_estimate)
        self._estimates: Dict[int, float] = {}
        self._sample_counts: Dict[int, int] = {}
        self._group_estimates: Dict[Tuple[int, int], float] = {}
        self._group_sample_counts: Dict[Tuple[int, int], int] = {}

    def observe(self, server_id: int, throughput: float) -> float:
        """Record a throughput sample (KB/s) and return the new estimate.

        A sample that is not positive, NaN included, raises
        :class:`~repro.exceptions.MeasurementError` and leaves the
        estimate as it was.
        """
        if not throughput > 0:
            raise MeasurementError(
                f"throughput must be positive, got {throughput} for server {server_id}"
            )
        previous = self._estimates.get(server_id)
        if previous is None:
            estimate = throughput
        else:
            estimate = (1.0 - self.smoothing) * previous + self.smoothing * throughput
        self._estimates[server_id] = estimate
        self._sample_counts[server_id] = self._sample_counts.get(server_id, 0) + 1
        return estimate

    def estimate(self, server_id: int) -> float:
        """Current bandwidth estimate for a server (KB/s)."""
        return self._estimates.get(server_id, self.initial_estimate)

    def observe_group(self, server_id: int, group_id: int, throughput: float) -> float:
        """Record one delivered-throughput sample for a ``(server, group)`` pair.

        Same EWMA update as :meth:`observe`, kept in a separate keyed space:
        group samples never disturb the per-server origin estimates (and
        vice versa), so enabling per-group estimation cannot change what a
        group-unaware policy believes.  Returns the new group estimate.
        """
        if not throughput > 0:
            raise MeasurementError(
                f"throughput must be positive, got {throughput} for server "
                f"{server_id} group {group_id}"
            )
        key = (server_id, group_id)
        previous = self._group_estimates.get(key)
        if previous is None:
            estimate = throughput
        else:
            estimate = (1.0 - self.smoothing) * previous + self.smoothing * throughput
        self._group_estimates[key] = estimate
        self._group_sample_counts[key] = self._group_sample_counts.get(key, 0) + 1
        return estimate

    def estimate_group(self, server_id: int, group_id: int) -> float:
        """Delivered-bandwidth estimate for one ``(server, group)`` pair (KB/s).

        Falls back to the per-server estimate until the pair has observed
        its first sample, so callers can use the group view unconditionally.
        """
        value = self._group_estimates.get((server_id, group_id))
        if value is not None:
            return value
        return self.estimate(server_id)

    def sample_count(self, server_id: int) -> int:
        """How many samples have been observed for a server."""
        return self._sample_counts.get(server_id, 0)

    def group_sample_count(self, server_id: int, group_id: int) -> int:
        """How many samples have been observed for a ``(server, group)`` pair."""
        return self._group_sample_counts.get((server_id, group_id), 0)

    def known_servers(self) -> List[int]:
        """Servers for which at least one sample has been observed."""
        return sorted(self._estimates.keys())

    def known_groups(self, server_id: int) -> List[int]:
        """Client groups with at least one sample for the given server."""
        return sorted(
            group for (server, group) in self._group_estimates if server == server_id
        )

    def reset(self) -> None:
        """Forget all observations."""
        self._estimates.clear()
        self._sample_counts.clear()
        self._group_estimates.clear()
        self._group_sample_counts.clear()


class BandwidthMeasurementLog:
    """Bounded per-server record of out-of-band bandwidth samples.

    The periodic re-measurement rounds of :mod:`repro.sim.events` can
    probe millions of times on a long trace, so the log keeps running
    statistics (count, mean, min/max, last sample and its timestamp) per
    server rather than the samples themselves — constant memory per
    server, enough to account for measurement overhead and to
    sanity-check cadence in tests.
    """

    __slots__ = ("_counts", "_means", "_mins", "_maxs", "_last", "_last_time")

    def __init__(self) -> None:
        self._counts: Dict[int, int] = {}
        self._means: Dict[int, float] = {}
        self._mins: Dict[int, float] = {}
        self._maxs: Dict[int, float] = {}
        self._last: Dict[int, float] = {}
        self._last_time: Dict[int, float] = {}

    def record(self, time: float, server_id: int, throughput: float) -> None:
        """Record one sample (KB/s) for a server at simulation ``time``."""
        if not throughput > 0:
            raise MeasurementError(
                f"throughput must be positive, got {throughput} for server {server_id}"
            )
        count = self._counts.get(server_id, 0)
        if count == 0:
            self._means[server_id] = throughput
            self._mins[server_id] = throughput
            self._maxs[server_id] = throughput
        else:
            # Streaming mean: exact regardless of sample count.
            self._means[server_id] += (throughput - self._means[server_id]) / (count + 1)
            if throughput < self._mins[server_id]:
                self._mins[server_id] = throughput
            elif throughput > self._maxs[server_id]:
                self._maxs[server_id] = throughput
        self._counts[server_id] = count + 1
        self._last[server_id] = throughput
        self._last_time[server_id] = float(time)

    @property
    def total_samples(self) -> int:
        """Total number of samples recorded across all servers."""
        return sum(self._counts.values())

    def sample_count(self, server_id: int) -> int:
        """Number of samples recorded for one server."""
        return self._counts.get(server_id, 0)

    def mean(self, server_id: int) -> Optional[float]:
        """Mean sampled bandwidth for a server (None before any sample)."""
        return self._means.get(server_id)

    def last_sample(self, server_id: int) -> Optional[float]:
        """Most recent sample for a server (None before any sample)."""
        return self._last.get(server_id)

    def last_sample_time(self, server_id: int) -> Optional[float]:
        """Simulation time of the most recent sample for a server."""
        return self._last_time.get(server_id)

    def servers(self) -> List[int]:
        """Servers with at least one recorded sample, sorted."""
        return sorted(self._counts.keys())

    def as_dict(self) -> Dict[int, Dict[str, float]]:
        """Per-server summary rows (count / mean / min / max / last)."""
        return {
            server_id: {
                "count": float(self._counts[server_id]),
                "mean": self._means[server_id],
                "min": self._mins[server_id],
                "max": self._maxs[server_id],
                "last": self._last[server_id],
            }
            for server_id in self.servers()
        }
