"""Periodic bandwidth re-measurement, and re-keying on belief shifts.

The paper's central claim is that caching decisions should track *measured*
network bandwidth.  Request-driven passive estimation
(:class:`~repro.network.measurement.PassiveEstimator`) only observes a path
when a request happens to use it, so an estimate can go stale for exactly
the unpopular servers whose bandwidth matters most when one of their
objects is finally requested.  This module adds the out-of-band half of the
measurement story, probes that fire *between* requests, and the bridge
from a moved estimate to the policy's heap keys:

* :class:`RemeasurementConfig` — the probe cadence, one interval, carried
  on :attr:`repro.sim.config.SimulationConfig.remeasurement`.
* :class:`ProbeRounds` — one run's probes.  Every ``interval`` seconds a
  *round* samples each origin path once, in server-id order, and feeds
  the samples to a
  :class:`~repro.network.measurement.BandwidthMeasurementLog` and to the
  run's estimator.  The samples come from the probes' own random
  generator, so the request stream's bandwidth draws are untouched.
* :class:`ReactiveRekeyer` — re-keys the policy when a probe or a
  request moves a path's believed bandwidth past a threshold.

The simulator's replay loop serves the requests before each round,
fires the round, and goes on; see ``docs/events.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real
from typing import TYPE_CHECKING, Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, check_scalars

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.network.measurement import BandwidthMeasurementLog, PassiveEstimator
    from repro.network.path import PathRegistry

#: Entropy tag mixed into the re-measurement generator's seed so its stream
#: never collides with the request stream's (which is seeded with the bare
#: config seed).
_REMEASUREMENT_STREAM_TAG = 0x52454D


@dataclass(frozen=True)
class RemeasurementConfig:
    """Cadence of periodic bandwidth re-measurement.

    Attributes
    ----------
    interval:
        Seconds between probe rounds.  The first round fires one interval
        after the trace's first request (a probe takes one interval to
        produce its first answer), each later one ``interval`` after the
        one before, and the last at or before the trace's last request.
        An interval longer than the trace never fires.
    """

    interval: float

    def __post_init__(self) -> None:
        check_scalars(self, Real, "interval")
        if not self.interval > 0:
            raise ConfigurationError(
                f"remeasurement interval must be positive, got {self.interval}"
            )


class ProbeRounds:
    """One run's periodic probes of every origin path, fired in rounds.

    :meth:`times` yields the round times and :meth:`fire` fires one
    round.  A round probes every path once, in server-id order: each
    probe records its sample in ``log`` and then feeds it to
    ``estimator`` (when the run uses passive bandwidth knowledge).  With
    a ``rekeyer``, each probe reads the estimate before its sample lands
    and hands it to :meth:`ReactiveRekeyer.notify`, so the very first
    probe can already re-key.

    A sample is one draw of
    :meth:`~repro.network.path.NetworkPath.sample_observed`, the path's
    base bandwidth modulated by its variability model, which is what a
    completed probe transfer would have observed.  Every
    :data:`PROBE_BATCH` rounds each path draws its next batch, in
    server-id order, from the probes' own generator.  :attr:`fired`
    counts the probes fired, rounds times paths.
    """

    __slots__ = (
        "interval",
        "log",
        "estimator",
        "rekeyer",
        "rng",
        "fired",
        "_paths",
        "_server_ids",
        "_rounds",
        "_block",
    )

    #: Rounds each batch of samples lasts: a round costs a column read
    #: instead of a numpy draw per path.
    PROBE_BATCH = 32

    def __init__(
        self,
        interval: float,
        paths: "PathRegistry",
        log: "BandwidthMeasurementLog",
        estimator: Optional["PassiveEstimator"] = None,
        rekeyer: Optional["ReactiveRekeyer"] = None,
        seed: int = 0,
    ):
        self.interval = float(interval)
        self.log = log
        self.estimator = estimator
        self.rekeyer = rekeyer
        self.rng = np.random.default_rng(
            (_REMEASUREMENT_STREAM_TAG, seed & 0xFFFFFFFF, 0)
        )
        self.fired = 0
        self._server_ids = paths.server_ids()
        self._paths = [paths.get(server_id) for server_id in self._server_ids]
        self._rounds = 0
        self._block: Optional[np.ndarray] = None

    def times(self, start: float, end: float) -> Iterator[float]:
        """The round times of a trace spanning ``[start, end]``.

        Each time is the one before plus ``interval``, accumulated rather
        than ``start + k * interval``, which can round differently.
        """
        now = float(start) + self.interval
        while now <= end:
            yield now
            now += self.interval

    def fire(self, now: float) -> None:
        """Probe every path once at simulation time ``now``."""
        position = self._rounds % self.PROBE_BATCH
        if position == 0:
            # Drop the spent batch first, so a refill never holds two.
            self._block = None
            self._block = np.empty((len(self._paths), self.PROBE_BATCH))
            for row, path in zip(self._block, self._paths):
                row[:] = path.sample_observed(self.rng, self.PROBE_BATCH)
        self._rounds += 1
        self.fired += len(self._paths)
        samples = zip(self._server_ids, self._block[:, position].tolist())
        record = self.log.record
        estimator = self.estimator
        rekeyer = self.rekeyer
        if estimator is None:
            for server_id, sample in samples:
                record(now, server_id, sample)
        elif rekeyer is None:
            observe = estimator.observe
            for server_id, sample in samples:
                record(now, server_id, sample)
                observe(server_id, sample)
        else:
            estimate = estimator.estimate
            observe = estimator.observe
            notify = rekeyer.notify
            for server_id, sample in samples:
                record(now, server_id, sample)
                prior = estimate(server_id)
                observe(server_id, sample)
                notify(now, server_id, prior)


class ReactiveRekeyer:
    """Threshold-gated bridge from bandwidth-belief shifts to the policy.

    Passive estimation updates a path's believed bandwidth the moment a
    sample lands — a periodic re-measurement probe or an ordinary request's
    transfer — but a policy's *heap keys* only refresh when the next
    request happens to touch an object on that path: stale keys can
    mis-order evictions for exactly the cold servers measurement exists to
    cover.  The rekeyer closes that window.  After every sample it compares
    the path's new believed value against the value the policy was last
    re-keyed at (the *anchor*, seeded from the estimate the policy actually
    keyed at before the first sample, so a first sample of any magnitude
    can already trigger) and, when the relative shift exceeds
    ``threshold``, calls
    :meth:`~repro.core.policies.base.CachePolicy.on_bandwidth_shift` so the
    policy re-keys the affected heap entries immediately —
    generation-keyed, reusing the existing lazy-invalidation/compaction
    machinery.

    Two notification sources share the machinery:

    * **probe-driven** — :class:`ProbeRounds` probes call
      :meth:`notify` with no group (the origin view);
    * **passive-driven** — with
      :attr:`~repro.sim.config.SimulationConfig.reactive_passive` enabled,
      the kernel calls :meth:`observe_request` after every request's
      estimator update, tagged with the requesting client group and
      handed the estimate that update returned.

    Churn is bounded two ways:

    * ``hysteresis`` — after a re-key the shifted view is *disarmed*; it
      re-arms only once its believed value re-enters the band
      ``|believed - anchor| <= hysteresis * anchor``, so an estimate
      oscillating between two distant values cannot re-key on every swing;
    * ``rekey_cap`` — a hard per-server budget of re-keys per run; shifts
      past the budget are counted in ``suppressed`` instead of re-keying.

    Anchors and caps are kept **per client group** (``docs/clients.md``):
    a request from group ``g`` keys the heap at
    ``min(estimate, group_caps[g])``, so each group's view is compared
    against its own cap and its own anchor — a single cap (one-element
    ``group_caps``) cannot represent what a slower group's requests
    actually keyed at.  With
    ``group_estimation`` enabled the group views read the estimator's
    ``(server, group)`` delivered-bandwidth estimates, so a last-mile
    degradation invisible to the origin estimate still re-keys.  Re-keys
    themselves happen at the estimate capped to the *largest* group base —
    the most any request believes.

    ``shifts`` counts threshold crossings that re-keyed,
    ``entries_rekeyed`` the heap entries re-pushed, ``suppressed`` the
    crossings the per-server cap swallowed, and ``rekeys_by_server`` the
    per-server re-key counts the cap bounds.
    """

    __slots__ = (
        "policy",
        "estimator",
        "threshold",
        "hysteresis",
        "rekey_cap",
        "group_caps",
        "group_estimation",
        "shifts",
        "entries_rekeyed",
        "suppressed",
        "rekeys_by_server",
        "trace",
        "_max_cap",
        "_caps",
        "_anchors",
        "_disarmed",
    )

    def __init__(
        self,
        policy,
        estimator: "PassiveEstimator",
        threshold: float,
        group_caps: Optional[Sequence[float]] = None,
        hysteresis: Optional[float] = None,
        rekey_cap: Optional[int] = None,
        group_estimation: bool = False,
    ):
        if not threshold > 0:
            raise ConfigurationError(
                f"reactive threshold must be positive, got {threshold}"
            )
        if group_caps is not None:
            group_caps = tuple(float(cap) for cap in group_caps)
            if not group_caps:
                raise ConfigurationError("group_caps must be non-empty when given")
            for cap in group_caps:
                if not cap > 0:
                    raise ConfigurationError(
                        f"group caps must be positive, got {cap}"
                    )
        if hysteresis is not None and not 0.0 < hysteresis <= threshold:
            raise ConfigurationError(
                f"hysteresis must be in (0, threshold={threshold}], got {hysteresis}"
            )
        if rekey_cap is not None and not rekey_cap > 0:
            raise ConfigurationError(
                f"rekey_cap must be positive, got {rekey_cap}"
            )
        self.policy = policy
        self.estimator = estimator
        self.threshold = float(threshold)
        self.hysteresis = hysteresis
        self.rekey_cap = rekey_cap
        self.group_caps = group_caps
        self.group_estimation = bool(group_estimation)
        self.shifts = 0
        self.entries_rekeyed = 0
        self.suppressed = 0
        self.rekeys_by_server: Dict[int, int] = {}
        #: Optional :class:`repro.obs.tracing.TraceSink` the simulator
        #: attaches for the duration of one traced run; when set, every
        #: re-key emits an info-level ``rekey`` event.
        self.trace = None
        max_cap = max(group_caps) if group_caps else None
        self._max_cap = None if max_cap == float("inf") else max_cap
        #: The believed-bandwidth ceiling of each group's view (``None`` =
        #: uncapped), read as ``_caps[group_id % len(_caps)]``; the origin
        #: view (group ``None``) is capped at ``_max_cap``.
        self._caps: Tuple[Optional[float], ...] = (
            tuple(None if cap == float("inf") else cap for cap in group_caps)
            if group_caps is not None
            else (None,)
        )
        #: Anchors nested per server: ``{server_id: {group_id: anchor}}``
        #: with ``None`` as the group of the origin (probe-driven) view.
        #: Nesting keeps a trigger's re-anchor sweep O(that server's views)
        #: instead of O(every view of every server).
        self._anchors: Dict[int, Dict[Optional[int], float]] = {}
        #: Views waiting to re-enter the hysteresis band before they may
        #: trigger again (only populated when ``hysteresis`` is set).
        self._disarmed: Dict[int, Dict[Optional[int], bool]] = {}

    def anchor_for(
        self, server_id: int, group_id: Optional[int] = None
    ) -> Optional[float]:
        """The believed value a view was last re-anchored at (test hook).

        ``None`` while the view has never been touched.  Together with
        :meth:`disarmed_views` this lets fault-storm tests
        (``tests/test_sim_faults.py``) assert the hysteresis state machine
        from outside: an outage collapses the anchor, recovery re-arms the
        view, and the anchor follows.
        """
        views = self._anchors.get(server_id)
        return None if views is None else views.get(group_id)

    def disarmed_views(self, server_id: int) -> Tuple[Optional[int], ...]:
        """Views of a server currently disarmed by hysteresis (test hook).

        Returns the group ids (``None`` = the origin / probe-driven view)
        whose estimates must re-enter the hysteresis band before they may
        trigger again.  Empty when hysteresis is off or everything is
        armed.
        """
        disarmed = self._disarmed.get(server_id)
        if not disarmed:
            return ()
        return tuple(group for group, flag in disarmed.items() if flag)

    def observe_request(
        self,
        now: float,
        server_id: int,
        group_id: Optional[int],
        prior_estimate: float,
        delivered: float,
        estimate: float,
    ) -> None:
        """Passive-driven notification after one request's estimator update.

        ``prior_estimate`` is the origin estimate the request's policy
        decision keyed at (read *before* the request's sample was
        observed); ``estimate`` is the origin estimate after it, as
        :meth:`~repro.network.measurement.PassiveEstimator.observe`
        returned it; ``delivered`` is the throughput the request actually
        experienced (bottleneck of both hops).  With ``group_estimation``
        the delivered sample feeds the estimator's ``(server, group)`` mode
        and the group view is compared on its own estimate trajectory.

        A view that reads the origin estimate and is already anchored is
        settled here, with :meth:`notify`'s own tests: a disarmed view
        re-arms once back in the hysteresis band, and an in-band view
        does nothing.  A first contact or a crossing goes to
        :meth:`notify`.
        """
        if group_id is not None and self.group_estimation:
            if self.estimator.group_sample_count(server_id, group_id) > 0:
                prior = self.estimator.estimate_group(server_id, group_id)
            else:
                # First sample for this pair: estimate_group would fall
                # back to the *post-sample* origin estimate (the loops
                # observe the origin before notifying), which would seed
                # the anchor at the new belief and swallow the first shift
                # — the very bug the anchor-seeding fix removed.  The
                # pre-sample origin estimate is what this view keyed at.
                prior = prior_estimate
            self.estimator.observe_group(server_id, group_id, delivered)
            self.notify(now, server_id, prior, group_id=group_id)
            return
        views = self._anchors.get(server_id)
        anchor = None if views is None else views.get(group_id)
        if anchor is not None:
            if group_id is None:
                cap = self._max_cap
            else:
                caps = self._caps
                cap = caps[group_id % len(caps)]
            believed = estimate if cap is None or estimate <= cap else cap
            disarmed = self._disarmed.get(server_id)
            if disarmed is not None and disarmed.get(group_id):
                if abs(believed - anchor) <= self.hysteresis * anchor:
                    disarmed[group_id] = False
                return
            if abs(believed - anchor) <= self.threshold * anchor:
                return
        self.notify(now, server_id, prior_estimate, group_id=group_id)

    def notify(
        self,
        now: float,
        server_id: int,
        prior_estimate: float,
        group_id: Optional[int] = None,
    ) -> None:
        """Consider re-keying after one sample landed on one view.

        ``prior_estimate`` seeds the view's anchor on first contact: it
        must be the estimate the policy's existing heap keys were built at
        (the value *before* the sample), not the post-sample estimate —
        seeding from the latter silently swallows a first shift of any
        magnitude.
        """
        if group_id is None:
            estimate = self.estimator.estimate(server_id)
            cap = self._max_cap
        else:
            if self.group_estimation:
                estimate = self.estimator.estimate_group(server_id, group_id)
            else:
                estimate = self.estimator.estimate(server_id)
            caps = self._caps
            cap = caps[group_id % len(caps)]
        believed = estimate if cap is None or estimate <= cap else cap
        views = self._anchors.get(server_id)
        if views is None:
            views = self._anchors[server_id] = {}
        anchor = views.get(group_id)
        if anchor is None:
            prior = prior_estimate
            if cap is not None and prior > cap:
                prior = cap
            views[group_id] = anchor = prior
        disarmed = self._disarmed.get(server_id)
        if disarmed is not None and disarmed.get(group_id):
            if abs(believed - anchor) <= self.hysteresis * anchor:
                disarmed[group_id] = False
            return
        if abs(believed - anchor) <= self.threshold * anchor:
            return
        if (
            self.rekey_cap is not None
            and self.rekeys_by_server.get(server_id, 0) >= self.rekey_cap
        ):
            self.suppressed += 1
            return
        self.shifts += 1
        self.rekeys_by_server[server_id] = (
            self.rekeys_by_server.get(server_id, 0) + 1
        )
        rekey_bandwidth = estimate
        if self._max_cap is not None and rekey_bandwidth > self._max_cap:
            rekey_bandwidth = self._max_cap
        rekeyed = self.policy.on_bandwidth_shift(server_id, rekey_bandwidth, now)
        self.entries_rekeyed += rekeyed
        if self.trace is not None:
            self.trace.emit(
                "info",
                "rekey",
                now,
                server=server_id,
                group=group_id,
                anchor=anchor,
                believed=believed,
                entries=rekeyed,
            )
        # Every tracked view of this server was just re-keyed: re-anchor
        # them all at their newly believed values, and (under hysteresis)
        # disarm them until their estimates settle back into the band.
        views[group_id] = believed
        origin_estimate = self.estimator.estimate(server_id)
        caps = self._caps
        n_caps = len(caps)
        group_estimation = self.group_estimation
        for other_group in views:
            if other_group == group_id:
                continue
            if other_group is None:
                other_estimate = origin_estimate
                other_cap = self._max_cap
            else:
                if group_estimation:
                    other_estimate = self.estimator.estimate_group(
                        server_id, other_group
                    )
                else:
                    other_estimate = origin_estimate
                other_cap = caps[other_group % n_caps]
            if other_cap is not None and other_estimate > other_cap:
                other_estimate = other_cap
            views[other_group] = other_estimate
        if self.hysteresis is not None:
            self._disarmed[server_id] = dict.fromkeys(views, True)
