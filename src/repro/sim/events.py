"""Typed auxiliary events: periodic work interleaved with the request stream.

The paper's central claim is that caching decisions should track *measured*
network bandwidth.  Request-driven passive estimation
(:class:`~repro.network.measurement.PassiveEstimator`) only observes a path
when a request happens to use it, so an estimate can go stale for exactly
the unpopular servers whose bandwidth matters most when one of their
objects is finally requested.  This module adds the out-of-band half of the
measurement story: **typed periodic events** that fire *between* requests,
starting with :class:`BandwidthRemeasurement`, which samples the active
:class:`~repro.network.path.NetworkPath` distributions on a configurable
cadence and feeds the samples to the run's estimator and to a
:class:`~repro.network.measurement.BandwidthMeasurementLog`.

Three pieces:

* :class:`PeriodicEvent` — the base class: an interval, a firing window,
  and a tie-break priority relative to the request stream.
* :class:`BandwidthRemeasurement` — one periodic probe stream for one
  cache-to-server path, drawing from its own random generator so the
  request stream's bandwidth draws are untouched (this is what keeps a
  run without auxiliary events bit-identical to one that never had them).
* :class:`AuxiliarySchedule` — a deterministic merge heap the simulator's
  replay driver interleaves with the request columns by ``(time,
  priority)``.

Cadence is configured through :class:`RemeasurementConfig`, carried on
:attr:`repro.sim.config.SimulationConfig.remeasurement`; see
``docs/events.md`` for the full semantics and a worked example.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, check_scalar, check_scalars

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.network.measurement import BandwidthMeasurementLog, PassiveEstimator
    from repro.network.path import NetworkPath
    from repro.network.topology import DeliveryTopology

#: Entropy tag mixed into the re-measurement generator's seed so its stream
#: never collides with the request stream's (which is seeded with the bare
#: config seed).
_REMEASUREMENT_STREAM_TAG = 0x52454D


@dataclass(frozen=True)
class RemeasurementConfig:
    """Cadence configuration for periodic bandwidth re-measurement.

    Attributes
    ----------
    interval:
        Default seconds between successive re-measurements of each path.
        The first measurement of a path fires one interval after
        ``start_time`` (a probe takes one interval to produce its first
        answer), then every ``interval`` seconds until ``end_time``.
    per_path_intervals:
        Per-path cadence overrides, keyed by origin-server id.  Paths not
        listed use ``interval``.
    probing_clients:
        Number of independent per-client probe streams per path.  Client
        ``k`` of ``n`` fires at phase offset ``interval * (k + 1) / n``, so
        several clients probing the same path interleave evenly instead of
        stampeding; the effective per-path cadence is ``interval / n``.
    paths:
        When given, only these origin-server ids are re-measured; ``None``
        (default) measures every path in the topology.
    start_time, end_time:
        Firing window in simulation seconds.  Defaults (``None``) span the
        replayed trace: measurements start at the trace's first timestamp
        and stop at its last.  A cadence longer than the window simply
        never fires.
    seed:
        Extra entropy mixed into the re-measurement random stream (on top
        of the simulation seed), so ablations can redraw the probe noise
        without disturbing the request stream.
    priority:
        Tie-break against requests that share a timestamp: negative fires
        before the request, positive after.  Zero is reserved for the
        request stream and rejected.
    """

    interval: float
    per_path_intervals: Mapping[int, float] = field(default_factory=dict)
    probing_clients: int = 1
    paths: Optional[Sequence[int]] = None
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    seed: int = 0
    priority: int = -1

    def __post_init__(self) -> None:
        check_scalars(self, Real, "interval")
        check_scalars(self, Real, "start_time", "end_time", optional=True)
        check_scalars(self, Integral, "probing_clients", "seed", "priority")
        if not self.interval > 0:
            raise ConfigurationError(
                f"remeasurement interval must be positive, got {self.interval}"
            )
        if not isinstance(self.per_path_intervals, Mapping):
            raise ConfigurationError(
                f"per_path_intervals must be a mapping, got {self.per_path_intervals!r}"
            )
        for server_id, interval in self.per_path_intervals.items():
            check_scalar("per_path_intervals key", server_id, Integral)
            check_scalar(f"per_path_intervals[{server_id}]", interval, Real)
            if not interval > 0:
                raise ConfigurationError(
                    f"remeasurement interval for server {server_id} must be "
                    f"positive, got {interval}"
                )
        paths = () if self.paths is None else self.paths
        if not isinstance(paths, Iterable):
            raise ConfigurationError(f"paths must be a sequence, got {paths!r}")
        for index, server_id in enumerate(paths):
            check_scalar(f"paths[{index}]", server_id, Integral)
        if self.probing_clients <= 0:
            raise ConfigurationError(
                f"probing_clients must be positive, got {self.probing_clients}"
            )
        if self.priority == 0:
            raise ConfigurationError(
                "remeasurement priority 0 is reserved for the request stream; "
                "use a negative (fire first) or positive (fire last) value"
            )
        if (
            self.start_time is not None
            and self.end_time is not None
            and self.end_time < self.start_time
        ):
            raise ConfigurationError(
                f"remeasurement window is empty: end_time {self.end_time} "
                f"precedes start_time {self.start_time}"
            )

    def interval_for(self, server_id: int) -> float:
        """Cadence for one path: the per-path override or the default."""
        return float(self.per_path_intervals.get(server_id, self.interval))


class PeriodicEvent:
    """A typed auxiliary event that fires every ``interval`` seconds.

    Subclasses implement :meth:`fire`.  The event owns its own clock state
    (``next_time``); :class:`AuxiliarySchedule` keeps it on a merge heap
    and advances it after each firing.

    ``priority`` orders the event against requests sharing its timestamp
    (negative fires before the request, positive after); zero is reserved
    for the request stream so the merge is never ambiguous.
    """

    __slots__ = ("interval", "next_time", "end_time", "priority")

    def __init__(
        self,
        interval: float,
        first_time: float,
        end_time: float,
        priority: int = -1,
    ):
        if interval <= 0:
            raise ConfigurationError(f"interval must be positive, got {interval}")
        if priority == 0:
            raise ConfigurationError(
                "priority 0 is reserved for the request stream"
            )
        self.interval = float(interval)
        self.next_time = float(first_time)
        self.end_time = float(end_time)
        self.priority = int(priority)

    def fire(self, now: float) -> None:
        """Perform the event's work at simulation time ``now``."""
        raise NotImplementedError

    def advance(self) -> Optional[float]:
        """Move to the next firing time; ``None`` once past ``end_time``."""
        self.next_time += self.interval
        if self.next_time > self.end_time:
            return None
        return self.next_time


class BandwidthRemeasurement(PeriodicEvent):
    """Periodically re-measure one cache-to-server path's bandwidth.

    Each firing consumes one sample from the path's bandwidth distribution
    — the base bandwidth modulated by the path's variability model, exactly
    what a completed probe transfer would have observed — records it in the
    run's :class:`~repro.network.measurement.BandwidthMeasurementLog`, and
    feeds it to the :class:`~repro.network.measurement.PassiveEstimator`
    (when the run uses passive bandwidth knowledge), so estimator-driven
    policies see bandwidth shifts that happen *between* requests.

    Samples are pre-drawn in small batches
    (:meth:`~repro.network.path.NetworkPath.sample_observed`), so a firing
    usually costs a list index instead of a size-1 numpy draw; batch
    refills happen in firing order from the stream's own generator, so
    results stay deterministic.  The event never draws from the request
    stream's generator: with re-measurement disabled the request draws are
    untouched.
    """

    __slots__ = ("path", "estimator", "log", "rng", "listener", "_samples", "_sample_pos")

    #: Samples pre-drawn per batch refill; bounded so short-lived streams
    #: do not waste draws (the stream rng is private, so overdraw is
    #: harmless) while long-lived ones amortise the numpy call.
    PROBE_BATCH = 32

    def __init__(
        self,
        path: "NetworkPath",
        interval: float,
        first_time: float,
        end_time: float,
        rng: np.random.Generator,
        estimator: Optional["PassiveEstimator"] = None,
        log: Optional["BandwidthMeasurementLog"] = None,
        priority: int = -1,
        listener: Optional["ReactiveRekeyer"] = None,
    ):
        super().__init__(interval, first_time, end_time, priority)
        self.path = path
        self.estimator = estimator
        self.log = log
        self.rng = rng
        self.listener = listener
        self._samples: List[float] = []
        self._sample_pos = 0

    def fire(self, now: float) -> None:
        """Feed the next bandwidth sample to the log and the estimator."""
        pos = self._sample_pos
        if pos >= len(self._samples):
            self._samples = self.path.sample_observed(
                self.rng, self.PROBE_BATCH
            ).tolist()
            pos = 0
        sample = self._samples[pos]
        self._sample_pos = pos + 1
        server_id = self.path.server_id
        if self.log is not None:
            self.log.record(now, server_id, sample)
        if self.estimator is not None:
            listener = self.listener
            if listener is not None:
                # The anchor must seed from the estimate the policy actually
                # keyed at, i.e. the value *before* this sample lands — so
                # the very first probe can already trigger a re-key.
                prior = self.estimator.estimate(server_id)
                self.estimator.observe(server_id, sample)
                listener.notify(now, server_id, prior)
            else:
                self.estimator.observe(server_id, sample)


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

    * **probe-driven** — :class:`BandwidthRemeasurement` firings call
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
    against its own cap and its own anchor — a single global cap (the old
    behaviour, still expressible as ``bandwidth_cap=``) cannot represent
    what a slower group's requests actually keyed at.  With
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
        bandwidth_cap: Optional[float] = None,
        group_caps: Optional[Sequence[float]] = None,
        hysteresis: Optional[float] = None,
        rekey_cap: Optional[int] = None,
        group_estimation: bool = False,
    ):
        if threshold <= 0:
            raise ConfigurationError(
                f"reactive threshold must be positive, got {threshold}"
            )
        if bandwidth_cap is not None:
            if bandwidth_cap <= 0:
                raise ConfigurationError(
                    f"bandwidth_cap must be positive, got {bandwidth_cap}"
                )
            if group_caps is not None:
                raise ConfigurationError(
                    "give either the legacy single bandwidth_cap or per-group "
                    "group_caps, not both"
                )
            group_caps = (bandwidth_cap,)
        if group_caps is not None:
            group_caps = tuple(float(cap) for cap in group_caps)
            if not group_caps:
                raise ConfigurationError("group_caps must be non-empty when given")
            for cap in group_caps:
                if cap <= 0:
                    raise ConfigurationError(
                        f"group caps must be positive, got {cap}"
                    )
        if hysteresis is not None and not 0.0 < hysteresis <= threshold:
            raise ConfigurationError(
                f"hysteresis must be in (0, threshold={threshold}], got {hysteresis}"
            )
        if rekey_cap is not None and rekey_cap <= 0:
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

    @property
    def bandwidth_cap(self) -> Optional[float]:
        """Largest believed bandwidth any request holds (legacy view)."""
        return self._max_cap

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


class AuxiliarySchedule:
    """A deterministic collection of :class:`PeriodicEvent` streams.

    :meth:`begin` / :meth:`fire_before` / :meth:`drain` expose the streams
    as a ``(time, priority, sequence)`` merge heap for the simulator's
    replay driver, which interleaves them with the trace's numpy columns
    directly: ties in time are broken by priority (the request stream is
    priority 0), then by scheduling order.  :attr:`fired` counts total
    firings.
    """

    def __init__(self, events: Sequence[PeriodicEvent] = ()):
        self._events: List[PeriodicEvent] = list(events)
        self._heap: List[Tuple[float, int, int, PeriodicEvent]] = []
        self._counter = itertools.count()
        self.fired = 0

    def __len__(self) -> int:
        return len(self._events)

    def __bool__(self) -> bool:
        return bool(self._events)

    @property
    def events(self) -> List[PeriodicEvent]:
        """The registered event streams (in scheduling order)."""
        return list(self._events)

    def begin(self) -> List[Tuple[float, int, int, PeriodicEvent]]:
        """Build the merge heap from every stream's next firing time.

        Returns the heap list itself so the replay loop can test "any event
        due before this request?" with one truthiness check + tuple compare
        instead of a method call per request — the schedule is usually
        empty or quiescent between firings.
        """
        self._heap = [
            (event.next_time, event.priority, next(self._counter), event)
            for event in self._events
            if event.next_time <= event.end_time
        ]
        heapq.heapify(self._heap)
        return self._heap

    def fire_before(self, time: float, priority: int = 0) -> None:
        """Fire every event ordered before ``(time, priority)``.

        The replay driver calls this with a request's timestamp (and the
        request stream's priority, 0), firing everything due first.
        """
        heap = self._heap
        while heap and (heap[0][0], heap[0][1]) < (time, priority):
            fire_time, event_priority, _, event = heapq.heappop(heap)
            event.fire(fire_time)
            self.fired += 1
            next_time = event.advance()
            if next_time is not None:
                heapq.heappush(
                    heap, (next_time, event_priority, next(self._counter), event)
                )

    def drain(self) -> None:
        """Fire everything left on the heap (events after the last request)."""
        self.fire_before(float("inf"), priority=0)


def build_remeasurement_events(
    config: RemeasurementConfig,
    topology: "DeliveryTopology",
    estimator: Optional["PassiveEstimator"],
    log: Optional["BandwidthMeasurementLog"],
    trace_start: float,
    trace_end: float,
    base_seed: int,
    listener: Optional[ReactiveRekeyer] = None,
) -> List[BandwidthRemeasurement]:
    """Expand a :class:`RemeasurementConfig` into concrete event streams.

    One :class:`BandwidthRemeasurement` stream is built per ``(path,
    probing client)`` pair, phase-staggered so several clients probing the
    same path interleave evenly.  All streams share one random generator
    seeded independently of the simulation's request stream (mixing
    ``base_seed``, ``config.seed``, and a fixed stream tag), and firing
    order is deterministic, so results are reproducible across process
    boundaries.  ``listener`` (a :class:`ReactiveRekeyer`) is
    attached to every stream so estimate shifts can re-key the policy.
    """
    start = config.start_time if config.start_time is not None else float(trace_start)
    end = config.end_time if config.end_time is not None else float(trace_end)
    known = set(topology.paths.server_ids())
    unknown_overrides = sorted(set(config.per_path_intervals) - known)
    if unknown_overrides:
        raise ConfigurationError(
            "remeasurement per_path_intervals names unknown server ids: "
            f"{unknown_overrides[:5]}"
        )
    if config.paths is not None:
        wanted = set(int(server_id) for server_id in config.paths)
        unknown = sorted(wanted - known)
        if unknown:
            raise ConfigurationError(
                f"remeasurement config names unknown server ids: {unknown[:5]}"
            )
    else:
        wanted = None

    rng = np.random.default_rng(
        (_REMEASUREMENT_STREAM_TAG, base_seed & 0xFFFFFFFF, config.seed & 0xFFFFFFFF)
    )
    events: List[BandwidthRemeasurement] = []
    clients = config.probing_clients
    for server_id in topology.paths.server_ids():
        if wanted is not None and server_id not in wanted:
            continue
        path = topology.paths.get(server_id)
        interval = config.interval_for(server_id)
        for client_index in range(clients):
            first = start + interval * (client_index + 1) / clients
            if first > end:
                continue  # cadence longer than the window: never fires
            events.append(
                BandwidthRemeasurement(
                    path=path,
                    interval=interval,
                    first_time=first,
                    end_time=end,
                    rng=rng,
                    estimator=estimator,
                    log=log,
                    priority=config.priority,
                    listener=listener,
                )
            )
    return events
