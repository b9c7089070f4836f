"""Fault injection and graceful degradation on the delivery path.

The paper's premise is that cache utility depends on the network path to
the origin server — and PR 4/5's passive/reactive machinery has only ever
seen *gradual* bandwidth shifts.  This module models the adversarial cases
a production proxy actually faces:

* **origin-server outages** — the cache-to-server path delivers nothing
  for the duration of the episode,
* **per-group last-mile link failures** — one client group's cache-to-
  client hop goes dark,
* **bandwidth flaps** — either hop's bandwidth collapses to a fraction of
  its normal value and later recovers,

plus a **fetch-failure model** on the delivery path: each fetch attempt
carries a timeout derived from the request's *expected* transfer time
(an attempt whose effective bandwidth factor falls below
``1 / timeout_factor`` would take more than ``timeout_factor`` times the
unfaulted transfer time and is treated as timed out), failed attempts are
retried a bounded number of times with exponential backoff, and when all
attempts fail the cache **serves stale** — an unreachable origin's cached
prefix is streamed with a staleness counter instead of erroring.

Episodes are described by :class:`FaultEpisode`, bundled (scripted and/or
stochastically generated) by :class:`FaultConfig` /
:class:`FaultSchedule`, and applied at replay time by
:class:`FaultInjector`.  The injector is deliberately *outside* the
request stream's random generator: scripted and stochastic episodes draw
from a dedicated stream (:data:`_FAULT_STREAM_TAG`), so with
``faults=None`` the simulator's arithmetic — and with faults enabled the
request stream's bandwidth draws — are untouched.  The replay kernel
calls :meth:`FaultInjector.intercept` once per request, at its *faults*
stage (``tests/test_sim_faults.py`` pins the results to goldens).

Outages are visible to the learning machinery as *bandwidth collapse*:
while an origin is unreachable the passive estimator is fed the
:data:`~repro.network.path.BANDWIDTH_FLOOR` sample a completely stalled
transfer would report, so :class:`~repro.sim.events.ReactiveRekeyer`
observes the collapse (and the recovery) exactly as it would a genuine
shift — fault storms are the stress test for hysteresis and re-key caps.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, check_scalars
from repro.network.path import BANDWIDTH_FLOOR

#: Episode kinds: the two origin-side faults target a ``server_id`` (or all
#: servers when ``None``); the two link-side faults target a client-group
#: ``group_id`` (or all groups when ``None``).
FAULT_KINDS = ("origin-outage", "bandwidth-flap", "link-down", "link-flap")

_ORIGIN_KINDS = ("origin-outage", "bandwidth-flap")
_LINK_KINDS = ("link-down", "link-flap")

#: Entropy tag mixed into the fault stream's seed so stochastic episode
#: generation never collides with the request stream (bare config seed),
#: the re-measurement stream, or the client-cloud stream.
_FAULT_STREAM_TAG = 0x464C54

#: ``intercept`` disposition codes: the fetch succeeded (possibly degraded
#: and/or after retries) or every attempt timed out.
FETCH_OK = 0
FETCH_FAILED = 1


def stale_quality(
    cached: float, duration: float, bitrate: float, quantum: float
) -> float:
    """Stream quality of a stale serve: the cached prefix is all there is.

    With the origin unreachable, the supported rate is the cached prefix
    spread over the playout duration — no origin stream contributes.  The
    quantisation mirrors the layered-encoding arithmetic of
    :meth:`~repro.workload.catalog.MediaObject.stream_quality`.
    """
    supported_rate = cached / duration
    fraction = supported_rate / bitrate
    if fraction >= 1.0:
        return 1.0
    return int(fraction / quantum + 1e-9) * quantum


@dataclass(frozen=True)
class FaultEpisode:
    """One fault episode: a half-open time interval ``[start, end)``.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.  ``"origin-outage"`` and
        ``"bandwidth-flap"`` degrade the cache-to-server hop of
        ``server_id``; ``"link-down"`` and ``"link-flap"`` degrade the
        cache-to-client hop of client group ``group_id``.
    start, end:
        Episode interval in trace time (seconds); active for
        ``start <= t < end``.
    server_id:
        Target origin server for origin-side kinds.  ``None`` hits every
        server (a full upstream outage).
    group_id:
        Target client group for link-side kinds.  ``None`` hits every
        group.
    factor:
        Bandwidth multiplier while the episode is active.  Outage kinds
        (``"origin-outage"``, ``"link-down"``) require ``0.0``; flap kinds
        require a factor in ``(0, 1)``.  Overlapping episodes on the same
        target compose by taking the *worst* (minimum) factor.
    """

    kind: str
    start: float
    end: float
    server_id: Optional[int] = None
    group_id: Optional[int] = None
    factor: float = 0.0

    def __post_init__(self) -> None:
        check_scalars(self, str, "kind")
        check_scalars(self, Real, "start", "end", "factor")
        check_scalars(self, Integral, "server_id", "group_id", optional=True)
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if not self.start < self.end:
            raise ConfigurationError(
                f"fault episode must have start < end, got [{self.start}, {self.end})"
            )
        if self.kind in _ORIGIN_KINDS and self.group_id is not None:
            raise ConfigurationError(
                f"{self.kind} episodes target a server_id, not a group_id"
            )
        if self.kind in _LINK_KINDS and self.server_id is not None:
            raise ConfigurationError(
                f"{self.kind} episodes target a group_id, not a server_id"
            )
        if self.kind in ("origin-outage", "link-down"):
            if self.factor != 0.0:
                raise ConfigurationError(
                    f"{self.kind} episodes must have factor 0.0, got {self.factor}"
                )
        elif not 0.0 < self.factor < 1.0:
            raise ConfigurationError(
                f"{self.kind} episodes need a factor in (0, 1), got {self.factor}"
            )

    @property
    def is_origin(self) -> bool:
        """Whether this episode degrades the cache-to-server hop."""
        return self.kind in _ORIGIN_KINDS

    @property
    def duration(self) -> float:
        """Episode length in seconds."""
        return self.end - self.start


@dataclass(frozen=True)
class FaultSchedule:
    """A resolved, time-sorted collection of fault episodes.

    Produced by :meth:`FaultConfig.build_schedule`, which expands the
    scripted episodes plus any stochastically generated ones against a
    concrete topology; all targets are validated against it.
    """

    episodes: Tuple[FaultEpisode, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "episodes",
            tuple(sorted(self.episodes, key=lambda ep: (ep.start, ep.end))),
        )

    def __bool__(self) -> bool:
        return bool(self.episodes)

    def __len__(self) -> int:
        return len(self.episodes)

    @property
    def origin_episodes(self) -> Tuple[FaultEpisode, ...]:
        """Episodes degrading the cache-to-server hop."""
        return tuple(ep for ep in self.episodes if ep.is_origin)

    @property
    def link_episodes(self) -> Tuple[FaultEpisode, ...]:
        """Episodes degrading the cache-to-client hop."""
        return tuple(ep for ep in self.episodes if not ep.is_origin)

    def window(self) -> Optional[Tuple[float, float]]:
        """Earliest start and latest end across episodes (None when empty)."""
        if not self.episodes:
            return None
        return (
            min(ep.start for ep in self.episodes),
            max(ep.end for ep in self.episodes),
        )


@dataclass(frozen=True)
class FaultConfig:
    """Fault-injection settings of one simulation run.

    Scripted ``episodes`` are replayed as given; the ``random_*`` knobs
    additionally draw that many stochastic episodes (uniform start inside
    the trace window, exponential duration with mean ``mean_duration_s``,
    uniformly chosen target) from a dedicated random stream seeded by
    ``(stream tag, seed, simulation seed)`` — fault generation never
    perturbs the request stream's bandwidth draws.

    The fetch model applies to every request while any fault degrades its
    hops: an attempt whose effective bandwidth factor is below
    ``1 / timeout_factor`` would exceed ``timeout_factor x`` the expected
    transfer time and times out; up to ``max_retries`` retries follow, the
    ``k``-th waiting ``backoff_base_s * 2**(k-1)`` seconds (deterministic
    exponential backoff — no jitter, so replays are deterministic).  When
    all attempts fail, ``serve_stale`` streams the cached prefix (counted
    as a stale serve) instead of failing the request.

    ``recovery_fraction`` parameterises the mean-time-to-recovery metric:
    after an origin outage ends, its estimate counts as recovered at the
    first request whose believed bandwidth has climbed back to this
    fraction of the pre-outage estimate.
    """

    episodes: Tuple[FaultEpisode, ...] = ()
    random_origin_outages: int = 0
    random_bandwidth_flaps: int = 0
    random_link_flaps: int = 0
    mean_duration_s: float = 600.0
    severity: float = 0.1
    seed: int = 0
    timeout_factor: float = 4.0
    max_retries: int = 2
    backoff_base_s: float = 1.0
    serve_stale: bool = True
    recovery_fraction: float = 0.8

    def __post_init__(self) -> None:
        if not isinstance(self.episodes, (tuple, list)) or not all(
            isinstance(episode, FaultEpisode) for episode in self.episodes
        ):
            raise ConfigurationError(
                f"episodes must be a tuple of FaultEpisode, got {self.episodes!r}"
            )
        object.__setattr__(self, "episodes", tuple(self.episodes))
        check_scalars(
            self, Integral,
            "random_origin_outages", "random_bandwidth_flaps", "random_link_flaps",
            "seed", "max_retries",
        )
        check_scalars(
            self, Real,
            "mean_duration_s", "severity", "timeout_factor", "backoff_base_s",
            "recovery_fraction",
        )
        check_scalars(self, bool, "serve_stale")
        for name in (
            "random_origin_outages",
            "random_bandwidth_flaps",
            "random_link_flaps",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(
                    f"{name} must be non-negative, got {getattr(self, name)}"
                )
        if not self.mean_duration_s > 0:
            raise ConfigurationError(
                f"mean_duration_s must be positive, got {self.mean_duration_s}"
            )
        if not 0.0 < self.severity < 1.0:
            raise ConfigurationError(
                f"severity must be in (0, 1), got {self.severity}"
            )
        if not self.timeout_factor > 1.0:
            raise ConfigurationError(
                f"timeout_factor must be > 1, got {self.timeout_factor}"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be non-negative, got {self.max_retries}"
            )
        if not self.backoff_base_s > 0:
            raise ConfigurationError(
                f"backoff_base_s must be positive, got {self.backoff_base_s}"
            )
        if not 0.0 < self.recovery_fraction <= 1.0:
            raise ConfigurationError(
                f"recovery_fraction must be in (0, 1], got {self.recovery_fraction}"
            )

    @property
    def backoff_budget_s(self) -> float:
        """Worst-case total wait before a fetch is declared failed."""
        if self.max_retries == 0:
            return 0.0
        return self.backoff_base_s * ((1 << self.max_retries) - 1)

    def build_schedule(
        self,
        topology,
        trace_start: float,
        trace_end: float,
        base_seed: int = 0,
    ) -> FaultSchedule:
        """Resolve scripted + stochastic episodes against a topology.

        Scripted episode targets are validated (a named ``server_id`` must
        have a registered path; a named ``group_id`` must be a modeled
        client group); stochastic episodes draw their targets uniformly
        from the topology's servers/groups.  ``base_seed`` is the
        simulation seed, mixed into the fault stream so two runs differing
        only in simulation seed see different stochastic fault timings.
        """
        server_ids, group_count = topology.fault_domains()
        for episode in self.episodes:
            if episode.server_id is not None and episode.server_id not in set(
                server_ids
            ):
                raise ConfigurationError(
                    f"fault episode targets server {episode.server_id}, which "
                    "has no registered path"
                )
            if episode.group_id is not None and not (
                0 <= episode.group_id < group_count
            ):
                raise ConfigurationError(
                    f"fault episode targets client group {episode.group_id}, "
                    f"but the topology models {group_count} group(s)"
                )
        if self.random_link_flaps and group_count == 0:
            raise ConfigurationError(
                "random_link_flaps requires a modeled client cloud "
                "(SimulationConfig.client_clouds); the unmodeled abundant "
                "last mile has no links to flap"
            )
        episodes: List[FaultEpisode] = list(self.episodes)
        total_random = (
            self.random_origin_outages
            + self.random_bandwidth_flaps
            + self.random_link_flaps
        )
        if total_random:
            rng = np.random.default_rng(
                (
                    _FAULT_STREAM_TAG,
                    self.seed & 0xFFFFFFFF,
                    base_seed & 0xFFFFFFFF,
                )
            )
            span = max(trace_end - trace_start, 0.0)
            for kind, count in (
                ("origin-outage", self.random_origin_outages),
                ("bandwidth-flap", self.random_bandwidth_flaps),
                ("link-flap", self.random_link_flaps),
            ):
                for _ in range(count):
                    start = trace_start + float(rng.uniform(0.0, span))
                    duration = max(float(rng.exponential(self.mean_duration_s)), 1.0)
                    if kind in _ORIGIN_KINDS:
                        target = int(server_ids[int(rng.integers(len(server_ids)))])
                        episodes.append(
                            FaultEpisode(
                                kind=kind,
                                start=start,
                                end=start + duration,
                                server_id=target,
                                factor=0.0 if kind == "origin-outage" else self.severity,
                            )
                        )
                    else:
                        target = int(rng.integers(group_count))
                        episodes.append(
                            FaultEpisode(
                                kind=kind,
                                start=start,
                                end=start + duration,
                                group_id=target,
                                factor=self.severity,
                            )
                        )
        return FaultSchedule(tuple(episodes))


@dataclass(frozen=True)
class FaultReport:
    """Whole-run fault accounting attached to a simulation result.

    Unlike :class:`~repro.sim.metrics.SimulationMetrics` (which counts
    only the measurement phase), the report covers the entire replay
    including warm-up — an outage during warm-up still shapes the cache.

    ``recoveries`` lists ``(server_id, seconds)`` pairs: for each origin
    outage, how long after the episode ended the passive estimate climbed
    back to ``recovery_fraction`` of its pre-outage value.  Episodes whose
    estimate never recovered before the trace ended are counted in
    ``unrecovered``; ``mean_time_to_recovery_s`` is ``None`` when no
    episode recovered (or the run had no passive estimator).
    """

    episodes: int = 0
    origin_episodes: int = 0
    link_episodes: int = 0
    degraded_requests: int = 0
    retried_requests: int = 0
    total_retries: int = 0
    failed_fetches: int = 0
    stale_serves: int = 0
    failed_requests: int = 0
    recoveries: Tuple[Tuple[int, float], ...] = ()
    unrecovered: int = 0

    @property
    def mean_time_to_recovery_s(self) -> Optional[float]:
        """Mean estimate-recovery time across recovered outages (seconds)."""
        if not self.recoveries:
            return None
        return sum(seconds for _, seconds in self.recoveries) / len(self.recoveries)

    def as_dict(self) -> Dict[str, float]:
        """Flatten the report for tables and JSON."""
        mttr = self.mean_time_to_recovery_s
        return {
            "episodes": float(self.episodes),
            "origin_episodes": float(self.origin_episodes),
            "link_episodes": float(self.link_episodes),
            "degraded_requests": float(self.degraded_requests),
            "retried_requests": float(self.retried_requests),
            "total_retries": float(self.total_retries),
            "failed_fetches": float(self.failed_fetches),
            "stale_serves": float(self.stale_serves),
            "failed_requests": float(self.failed_requests),
            "recovered_outages": float(len(self.recoveries)),
            "unrecovered_outages": float(self.unrecovered),
            "mean_time_to_recovery_s": mttr if mttr is not None else float("nan"),
        }


class FaultInjector:
    """Apply a :class:`FaultSchedule` to the replay, one request at a time.

    The replay kernel calls :meth:`intercept` for every request, at its
    *faults* stage.  The injector keeps a monotone pointer over the
    schedule's start/end boundaries (requests arrive in non-decreasing
    time) and a count of the episodes active at the pointer, so when no
    episode is active a request costs the boundary comparison and two
    truth tests (pending recoveries, active count); the factor lists are
    scanned only while an episode is active.

    ``intercept`` returns ``None`` when the request is completely
    untouched — the loops then run the exact pre-change arithmetic — or a
    disposition tuple ``(code, observed, origin_sample, waited, retries)``:

    * ``code`` — :data:`FETCH_OK` (served, possibly degraded and/or after
      retries) or :data:`FETCH_FAILED` (all attempts timed out),
    * ``observed`` — delivered bandwidth (KB/s) after applying the active
      factors (the bandwidth floor a stalled transfer reports on failure),
    * ``origin_sample`` — the throughput sample the passive estimator
      should observe for the origin hop (collapses to the floor during an
      outage, which is how the reactive machinery sees the fault),
    * ``waited`` — seconds spent in retry backoff before the final
      attempt (0.0 for a first-attempt serve),
    * ``retries`` — number of retry attempts consumed.

    On :data:`FETCH_FAILED` the caller decides between a stale serve and
    a hard failure (it knows the cached prefix) and reports the outcome
    back through :meth:`record_unserved`.
    """

    def __init__(
        self,
        schedule: FaultSchedule,
        config: FaultConfig,
        estimator=None,
    ):
        self.schedule = schedule
        self.config = config
        self._estimator = estimator
        self._min_factor = 1.0 / config.timeout_factor
        self._max_retries = config.max_retries
        self._backoff_base = config.backoff_base_s
        self.serve_stale = config.serve_stale

        # Per-target episode intervals, for point-in-time factor queries
        # (retry attempts evaluate factors at future times).
        self._server_intervals: Dict[Optional[int], List[FaultEpisode]] = {}
        self._group_intervals: Dict[Optional[int], List[FaultEpisode]] = {}
        for episode in schedule.episodes:
            if episode.is_origin:
                self._server_intervals.setdefault(episode.server_id, []).append(
                    episode
                )
            else:
                self._group_intervals.setdefault(episode.group_id, []).append(episode)

        # Boundary stream for the monotone pointer: ends sort before
        # starts at equal times ([start, end) interval semantics).
        boundaries: List[Tuple[float, int, int, FaultEpisode]] = []
        for index, episode in enumerate(schedule.episodes):
            boundaries.append((episode.end, 0, index, episode))
            boundaries.append((episode.start, 1, index, episode))
        boundaries.sort(key=lambda item: (item[0], item[1], item[2]))
        self._boundaries = boundaries
        self._boundary_pos = 0
        self._next_boundary = boundaries[0][0] if boundaries else float("inf")

        # Active factors per concrete target; the None key means
        # "every server/group" and is folded in at query time.
        self._active_server: Dict[Optional[int], List[float]] = {}
        self._active_group: Dict[Optional[int], List[float]] = {}
        #: Episodes started and not yet ended at the pointer time; while
        #: zero, intercept returns before scanning the factor lists.
        self._active_count = 0

        # Mean-time-to-recovery bookkeeping for origin outages.
        self._prefault_estimates: Dict[Tuple[int, int], float] = {}
        self._pending_recoveries: Dict[int, List[Tuple[float, float]]] = {}
        self._recoveries: List[Tuple[int, float]] = []

        # Whole-run counters (the measurement-phase view lives in
        # SimulationMetrics; this one includes warm-up).
        self.degraded_requests = 0
        self.retried_requests = 0
        self.total_retries = 0
        self.failed_fetches = 0
        self.stale_serves = 0
        self.failed_requests = 0

        #: Optional :class:`repro.obs.tracing.TraceSink` the simulator
        #: attaches for the duration of one traced run; when set, episode
        #: boundaries, retries, and failed fetches emit trace events.
        self.trace = None

    # -- boundary processing -------------------------------------------
    def _advance(self, now: float) -> None:
        """Process every episode boundary at or before ``now``, in order."""
        boundaries = self._boundaries
        pos = self._boundary_pos
        count = len(boundaries)
        active_count = self._active_count
        while pos < count and boundaries[pos][0] <= now:
            _, action, index, episode = boundaries[pos]
            pos += 1
            if episode.is_origin:
                active = self._active_server.setdefault(episode.server_id, [])
            else:
                active = self._active_group.setdefault(episode.group_id, [])
            if action == 1:  # start
                active.append(episode.factor)
                active_count += 1
                if self.trace is not None:
                    self.trace.emit(
                        "info",
                        "fault-episode-start",
                        episode.start,
                        kind=episode.kind,
                        server=episode.server_id,
                        group=episode.group_id,
                        factor=episode.factor,
                        until=episode.end,
                    )
                if episode.kind == "origin-outage" and self._estimator is not None:
                    for server in self._servers_of(episode):
                        self._prefault_estimates[(index, server)] = (
                            self._estimator.estimate(server)
                        )
            else:  # end
                active.remove(episode.factor)
                active_count -= 1
                if self.trace is not None:
                    self.trace.emit(
                        "info",
                        "fault-episode-end",
                        episode.end,
                        kind=episode.kind,
                        server=episode.server_id,
                        group=episode.group_id,
                        factor=episode.factor,
                    )
                if episode.kind == "origin-outage" and self._estimator is not None:
                    for server in self._servers_of(episode):
                        snapshot = self._prefault_estimates.pop(
                            (index, server), None
                        )
                        if snapshot is not None and snapshot > 0.0:
                            self._pending_recoveries.setdefault(server, []).append(
                                (
                                    episode.end,
                                    self.config.recovery_fraction * snapshot,
                                )
                            )
        self._boundary_pos = pos
        self._active_count = active_count
        self._next_boundary = boundaries[pos][0] if pos < count else float("inf")

    def _servers_of(self, episode: FaultEpisode) -> Tuple[int, ...]:
        """Concrete servers an origin episode covers (for MTTR snapshots)."""
        if episode.server_id is not None:
            return (episode.server_id,)
        if self._estimator is None:
            return ()
        return tuple(self._estimator.known_servers())

    # -- factor queries ------------------------------------------------
    def _server_factor_now(self, server_id: int) -> float:
        """Effective origin factor for a server at the current pointer time."""
        worst = 1.0
        active = self._active_server.get(server_id)
        if active:
            worst = min(active)
        broadcast = self._active_server.get(None)
        if broadcast:
            candidate = min(broadcast)
            if candidate < worst:
                worst = candidate
        return worst

    def _group_factor_now(self, group_id: Optional[int]) -> float:
        """Effective last-mile factor for a client group right now."""
        if group_id is None:
            return 1.0
        worst = 1.0
        active = self._active_group.get(group_id)
        if active:
            worst = min(active)
        broadcast = self._active_group.get(None)
        if broadcast:
            candidate = min(broadcast)
            if candidate < worst:
                worst = candidate
        return worst

    def _factor_at(
        self,
        intervals: Dict[Optional[int], List[FaultEpisode]],
        target: Optional[int],
        t: float,
    ) -> float:
        """Effective factor for ``target`` at an arbitrary (future) time."""
        worst = 1.0
        for key in (target, None):
            episodes = intervals.get(key)
            if not episodes:
                continue
            for episode in episodes:
                if episode.start <= t < episode.end and episode.factor < worst:
                    worst = episode.factor
        return worst

    # -- the per-request hook ------------------------------------------
    def intercept(
        self,
        now: float,
        server_id: int,
        group_id: Optional[int],
        origin_draw: float,
        lm_draw: Optional[float],
    ) -> Optional[Tuple[int, float, float, float, int]]:
        """Run one request's fetch through the fault model.

        ``origin_draw`` is the request's unfaulted origin-hop bandwidth
        draw; ``lm_draw`` the unfaulted last-mile draw (``None`` when the
        client side is unmodeled).  Returns ``None`` when no active fault
        touches this request (the common case), otherwise a disposition
        tuple — see the class docstring.
        """
        if now >= self._next_boundary:
            self._advance(now)
        if self._pending_recoveries:
            self._check_recovery(now, server_id)
        if not self._active_count:
            return None
        f_server = self._server_factor_now(server_id)
        f_group = self._group_factor_now(group_id)
        if f_server >= 1.0 and f_group >= 1.0:
            return None
        f_effective = f_server if f_server < f_group else f_group
        if f_effective >= self._min_factor:
            # Degraded but inside the timeout: served at reduced bandwidth.
            self.degraded_requests += 1
            return self._deliver(origin_draw, lm_draw, f_server, f_group, 0.0, 0)
        # First attempt timed out; bounded retries with exponential backoff.
        for attempt in range(1, self._max_retries + 1):
            waited = self._backoff_base * ((1 << attempt) - 1)
            t = now + waited
            f_server = self._factor_at(self._server_intervals, server_id, t)
            f_group = (
                self._factor_at(self._group_intervals, group_id, t)
                if group_id is not None
                else 1.0
            )
            f_effective = f_server if f_server < f_group else f_group
            if f_effective >= self._min_factor:
                self.retried_requests += 1
                self.total_retries += attempt
                if self.trace is not None:
                    self.trace.emit(
                        "debug",
                        "fetch-retry",
                        now,
                        server=server_id,
                        group=group_id,
                        attempts=attempt,
                        waited=waited,
                    )
                return self._deliver(
                    origin_draw, lm_draw, f_server, f_group, waited, attempt
                )
        retries = self._max_retries
        waited = self._backoff_base * ((1 << retries) - 1) if retries else 0.0
        if retries:
            self.retried_requests += 1
            self.total_retries += retries
        self.failed_fetches += 1
        if self.trace is not None:
            self.trace.emit(
                "info",
                "fetch-failed",
                now,
                server=server_id,
                group=group_id,
                retries=retries,
                waited=waited,
            )
        return (FETCH_FAILED, BANDWIDTH_FLOOR, BANDWIDTH_FLOOR, waited, retries)

    def _deliver(
        self,
        origin_draw: float,
        lm_draw: Optional[float],
        f_server: float,
        f_group: float,
        waited: float,
        retries: int,
    ) -> Tuple[int, float, float, float, int]:
        """Compose the degraded two-hop bandwidth into an OK disposition."""
        origin_effective = origin_draw * f_server
        if origin_effective < BANDWIDTH_FLOOR:
            origin_effective = BANDWIDTH_FLOOR
        observed = origin_effective
        if lm_draw is not None:
            lm_effective = lm_draw * f_group
            if lm_effective < BANDWIDTH_FLOOR:
                lm_effective = BANDWIDTH_FLOOR
            if lm_effective < observed:
                observed = lm_effective
        return (FETCH_OK, observed, origin_effective, waited, retries)

    def record_unserved(self, stale: bool) -> None:
        """Count the outcome of one :data:`FETCH_FAILED` disposition."""
        if stale:
            self.stale_serves += 1
        else:
            self.failed_requests += 1

    # -- recovery tracking ---------------------------------------------
    def _check_recovery(self, now: float, server_id: int) -> None:
        """Resolve pending recoveries for a server whose request just arrived."""
        pending = self._pending_recoveries.get(server_id)
        if pending is None or self._estimator is None:
            return
        estimate = self._estimator.estimate(server_id)
        remaining = [
            (ended, target) for ended, target in pending if estimate < target
        ]
        if len(remaining) != len(pending):
            for ended, target in pending:
                if estimate >= target:
                    self._recoveries.append((server_id, now - ended))
            if remaining:
                self._pending_recoveries[server_id] = remaining
            else:
                del self._pending_recoveries[server_id]

    def report(self) -> FaultReport:
        """Build the whole-run :class:`FaultReport`."""
        unrecovered = sum(
            len(pending) for pending in self._pending_recoveries.values()
        ) + len(self._prefault_estimates)
        return FaultReport(
            episodes=len(self.schedule),
            origin_episodes=len(self.schedule.origin_episodes),
            link_episodes=len(self.schedule.link_episodes),
            degraded_requests=self.degraded_requests,
            retried_requests=self.retried_requests,
            total_retries=self.total_retries,
            failed_fetches=self.failed_fetches,
            stale_serves=self.stale_serves,
            failed_requests=self.failed_requests,
            recoveries=tuple(self._recoveries),
            unrecovered=unrecovered,
        )
