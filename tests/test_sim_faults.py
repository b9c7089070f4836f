"""Fault injection and graceful degradation (``repro.sim.faults``).

Pinned guarantees:

* **Bit-identity, faults off** — a config with ``faults=None`` replays
  exactly like a config that never mentions faults, and both match the
  recorded golden.
* **Bit-identity, faults on** — with an active fault schedule runs match
  their recorded goldens, fault report included.
* **Fetch model semantics** — the timeout threshold, the exponential
  retry backoff (and its budget), serve-stale classification, and the
  bandwidth-floor sample fed to the estimator on failure; on random
  schedules, every disposition equals the fetch model evaluated from
  point-in-time factor queries.
* **Fault-storm reactive behaviour** — hysteresis re-arms across
  outage/recovery oscillation and ``reactive_rekey_cap`` holds under
  adversarial flapping.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import make_policy
from repro.exceptions import ConfigurationError
from repro.network.measurement import PassiveEstimator
from repro.network.path import BANDWIDTH_FLOOR
from repro.network.variability import NLANRRatioVariability
from repro.sim.config import BandwidthKnowledge, ClientCloudConfig, SimulationConfig
from repro.sim.events import ReactiveRekeyer
from repro.sim.faults import (
    FETCH_FAILED,
    FETCH_OK,
    FaultConfig,
    FaultEpisode,
    FaultInjector,
    FaultSchedule,
    stale_quality,
)
from repro.sim.simulator import ProxyCacheSimulator
from repro.workload.gismo import GismoWorkloadGenerator, WorkloadConfig

from conftest import replay_golden


@pytest.fixture(scope="module")
def workload():
    config = WorkloadConfig(seed=0).scaled(0.02)  # 100 objects, 2000 requests
    return GismoWorkloadGenerator(config).generate()


@pytest.fixture(scope="module")
def outage_schedule(workload):
    """A scripted outage window over the busiest servers, mid-trace."""
    trace = workload.trace
    span = trace.end_time - trace.start_time
    start = trace.start_time + 0.35 * span
    end = start + 0.2 * span
    counts = {}
    for object_id, count in trace.request_counts().items():
        server = workload.catalog.get(object_id).server_id
        counts[server] = counts.get(server, 0) + count
    busiest = sorted(counts, key=lambda s: counts[s], reverse=True)[:3]
    return tuple(
        FaultEpisode("origin-outage", start, end, server_id=server)
        for server in sorted(busiest)
    )


def _passive_config(**overrides):
    base = dict(
        cache_size_gb=0.5,
        variability=NLANRRatioVariability(),
        bandwidth_knowledge=BandwidthKnowledge.PASSIVE,
        seed=0,
    )
    base.update(overrides)
    return SimulationConfig(**base)


def _run(workload, config):
    return ProxyCacheSimulator(workload, config).run(make_policy("PB"))


# ----------------------------------------------------------------------
# Episode / config validation
# ----------------------------------------------------------------------
class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultEpisode("meteor-strike", 0.0, 1.0, server_id=0)

    def test_empty_window_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultEpisode("origin-outage", 5.0, 5.0, server_id=0)

    def test_origin_kind_must_not_target_group(self):
        with pytest.raises(ConfigurationError):
            FaultEpisode("origin-outage", 0.0, 1.0, group_id=2)

    def test_link_kind_must_not_target_server(self):
        with pytest.raises(ConfigurationError):
            FaultEpisode("link-down", 0.0, 1.0, server_id=2)

    def test_outage_kinds_require_zero_factor(self):
        with pytest.raises(ConfigurationError):
            FaultEpisode("origin-outage", 0.0, 1.0, server_id=0, factor=0.5)

    def test_flap_kinds_require_partial_factor(self):
        with pytest.raises(ConfigurationError):
            FaultEpisode("bandwidth-flap", 0.0, 1.0, server_id=0, factor=0.0)
        with pytest.raises(ConfigurationError):
            FaultEpisode("bandwidth-flap", 0.0, 1.0, server_id=0, factor=1.0)

    def test_config_bounds(self):
        with pytest.raises(ConfigurationError):
            FaultConfig(random_origin_outages=-1)
        with pytest.raises(ConfigurationError):
            FaultConfig(severity=1.0)
        with pytest.raises(ConfigurationError):
            FaultConfig(timeout_factor=1.0)
        with pytest.raises(ConfigurationError):
            FaultConfig(max_retries=-1)
        with pytest.raises(ConfigurationError):
            FaultConfig(recovery_fraction=0.0)
        for field in ("mean_duration_s", "timeout_factor", "backoff_base_s"):
            with pytest.raises(ConfigurationError):
                FaultConfig(**{field: float("nan")})
        for episodes in (("x",), ({"kind": "origin-outage"},), 3):
            with pytest.raises(ConfigurationError, match="episodes"):
                FaultConfig(episodes=episodes)

    def test_backoff_budget(self):
        config = FaultConfig(max_retries=3, backoff_base_s=2.0)
        # 2 * (2^3 - 1) = 14 seconds of cumulative backoff.
        assert config.backoff_budget_s == 14.0
        assert FaultConfig(max_retries=0).backoff_budget_s == 0.0

    def test_schedule_sorts_and_windows(self):
        late = FaultEpisode("origin-outage", 50.0, 60.0, server_id=0)
        early = FaultEpisode("bandwidth-flap", 5.0, 15.0, server_id=1, factor=0.2)
        schedule = FaultSchedule(episodes=(late, early))
        assert schedule.episodes[0] is early
        assert schedule.window() == (5.0, 60.0)
        assert len(schedule) == 2 and bool(schedule)
        assert not FaultSchedule(episodes=())

    def test_build_schedule_rejects_unknown_targets(self, workload):
        simulator = ProxyCacheSimulator(workload, _passive_config())
        topology = simulator.build_topology(np.random.default_rng(0))
        bad_server = max(topology.paths.server_ids()) + 1000
        config = FaultConfig(
            episodes=(
                FaultEpisode("origin-outage", 0.0, 1.0, server_id=bad_server),
            )
        )
        with pytest.raises(ConfigurationError):
            config.build_schedule(topology, trace_start=0.0, trace_end=10.0)
        # No modeled last mile: stochastic link flaps have nothing to hit.
        with pytest.raises(ConfigurationError):
            FaultConfig(random_link_flaps=1).build_schedule(
                topology, trace_start=0.0, trace_end=10.0
            )

    def test_build_schedule_is_deterministic(self, workload):
        simulator = ProxyCacheSimulator(workload, _passive_config())
        topology = simulator.build_topology(np.random.default_rng(0))
        config = FaultConfig(
            random_origin_outages=3, random_bandwidth_flaps=2, seed=11
        )
        first = config.build_schedule(topology, trace_start=0.0, trace_end=1e4)
        second = config.build_schedule(topology, trace_start=0.0, trace_end=1e4)
        assert first.episodes == second.episodes
        assert len(first) == 5
        window = first.window()
        assert 0.0 <= window[0] and window[0] < 1e4


# ----------------------------------------------------------------------
# Injector semantics (unit level)
# ----------------------------------------------------------------------
def _injector(episodes, estimator=None, **config_kwargs):
    config = FaultConfig(episodes=tuple(episodes), **config_kwargs)
    return FaultInjector(FaultSchedule(episodes=tuple(episodes)), config, estimator)


class TestInjector:
    def test_no_active_fault_returns_none(self):
        injector = _injector(
            [FaultEpisode("origin-outage", 10.0, 20.0, server_id=0)]
        )
        assert injector.intercept(5.0, 0, None, 100.0, None) is None
        # Other servers are untouched even during the outage.
        assert injector.intercept(15.0, 1, None, 100.0, None) is None

    def test_outage_fails_after_exhausting_backoff_budget(self):
        config_retries, backoff = 2, 1.0
        injector = _injector(
            [FaultEpisode("origin-outage", 10.0, 1e6, server_id=0)],
            max_retries=config_retries,
            backoff_base_s=backoff,
        )
        disposition = injector.intercept(15.0, 0, None, 100.0, None)
        code, observed, origin_sample, waited, retries = disposition
        assert code == FETCH_FAILED
        # The estimator sees a stalled transfer, not silence.
        assert observed == BANDWIDTH_FLOOR
        assert origin_sample == BANDWIDTH_FLOOR
        # Total wait equals the full exponential budget, never more.
        assert waited == backoff * ((1 << config_retries) - 1)
        assert retries == config_retries
        assert injector.failed_fetches == 1

    def test_retry_succeeds_when_outage_ends_inside_backoff(self):
        injector = _injector(
            [FaultEpisode("origin-outage", 10.0, 16.0, server_id=0)],
            max_retries=3,
            backoff_base_s=2.0,
        )
        # Request at t=15: attempt 1 re-evaluates at t=17 (> end): served.
        disposition = injector.intercept(15.0, 0, None, 100.0, None)
        code, observed, origin_sample, waited, retries = disposition
        assert code == FETCH_OK
        assert observed == 100.0 and origin_sample == 100.0
        assert waited == 2.0 and retries == 1
        assert injector.retried_requests == 1
        assert injector.total_retries == 1

    def test_flap_degrades_without_failing(self):
        injector = _injector(
            [FaultEpisode("bandwidth-flap", 10.0, 20.0, server_id=0, factor=0.5)],
            timeout_factor=4.0,  # threshold factor 0.25 < 0.5: no timeout
        )
        code, observed, origin_sample, waited, retries = injector.intercept(
            15.0, 0, None, 100.0, None
        )
        assert code == FETCH_OK
        assert observed == 50.0 and origin_sample == 50.0
        assert waited == 0.0 and retries == 0
        assert injector.degraded_requests == 1
        assert injector.failed_fetches == 0

    def test_link_fault_hits_only_its_group(self):
        injector = _injector(
            [FaultEpisode("link-flap", 10.0, 20.0, group_id=1, factor=0.5)]
        )
        assert injector.intercept(15.0, 0, 0, 100.0, 80.0) is None
        code, observed, origin_sample, _, _ = injector.intercept(
            15.0, 0, 1, 100.0, 80.0
        )
        assert code == FETCH_OK
        # Last-mile degraded to 40; origin hop unaffected.
        assert observed == 40.0
        assert origin_sample == 100.0

    def test_mean_time_to_recovery_tracks_estimate(self):
        estimator = PassiveEstimator()
        estimator.observe(0, 100.0)  # known server at ~100 KB/s
        injector = _injector(
            [FaultEpisode("origin-outage", 10.0, 20.0, server_id=0)],
            estimator=estimator,
            recovery_fraction=0.8,
        )
        snapshot = estimator.estimate(0)
        # During the outage the loop feeds the floor sample.
        injector.intercept(15.0, 0, None, 100.0, None)
        estimator.observe(0, BANDWIDTH_FLOOR)
        # After the outage, estimates climb back; recovery is logged the
        # moment a request sees the estimate above 80% of the snapshot.
        for t in (25.0, 30.0, 35.0, 40.0, 45.0, 50.0):
            injector.intercept(t, 0, None, 100.0, None)
            estimator.observe(0, 120.0)
        injector.intercept(55.0, 0, None, 100.0, None)
        report = injector.report()
        assert len(report.recoveries) == 1
        server, seconds = report.recoveries[0]
        assert server == 0 and seconds > 0.0
        assert report.mean_time_to_recovery_s == seconds
        assert report.unrecovered == 0
        assert estimator.estimate(0) > 0.8 * snapshot

    def test_stale_quality_quantised_to_layers(self):
        # 600 KB cached of a 100 s, 48 KB/s stream: supports 6 KB/s,
        # fraction 0.125 → one layer of eight.
        assert stale_quality(600.0, 100.0, 48.0, 1.0 / 8.0) == 1.0 / 8.0
        assert stale_quality(0.0, 100.0, 48.0, 1.0 / 8.0) == 0.0
        assert stale_quality(1e9, 100.0, 48.0, 1.0 / 8.0) == 1.0


def _reference_disposition(injector, config, now, server, group, origin, last_mile):
    """The fetch model of one request, from point-in-time factor queries.

    Every attempt reads the worst active factor of both hops with
    ``_factor_at`` (no boundary pointer, no active lists): ``None`` when
    neither hop is degraded, else the first attempt inside the timeout
    threshold, else a failed fetch after the whole backoff budget.
    """

    def factors(t):
        f_server = injector._factor_at(injector._server_intervals, server, t)
        f_group = (
            injector._factor_at(injector._group_intervals, group, t)
            if group is not None
            else 1.0
        )
        return f_server, f_group

    f_server, f_group = factors(now)
    if f_server >= 1.0 and f_group >= 1.0:
        return None
    waited, attempt = 0.0, 0
    while min(f_server, f_group) < 1.0 / config.timeout_factor:
        if attempt == config.max_retries:
            return (FETCH_FAILED, BANDWIDTH_FLOOR, BANDWIDTH_FLOOR, waited, attempt)
        attempt += 1
        waited = config.backoff_base_s * (2**attempt - 1)
        f_server, f_group = factors(now + waited)
    origin_effective = max(origin * f_server, BANDWIDTH_FLOOR)
    observed = origin_effective
    if last_mile is not None:
        observed = min(observed, max(last_mile * f_group, BANDWIDTH_FLOOR))
    return (FETCH_OK, observed, origin_effective, waited, attempt)


@st.composite
def fault_episodes(draw):
    """One episode on a whole-second grid, so boundaries meet requests."""
    kind = draw(st.sampled_from(
        ("origin-outage", "bandwidth-flap", "link-down", "link-flap")
    ))
    start = float(draw(st.integers(0, 30)))
    end = start + draw(st.integers(1, 15))
    target = draw(st.sampled_from((None, 0, 1)))  # None: every server/group
    factor = 0.0 if kind in ("origin-outage", "link-down") else draw(
        st.sampled_from((0.1, 0.3, 0.6, 0.9))
    )
    if kind in ("origin-outage", "bandwidth-flap"):
        return FaultEpisode(kind, start, end, server_id=target, factor=factor)
    return FaultEpisode(kind, start, end, group_id=target, factor=factor)


FAULT_REQUESTS = st.lists(
    st.tuples(
        st.integers(-4, 100).map(lambda half_seconds: half_seconds / 2.0),
        st.integers(0, 2),  # server
        st.sampled_from((None, 0, 1, 2)),  # client group (None: unmodeled)
        st.floats(min_value=1.0, max_value=500.0),  # origin draw
        st.floats(min_value=1.0, max_value=500.0),  # last-mile draw
    ),
    max_size=40,
).map(lambda rows: sorted(rows, key=lambda row: row[0]))  # arrival order


@settings(max_examples=200, deadline=None)
@given(
    episodes=st.lists(fault_episodes(), max_size=6),
    requests=FAULT_REQUESTS,
    timeout_factor=st.sampled_from((2.0, 4.0, 20.0)),
    max_retries=st.integers(0, 3),
    backoff_base_s=st.sampled_from((0.5, 1.0, 4.0)),
)
def test_intercept_matches_point_in_time_factors(
    episodes, requests, timeout_factor, max_retries, backoff_base_s
):
    """Overlapping, broadcast and back-to-back episodes, with requests
    before, inside, on the boundaries of and after them: the monotone
    pointer (and its no-active-episode shortcut) decides exactly what a
    point-in-time query of the schedule decides."""
    injector = _injector(
        episodes,
        timeout_factor=timeout_factor,
        max_retries=max_retries,
        backoff_base_s=backoff_base_s,
    )
    config = injector.config
    got, want = [], []
    for now, server, group, origin, last_mile in requests:
        last_mile = None if group is None else last_mile
        got.append(injector.intercept(now, server, group, origin, last_mile))
        want.append(_reference_disposition(
            injector, config, now, server, group, origin, last_mile
        ))
    assert got == want
    served = [d for d in want if d is not None and d[0] == FETCH_OK]
    assert injector.degraded_requests == sum(d[4] == 0 for d in served)
    assert injector.failed_fetches == sum(
        d is not None and d[0] == FETCH_FAILED for d in want
    )


# ----------------------------------------------------------------------
# Golden bit-identity, faults off and on
# ----------------------------------------------------------------------
class TestReplayIdentity:
    def test_faults_none_identical_to_default_config(self, workload):
        """``faults=None`` must replay exactly like a pre-fault config."""
        for config in (_passive_config(faults=None), _passive_config()):
            result = replay_golden("faults/off", workload, config)
            assert result.fault_report is None
            assert result.metrics.availability == 1.0
            assert result.metrics.failed_requests == 0

    @pytest.mark.parametrize("policy_name", ["PB", "IB", "LRU", "IB-V"])
    def test_all_paths_identical_with_outage(
        self, workload, outage_schedule, policy_name
    ):
        config = _passive_config(faults=FaultConfig(episodes=outage_schedule))
        result = replay_golden(
            f"faults/outage/{policy_name}", workload, config, policy_name
        )
        assert result.fault_report.failed_fetches > 0

    def test_all_paths_identical_with_stochastic_faults(self, workload):
        config = _passive_config(
            faults=FaultConfig(
                random_origin_outages=2,
                random_bandwidth_flaps=3,
                mean_duration_s=400.0,
                severity=0.2,
                seed=7,
            )
        )
        result = replay_golden("faults/stochastic", workload, config)
        assert result.fault_report.episodes == 5

    def test_all_paths_identical_with_link_faults_and_reactive(self, workload):
        outage = FaultEpisode("link-down", 2000.0, 3000.0, group_id=1)
        config = _passive_config(
            client_clouds=ClientCloudConfig(
                groups=4, bandwidth=200.0, variability=NLANRRatioVariability()
            ),
            reactive_threshold=0.15,
            reactive_passive=True,
            reactive_hysteresis=0.05,
            faults=FaultConfig(episodes=(outage,)),
        )
        result = replay_golden("faults/link-reactive", workload, config)
        assert result.fault_report.link_episodes == 1


# ----------------------------------------------------------------------
# End-to-end outage semantics
# ----------------------------------------------------------------------
class TestOutageSemantics:
    def test_outage_reduces_availability_and_serves_stale(
        self, workload, outage_schedule
    ):
        config = _passive_config(faults=FaultConfig(episodes=outage_schedule))
        result = _run(workload, config)
        metrics = result.metrics
        report = result.fault_report
        assert report.failed_fetches > 0
        assert metrics.availability < 1.0
        # Every failed fetch resolved to either a stale serve or a failure.
        assert report.stale_serves + report.failed_requests == report.failed_fetches
        assert report.stale_serves > 0  # the busiest servers have cached prefixes
        # Retries respect the budget: never more than max_retries per fetch.
        attempts = report.retried_requests
        assert attempts > 0
        assert report.total_retries <= attempts * config.faults.max_retries
        # The dead servers' estimates collapsed and recovered.
        assert len(report.recoveries) + report.unrecovered == len(outage_schedule)

    def test_serve_stale_off_turns_stale_serves_into_failures(
        self, workload, outage_schedule
    ):
        stale_on = _passive_config(faults=FaultConfig(episodes=outage_schedule))
        stale_off = _passive_config(
            faults=FaultConfig(episodes=outage_schedule, serve_stale=False)
        )
        on = _run(workload, stale_on)
        off = _run(workload, stale_off)
        assert on.fault_report.stale_serves > 0
        assert off.fault_report.stale_serves == 0
        # Same fetches fail either way; only their resolution changes: every
        # stale serve of the lenient run becomes a hard failure.
        assert off.fault_report.failed_fetches == on.fault_report.failed_fetches
        assert (
            off.fault_report.failed_requests
            == on.fault_report.failed_requests + on.fault_report.stale_serves
        )
        assert off.metrics.availability <= on.metrics.availability

    def test_fault_metrics_surface_in_as_dict(self, workload, outage_schedule):
        config = _passive_config(faults=FaultConfig(episodes=outage_schedule))
        table = _run(workload, config).metrics.as_dict()
        for key in (
            "availability",
            "failed_requests",
            "stale_served_requests",
            "retried_requests",
            "total_retries",
        ):
            assert key in table


# ----------------------------------------------------------------------
# Fault storms vs the reactive machinery (hysteresis, re-key cap)
# ----------------------------------------------------------------------
class _CountingPolicy:
    """Minimal policy stub: counts on_bandwidth_shift invocations."""

    def __init__(self):
        self.shifts = []

    def on_bandwidth_shift(self, server_id, bandwidth, now):
        self.shifts.append((server_id, bandwidth, now))
        return 1


class TestFaultStorms:
    def test_hysteresis_rearms_across_outage_recovery_oscillation(self):
        """An outage/recovery flap 100→1→100→1→100 re-keys twice, not four times.

        After a re-key the view re-anchors at the *new* believed value and
        disarms; while disarmed, swings away from that anchor are swallowed,
        and only a sample settling back inside the hysteresis band re-arms
        the view for the next genuine shift.
        """
        policy = _CountingPolicy()
        estimator = PassiveEstimator(smoothing=1.0)  # estimate = last sample
        estimator.observe(0, 100.0)
        rekeyer = ReactiveRekeyer(
            policy, estimator, threshold=0.3, hysteresis=0.1
        )

        def swing(now, sample):
            prior = estimator.estimate(0)
            estimator.observe(0, sample)
            rekeyer.notify(now, 0, prior)

        # Outage: the estimate collapses far past the threshold -> re-key,
        # re-anchor at the collapsed value, disarm.
        swing(1.0, 1.0)
        assert rekeyer.shifts == 1
        assert rekeyer.disarmed_views(0) == (None,)
        assert rekeyer.anchor_for(0) == 1.0
        # Recovery spike while disarmed: far outside the band around the
        # collapsed anchor — swallowed, no re-key, still disarmed.
        swing(2.0, 100.0)
        assert rekeyer.shifts == 1
        assert rekeyer.disarmed_views(0) == (None,)
        # Outage again: the estimate settles back at the anchor -> re-arm.
        swing(3.0, 1.0)
        assert rekeyer.disarmed_views(0) == ()
        assert rekeyer.shifts == 1  # re-arming itself never re-keys
        # Armed again, so the next recovery swing re-keys and re-anchors up.
        swing(4.0, 100.0)
        assert rekeyer.shifts == 2
        assert rekeyer.disarmed_views(0) == (None,)
        assert rekeyer.anchor_for(0) == 100.0
        # Settling at the recovered value re-arms once more.
        swing(5.0, 100.0)
        assert rekeyer.disarmed_views(0) == ()
        assert rekeyer.shifts == 2
        assert len(policy.shifts) == 2

    def test_rekey_cap_holds_under_adversarial_flapping(self):
        policy = _CountingPolicy()
        estimator = PassiveEstimator(smoothing=1.0)
        estimator.observe(0, 100.0)
        rekeyer = ReactiveRekeyer(
            policy, estimator, threshold=0.3, rekey_cap=2
        )
        # No hysteresis: the cap is the only brake.  Alternate 100 <-> 1
        # forever; the anchor freezes at 100 once the cap bites, so every
        # collapsed swing afterwards still crosses the threshold.
        for step in range(50):
            prior = estimator.estimate(0)
            estimator.observe(0, 1.0 if step % 2 == 0 else 100.0)
            rekeyer.notify(float(step), 0, prior)
        assert rekeyer.rekeys_by_server[0] == 2
        assert rekeyer.shifts == 2
        # Steps 0 and 1 spent the budget; of the remaining 48 swings, the 24
        # collapsed ones (believed 1 vs frozen anchor 100) are suppressed and
        # the 24 recovered ones sit inside the threshold of the anchor.
        assert rekeyer.suppressed == 24
        assert len(policy.shifts) == 2

    def test_simulated_fault_storm_respects_rekey_cap(self, workload):
        """End-to-end: oscillating outages cannot exceed the per-server cap."""
        trace = workload.trace
        span = trace.end_time - trace.start_time
        # Five short outages on every server (broadcast), evenly spaced.
        episodes = tuple(
            FaultEpisode(
                "origin-outage",
                trace.start_time + (0.1 + 0.15 * k) * span,
                trace.start_time + (0.15 + 0.15 * k) * span,
            )
            for k in range(5)
        )
        cap = 3
        config = _passive_config(
            reactive_threshold=0.15,
            reactive_passive=True,
            reactive_hysteresis=0.05,
            reactive_rekey_cap=cap,
            faults=FaultConfig(episodes=episodes),
        )
        result = replay_golden("faults/storm-rekey-cap", workload, config)
        assert result.fault_report.failed_fetches > 0
        server_count = len(workload.catalog.server_ids())
        assert result.reactive_shifts <= cap * server_count
        assert result.reactive_suppressed > 0
