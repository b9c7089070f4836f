"""The auxiliary-event subsystem: periodic bandwidth re-measurement merged
into the chunked replay.

Two families of guarantees are pinned here:

* **Equivalence** — with and without re-measurement, the replay matches
  the goldens recorded from the event-calendar driver before it was
  deleted, for *every registered policy* (same events, same order, same
  estimator trajectory), whether the trace is columnar or
  object-per-request.
* **Re-measurement semantics** — cadence windows (longer than the trace,
  explicit start/end), per-path overrides, probing-client staggering,
  warm-up interaction, empty traces, and the measurement log's accounting.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.policies import POLICY_REGISTRY, make_policy
from repro.exceptions import ConfigurationError
from repro.network.measurement import BandwidthMeasurementLog
from repro.network.variability import NLANRRatioVariability
from repro.sim.config import BandwidthKnowledge, SimulationConfig
from repro.sim.events import (
    AuxiliarySchedule,
    BandwidthRemeasurement,
    PeriodicEvent,
    RemeasurementConfig,
    build_remeasurement_events,
)
from repro.sim.simulator import ProxyCacheSimulator
from repro.trace.columnar import ColumnarTrace
from repro.workload.gismo import GismoWorkloadGenerator, Workload, WorkloadConfig

from conftest import assert_golden, replay_golden


@pytest.fixture(scope="module")
def columnar_workload():
    config = WorkloadConfig(seed=7).scaled(0.02)  # 100 objects, 2000 requests
    return GismoWorkloadGenerator(config).generate(columnar=True)


def _passive_config(**overrides):
    defaults = dict(
        cache_size_gb=0.5,
        variability=NLANRRatioVariability(),
        bandwidth_knowledge=BandwidthKnowledge.PASSIVE,
        seed=11,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


# ----------------------------------------------------------------------
# Equivalence: no auxiliary events, every policy matches its golden.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy_name", sorted(POLICY_REGISTRY))
def test_columnar_event_path_bit_identical_per_policy(columnar_workload, policy_name):
    config = SimulationConfig(
        cache_size_gb=0.5, variability=NLANRRatioVariability(), seed=11
    )
    result = replay_golden(
        f"events/no-events/{policy_name}", columnar_workload, config, policy_name
    )
    assert result.auxiliary_events_fired == 0


def test_object_traces_fire_auxiliary_events(columnar_workload):
    """An object-per-request trace is converted to columns, so its
    re-measurement run matches the columnar one event for event."""
    workload = GismoWorkloadGenerator(WorkloadConfig(seed=7).scaled(0.02)).generate()
    config = _passive_config(remeasurement=RemeasurementConfig(interval=200.0))
    for trace_workload in (workload, columnar_workload):
        result = replay_golden("events/remeasure-200", trace_workload, config)
        assert result.auxiliary_events_fired > 0


# ----------------------------------------------------------------------
# Equivalence: re-measurement on, the recorded event-calendar run holds.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy_name", ["PB", "IB", "LRU"])
def test_event_and_columnar_event_agree_under_remeasurement(
    columnar_workload, policy_name
):
    config = _passive_config(remeasurement=RemeasurementConfig(interval=150.0))
    simulator = ProxyCacheSimulator(columnar_workload, config)
    topology = simulator.build_topology(np.random.default_rng(config.seed))
    result = simulator.run(make_policy(policy_name), topology=topology)
    assert result.auxiliary_events_fired > 0
    # The golden includes the measurement log: same samples, same order.
    assert_golden(f"events/remeasure-150/{policy_name}", result)


def test_remeasurement_changes_passive_estimates(columnar_workload):
    base_config = _passive_config()
    simulator = ProxyCacheSimulator(columnar_workload, base_config)
    topology = simulator.build_topology(np.random.default_rng(base_config.seed))

    plain = simulator.run(make_policy("PB"), topology=topology)
    remeasured = ProxyCacheSimulator(
        columnar_workload,
        replace(base_config, remeasurement=RemeasurementConfig(interval=150.0)),
    ).run(make_policy("PB"), topology=topology)

    # Out-of-band samples moved the estimator between requests, so the
    # policy made at least some different decisions.
    assert remeasured.auxiliary_events_fired > 0
    assert remeasured.as_dict() != plain.as_dict()


def test_remeasurement_keeps_request_draws_untouched(columnar_workload):
    """The probe stream has its own RNG: oracle-knowledge metrics are
    unchanged by re-measurement (only the estimator could react, and under
    ORACLE no policy reads it)."""
    oracle = SimulationConfig(
        cache_size_gb=0.5, variability=NLANRRatioVariability(), seed=11
    )
    simulator = ProxyCacheSimulator(columnar_workload, oracle)
    topology = simulator.build_topology(np.random.default_rng(oracle.seed))
    plain = simulator.run(make_policy("PB"), topology=topology)

    remeasured_result = ProxyCacheSimulator(
        columnar_workload,
        replace(oracle, remeasurement=RemeasurementConfig(interval=150.0)),
    ).run(make_policy("PB"), topology=topology)
    assert remeasured_result.auxiliary_events_fired > 0
    assert remeasured_result.as_dict() == plain.as_dict()


# ----------------------------------------------------------------------
# Re-measurement edge cases.
# ----------------------------------------------------------------------
def test_cadence_longer_than_trace_never_fires(columnar_workload):
    duration = columnar_workload.trace.duration
    config = _passive_config(
        remeasurement=RemeasurementConfig(interval=duration * 10)
    )
    simulator = ProxyCacheSimulator(columnar_workload, config)
    result = simulator.run(make_policy("PB"))
    assert result.auxiliary_events_fired == 0
    assert result.measurement_log.total_samples == 0

    # With zero firings the run is bit-identical to no re-measurement at
    # all (the auxiliary machinery must be inert, not merely quiet).
    topology = simulator.build_topology(np.random.default_rng(config.seed))
    again = simulator.run(make_policy("PB"), topology=topology)
    plain = ProxyCacheSimulator(columnar_workload, _passive_config()).run(
        make_policy("PB"), topology=topology
    )
    assert again.as_dict() == plain.as_dict()


def test_zero_request_trace(columnar_workload):
    empty = Workload(
        catalog=columnar_workload.catalog,
        trace=ColumnarTrace(np.empty(0), np.empty(0, np.int64)),
        config=columnar_workload.config,
    )
    config = _passive_config(remeasurement=RemeasurementConfig(interval=10.0))
    result = ProxyCacheSimulator(empty, config).run(make_policy("PB"))
    assert result.metrics.requests == 0
    assert result.auxiliary_events_fired == 0  # empty window: start == end


def test_explicit_window_fires_past_last_request(columnar_workload):
    start = columnar_workload.trace.start_time
    config = _passive_config(
        remeasurement=RemeasurementConfig(
            interval=100.0,
            start_time=start,
            end_time=columnar_workload.trace.end_time + 1000.0,
            paths=[0],
        )
    )
    simulator = ProxyCacheSimulator(columnar_workload, config)
    topology = simulator.build_topology(np.random.default_rng(config.seed))
    result = simulator.run(make_policy("PB"), topology=topology)
    window = config.remeasurement.end_time - start
    expected = int(window / 100.0)
    assert abs(result.auxiliary_events_fired - expected) <= 1
    assert_golden("events/explicit-window", result)


def test_warmup_boundary_samples_feed_estimator_but_not_metrics(columnar_workload):
    """Events during warm-up prime the estimator yet never touch metrics:
    the measured-request count is exactly the non-warm-up tail."""
    config = _passive_config(
        warmup_fraction=0.9,
        remeasurement=RemeasurementConfig(interval=100.0),
    )
    result = ProxyCacheSimulator(columnar_workload, config).run(make_policy("PB"))
    total = len(columnar_workload.trace)
    cutoff = int(0.9 * total)
    assert result.warmup_requests == cutoff
    assert result.metrics.requests == total - cutoff
    assert result.auxiliary_events_fired > 0


def test_per_path_intervals_and_paths_filter(columnar_workload):
    config = _passive_config(
        remeasurement=RemeasurementConfig(
            interval=500.0,
            per_path_intervals={0: 100.0},
            paths=[0, 1],
        )
    )
    simulator = ProxyCacheSimulator(columnar_workload, config)
    result = simulator.run(make_policy("PB"))
    log = result.measurement_log
    assert log.servers() == [0, 1]
    # Server 0's override is 5x faster than server 1's default cadence.
    assert log.sample_count(0) > log.sample_count(1) > 0
    assert log.sample_count(0) == pytest.approx(5 * log.sample_count(1), abs=5)


def test_probing_clients_multiply_cadence(columnar_workload):
    base = _passive_config(
        remeasurement=RemeasurementConfig(interval=400.0, paths=[0])
    )
    doubled = _passive_config(
        remeasurement=RemeasurementConfig(
            interval=400.0, paths=[0], probing_clients=2
        )
    )
    single = ProxyCacheSimulator(columnar_workload, base).run(make_policy("PB"))
    double = ProxyCacheSimulator(columnar_workload, doubled).run(make_policy("PB"))
    assert double.auxiliary_events_fired == pytest.approx(
        2 * single.auxiliary_events_fired, abs=2
    )


def test_unknown_path_filter_rejected(columnar_workload):
    config = _passive_config(
        remeasurement=RemeasurementConfig(interval=100.0, paths=[999_999])
    )
    with pytest.raises(ConfigurationError):
        ProxyCacheSimulator(columnar_workload, config).run(make_policy("PB"))


def test_unknown_per_path_override_rejected(columnar_workload):
    """A typo'd per-path cadence override fails loudly, not silently."""
    config = _passive_config(
        remeasurement=RemeasurementConfig(
            interval=100.0, per_path_intervals={999_999: 10.0}
        )
    )
    with pytest.raises(ConfigurationError):
        ProxyCacheSimulator(columnar_workload, config).run(make_policy("PB"))


# ----------------------------------------------------------------------
# Config validation and primitives.
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kwargs",
    [
        dict(interval=0.0),
        dict(interval=-1.0),
        dict(interval=10.0, per_path_intervals={3: 0.0}),
        dict(interval=10.0, probing_clients=0),
        dict(interval=10.0, priority=0),
        dict(interval=10.0, start_time=100.0, end_time=50.0),
    ],
)
def test_remeasurement_config_validation(kwargs):
    with pytest.raises(ConfigurationError):
        RemeasurementConfig(**kwargs)


def test_periodic_event_priority_zero_reserved():
    with pytest.raises(ConfigurationError):
        PeriodicEvent(interval=1.0, first_time=0.0, end_time=10.0, priority=0)


def test_periodic_event_advance_stops_at_end():
    event = PeriodicEvent(interval=4.0, first_time=4.0, end_time=10.0)
    assert event.advance() == 8.0
    assert event.advance() is None


class _CountingEvent(PeriodicEvent):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.times = []

    def fire(self, now):
        self.times.append(now)


def test_schedule_fires_every_stream_on_its_cadence():
    """The merge heap fires each stream at its own times, in time order,
    up to and including the window end."""
    events = [
        _CountingEvent(interval=3.0, first_time=3.0, end_time=10.0),
        _CountingEvent(interval=5.0, first_time=5.0, end_time=10.0),
    ]
    schedule = AuxiliarySchedule(events)
    schedule.begin()
    schedule.fire_before(6.0)
    # t=3, t=5 and t=6: a negative priority fires before a same-time request.
    assert schedule.fired == 3
    schedule.drain()
    assert schedule.fired == 5
    assert events[0].times == [3.0, 6.0, 9.0]
    assert events[1].times == [5.0, 10.0]


def test_measurement_log_statistics():
    log = BandwidthMeasurementLog()
    for time, value in [(1.0, 100.0), (2.0, 50.0), (3.0, 150.0)]:
        log.record(time, 7, value)
    log.record(4.0, 9, 80.0)
    assert log.total_samples == 4
    assert log.servers() == [7, 9]
    assert log.sample_count(7) == 3
    assert log.mean(7) == pytest.approx(100.0)
    assert log.last_sample(7) == 150.0
    assert log.last_sample_time(7) == 3.0
    summary = log.as_dict()
    assert summary[7]["min"] == 50.0 and summary[7]["max"] == 150.0
    assert log.mean(12345) is None


def test_build_remeasurement_events_skips_never_firing_streams(columnar_workload):
    config = RemeasurementConfig(interval=50.0)
    simulator = ProxyCacheSimulator(columnar_workload, _passive_config())
    topology = simulator.build_topology(np.random.default_rng(0))
    events = build_remeasurement_events(
        config, topology, None, None, trace_start=0.0, trace_end=10.0, base_seed=0
    )
    assert events == []  # first firing at t=50 is past the 10s window
    events = build_remeasurement_events(
        config, topology, None, None, trace_start=0.0, trace_end=200.0, base_seed=0
    )
    assert len(events) == len(topology.paths)
    assert all(isinstance(event, BandwidthRemeasurement) for event in events)
