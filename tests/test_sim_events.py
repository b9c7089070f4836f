"""Periodic bandwidth re-measurement: probe rounds in the chunked replay.

Three families of guarantees are pinned here:

* **Recorded behaviour** — with and without re-measurement, the replay
  matches its goldens for *every registered policy* (same probes, same
  order, same estimator trajectory).
* **Rounds against the heap** — :class:`~repro.sim.events.ProbeRounds`
  fires what the per-path merge heap it replaced fired, kept below as
  the reference: the same ``(time, server)`` sequence, after the same
  requests, with the same samples and the same estimator and re-keyer
  calls; and a whole replay under every policy equals the one the heap
  drives.
* **Re-measurement semantics** — an interval longer than the trace,
  warm-up, empty traces, rounds times paths probes, the batch refills,
  the measurement log's accounting and the config's validation.
"""

import copy
import heapq
import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.sim.events as events_module
import repro.sim.simulator as simulator_module
from repro.core.policies import POLICY_REGISTRY, make_policy
from repro.exceptions import ConfigurationError
from repro.network.measurement import BandwidthMeasurementLog
from repro.network.path import NetworkPath, PathRegistry
from repro.network.variability import NLANRRatioVariability
from repro.sim.config import BandwidthKnowledge, SimulationConfig
from repro.sim.events import ProbeRounds, RemeasurementConfig
from repro.sim.simulator import ProxyCacheSimulator
from repro.trace.columnar import ColumnarTrace
from repro.workload.gismo import GismoWorkloadGenerator, Workload, WorkloadConfig

from conftest import assert_golden, replay_golden


@pytest.fixture(scope="module")
def columnar_workload():
    config = WorkloadConfig(seed=7).scaled(0.02)  # 100 objects, 2000 requests
    return GismoWorkloadGenerator(config).generate()


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
# Recorded behaviour: without probes, every policy matches its golden.
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
    """A re-measurement run fires its probes and matches its golden."""
    config = _passive_config(remeasurement=RemeasurementConfig(interval=200.0))
    result = replay_golden("events/remeasure-200", columnar_workload, config)
    assert result.auxiliary_events_fired > 0


# ----------------------------------------------------------------------
# Recorded behaviour: with probes, the recorded runs hold.
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
    # all (the probe machinery must be inert, not merely quiet).
    topology = simulator.build_topology(np.random.default_rng(config.seed))
    again = simulator.run(make_policy("PB"), topology=topology)
    plain = ProxyCacheSimulator(columnar_workload, _passive_config()).run(
        make_policy("PB"), topology=topology
    )
    assert again.as_dict() == plain.as_dict()


@pytest.mark.parametrize("fraction", [0.01, 0.1, 0.5, 1.0])
def test_every_round_probes_every_path(columnar_workload, fraction):
    """A run fires every round up to the last request, and each round
    probes every origin path once: the count is rounds times paths, and
    each path's last sample is the last round's.  At an interval of the
    whole trace the one round falls on the last request's time."""
    trace = columnar_workload.trace
    interval = trace.duration * fraction
    config = _passive_config(remeasurement=RemeasurementConfig(interval=interval))
    simulator = ProxyCacheSimulator(columnar_workload, config)
    topology = simulator.build_topology(np.random.default_rng(config.seed))
    result = simulator.run(make_policy("PB"), topology=topology)

    rounds = []
    now = trace.start_time + interval
    while now <= trace.end_time:
        rounds.append(now)
        now += interval
    servers = topology.paths.server_ids()
    log = result.measurement_log
    assert rounds
    assert result.auxiliary_events_fired == len(rounds) * len(servers)
    assert log.total_samples == result.auxiliary_events_fired
    assert log.servers() == sorted(servers)
    for server_id in servers:
        assert log.sample_count(server_id) == len(rounds)
        assert log.last_sample_time(server_id) == rounds[-1]


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


def test_warmup_boundary_samples_feed_estimator_but_not_metrics(columnar_workload):
    """Probes during warm-up prime the estimator yet never touch metrics:
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


# ----------------------------------------------------------------------
# Config validation, round times and the measurement log.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("interval", [0.0, -1.0, float("nan"), float("-inf")])
def test_remeasurement_config_validation(interval):
    with pytest.raises(ConfigurationError):
        RemeasurementConfig(interval=interval)


def _registry(server_ids, seed=0):
    """Paths to ``server_ids``, added in that order, sharing one NLANR model."""
    model = NLANRRatioVariability()
    bases = np.random.default_rng(seed).uniform(5.0, 500.0, len(server_ids))
    return PathRegistry(
        NetworkPath(server_id, base, model)
        for server_id, base in zip(server_ids, bases)
    )


def test_round_times_accumulate_up_to_the_last_request():
    """Rounds start one interval after the first request, include the last
    request's time, and accumulate: the sixth round of 0.1 s is 0.6, not
    ``6 * 0.1``."""

    def times(interval, end):
        probes = ProbeRounds(interval, _registry([0]), BandwidthMeasurementLog())
        return list(probes.times(0.0, end))

    assert times(3.0, 10.0) == [3.0, 6.0, 9.0]
    assert times(5.0, 10.0) == [5.0, 10.0]
    assert times(50.0, 10.0) == []
    sixth = times(0.1, 0.65)[5]
    assert sixth == 0.6 and sixth != 6 * 0.1


@pytest.mark.parametrize("rounds", [1, 32, 33, 65])
def test_each_path_draws_a_batch_every_32_rounds(rounds):
    """Rounds 0, 32, 64 … draw each path's next batch of samples, in
    server-id order, and every other round reads its column: round ``k``
    probes path ``i`` with sample ``k % 32`` of the path's batch
    ``k // 32``."""
    registry = _registry([5, 2, 9], seed=3)
    paths = [registry.get(server_id) for server_id in registry.server_ids()]
    log = _Recorder()
    probes = ProbeRounds(1.0, registry, log, seed=11)
    rng = copy.deepcopy(probes.rng)
    for k in range(rounds):
        probes.fire(float(k))
    batch = ProbeRounds.PROBE_BATCH
    batches = [
        [path.sample_observed(rng, batch) for path in paths]
        for _ in range(-(-rounds // batch))
    ]
    assert log.calls == [
        ("record", float(k), path.server_id, batches[k // batch][i][k % batch], 0)
        for k in range(rounds)
        for i, path in enumerate(paths)
    ]
    assert probes.fired == rounds * len(paths)


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


# ----------------------------------------------------------------------
# The rounds against the merge heap they replaced.
# ----------------------------------------------------------------------
class _Stream:
    """One path's probes in the reference heap: the path and its batch."""

    __slots__ = ("path", "samples", "position")

    def __init__(self, path):
        self.path = path
        self.samples = []
        self.position = 0


def _heap_replay(times, paths, interval, rng, log, estimator, rekeyer, serve):
    """The merge heap the probe rounds replaced, kept as their reference.

    One stream per path, in server-id order, fires one ``interval`` after
    the first request and then every ``interval``, accumulated, up to the
    last request.  The streams wait on a ``(time, priority, push
    counter)`` heap at priority -1, against the requests' 0: a request
    is served once nothing on the heap is due at or before its time, and
    whatever is left after the last request fires at the end.  A stream
    draws its next :data:`ProbeRounds.PROBE_BATCH` samples from the
    shared generator when it has used up its batch.  Returns the number
    of probes fired.
    """
    total = len(times)
    start_time = float(times[0]) if total else 0.0
    end_time = float(times[-1]) if total else 0.0
    counter = itertools.count()
    first = start_time + interval
    heap = [
        (first, -1, next(counter), _Stream(path))
        for path in paths
        if first <= end_time
    ]
    heapq.heapify(heap)
    fired = 0

    def fire_before(time, priority):
        nonlocal fired
        while heap and (heap[0][0], heap[0][1]) < (time, priority):
            now, _, _, stream = heapq.heappop(heap)
            if stream.position >= len(stream.samples):
                stream.samples = stream.path.sample_observed(
                    rng, ProbeRounds.PROBE_BATCH
                ).tolist()
                stream.position = 0
            sample = stream.samples[stream.position]
            stream.position += 1
            server = stream.path.server_id
            log.record(now, server, sample)
            if estimator is not None:
                if rekeyer is not None:
                    prior = estimator.estimate(server)
                    estimator.observe(server, sample)
                    rekeyer.notify(now, server, prior)
                else:
                    estimator.observe(server, sample)
            fired += 1
            later = now + interval
            if later <= end_time:
                heapq.heappush(heap, (later, -1, next(counter), stream))

    start = 0
    while start < total:
        stop = total
        if heap:
            if (heap[0][0], heap[0][1]) < (times[start], 0):
                fire_before(times[start], 0)
                continue
            stop = int(np.searchsorted(times, heap[0][0], side="left"))
        serve(start, stop)
        start = stop
    fire_before(float("inf"), 0)
    return fired


class _Recorder:
    """Stands in for the measurement log, the estimator and the re-keyer,
    and records every call with the requests served before it."""

    def __init__(self):
        self.calls = []
        self.served = 0

    def serve(self, start, stop):
        assert start == self.served < stop
        self.served = stop

    def record(self, now, server, sample):
        self.calls.append(("record", now, server, sample, self.served))

    def estimate(self, server):
        self.calls.append(("estimate", server))
        return float(len(self.calls))

    def observe(self, server, sample):
        self.calls.append(("observe", server, sample))

    def notify(self, now, server, prior):
        self.calls.append(("notify", now, server, prior))


class _Windows:
    """The one call the replay loop makes on a kernel context, with
    windows of three requests."""

    def __init__(self, total):
        self.total = total

    def load_window(self, start):
        return min(start + 3, self.total)


@settings(max_examples=150, deadline=None)
@given(
    server_ids=st.lists(
        st.integers(min_value=0, max_value=50), min_size=1, max_size=6, unique=True
    ),
    interval=st.sampled_from([0.1, 0.3, 0.5, 0.7, 1.0, 2.5]),
    origin=st.sampled_from([0.0, 3.0, 1234.5678]),
    grid=st.sampled_from([0.1, 0.25, 0.5]),
    steps=st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=60),
    mode=st.sampled_from(["oracle", "passive", "reactive"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
# Rounds at 0.5 s land on requests on a 0.25 s grid: a tie at every round.
@example(
    server_ids=[4, 1],
    interval=0.5,
    origin=0.0,
    grid=0.25,
    steps=list(range(0, 41)),
    mode="passive",
    seed=0,
)
# Forty rounds of 0.1 s, whose accumulated times drift from k * 0.1.
@example(
    server_ids=[2],
    interval=0.1,
    origin=3.0,
    grid=0.1,
    steps=[0, 40],
    mode="reactive",
    seed=1,
)
def test_rounds_fire_what_the_heap_fired(
    server_ids, interval, origin, grid, steps, mode, seed
):
    """The replay loop with probe rounds makes the calls the merge heap
    made: each probe's time, server and sample, after the same number of
    requests, and with an estimator and a re-keyer the same reads and
    notifications in between."""
    times = origin + grid * np.sort(np.array(steps, dtype=np.int64))
    trace = ColumnarTrace(times, np.zeros(len(times), np.int64))
    registry = _registry(server_ids, seed)
    paths = [registry.get(server_id) for server_id in registry.server_ids()]

    actual, expected = _Recorder(), _Recorder()
    probes = ProbeRounds(
        interval,
        registry,
        actual,
        estimator=None if mode == "oracle" else actual,
        rekeyer=actual if mode == "reactive" else None,
        seed=seed,
    )
    rng = copy.deepcopy(probes.rng)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            simulator_module,
            "serve_batch",
            lambda ctx, start, stop: actual.serve(start, stop),
        )
        ProxyCacheSimulator._replay(_Windows(len(times)), trace, probes)
    fired = _heap_replay(
        times,
        paths,
        interval,
        rng,
        expected,
        None if mode == "oracle" else expected,
        expected if mode == "reactive" else None,
        expected.serve,
    )
    assert actual.calls == expected.calls
    assert probes.fired == fired
    assert actual.served == expected.served == len(times)


def _heap_driven_replay(paths, seed):
    """``ProxyCacheSimulator._replay`` with the reference heap in place of
    the probe rounds, drawing from a generator seeded as the probes' own
    is: each run of requests between two firings is served one window at
    a time."""

    def replay(ctx, trace, probes):
        window_end = 0

        def serve(start, stop):
            nonlocal window_end
            while start < stop:
                if start == window_end:
                    window_end = ctx.load_window(start)
                cut = min(stop, window_end)
                simulator_module.serve_batch(ctx, start, cut)
                start = cut

        rng = np.random.default_rng(
            (events_module._REMEASUREMENT_STREAM_TAG, seed & 0xFFFFFFFF, 0)
        )
        probes.fired = _heap_replay(
            trace.times_array,
            paths,
            probes.interval,
            rng,
            probes.log,
            probes.estimator,
            probes.rekeyer,
            serve,
        )

    return staticmethod(replay)


@pytest.mark.parametrize("reactive", [False, True], ids=["remeasure", "reactive"])
@pytest.mark.parametrize("policy_name", sorted(POLICY_REGISTRY))
def test_every_policy_replays_as_under_the_heap(
    columnar_workload, policy_name, reactive, monkeypatch
):
    """A whole replay with probe rounds equals the replay the reference
    heap drives, for every policy, with and without re-keying: the run
    hands the rounds its paths in server-id order and its seed, and a
    round between two chunks leaves the kernel's windows intact."""
    config = _passive_config(
        remeasurement=RemeasurementConfig(interval=150.0),
        reactive_threshold=0.15 if reactive else None,
    )
    simulator = ProxyCacheSimulator(columnar_workload, config)
    topology = simulator.build_topology(np.random.default_rng(config.seed))
    paths = [topology.paths.get(server_id) for server_id in topology.paths.server_ids()]
    rounds = simulator.run(make_policy(policy_name), topology=topology)
    monkeypatch.setattr(
        ProxyCacheSimulator, "_replay", _heap_driven_replay(paths, config.seed)
    )
    heap = simulator.run(make_policy(policy_name), topology=topology)

    def reactive_counters(result):
        return (
            result.reactive_shifts,
            result.reactive_rekeys,
            result.reactive_suppressed,
            result.reactive_rekeys_by_server,
        )

    assert rounds.auxiliary_events_fired == heap.auxiliary_events_fired > 0
    assert rounds.as_dict() == heap.as_dict()
    assert rounds.measurement_log.as_dict() == heap.measurement_log.as_dict()
    assert rounds.heap_statistics == heap.heap_statistics
    assert reactive_counters(rounds) == reactive_counters(heap)
    assert (rounds.reactive_shifts > 0) == reactive
