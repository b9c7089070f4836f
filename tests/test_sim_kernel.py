"""Conformance suite for the request-service kernel.

The kernel contract (:mod:`repro.sim.kernel`) has six observable
promises, each pinned here:

* **Recorded behaviour** — every config in :data:`STAGE_CONFIGS` (one per
  optional subsystem) replays bit-identically to its recorded golden
  (``tests/data/replay_goldens.json``).
* **Chunk boundaries are invisible** — the driver hands the kernel the
  longest runs uninterrupted by auxiliary events or window ends;
  splitting those runs anywhere, down to one request per chunk, must not
  move a single bit of the result, timeline or reports.  Neither may
  reducing the outcome block, or loading a new window of per-request
  lists, every request or every third one.
* **Bounded memory** — a replay's memory grows with its trace only by the
  numpy columns the kernel keeps, not by Python lists of the whole trace.
* **Degenerate transparency** — with every optional subsystem off, the
  kernel reproduces the pre-kernel seed behaviour bit-for-bit (golden
  fixture captured before the kernel refactor).
* **Reference-model agreement** — on random catalogs, traces and cached
  prefixes, the kernel's metrics equal, exactly, the readable reference
  models :meth:`DeliverySession.outcome` fed through
  :meth:`MetricsCollector.record`.
* **One draw path** — each side's bandwidth ratios come as one batch from
  the one model its paths share: a topology whose origin or client-cloud
  paths carry two model instances is refused before any request, and
  hand-built paths without a model share the constant one.  A refused
  run leaves the policy without its run hooks and its trace file closed.
"""

from __future__ import annotations

import gc
import json
import tracemalloc
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.sim.kernel as kernel_module
import repro.sim.simulator as simulator_module
from conftest import replay_golden, result_record
from repro.core.policies import make_policy
from repro.exceptions import ConfigurationError
from repro.network.distributions import NLANRBandwidthDistribution
from repro.network.path import NetworkPath, PathRegistry
from repro.network.topology import ClientCloud, DeliveryTopology
from repro.network.variability import ConstantVariability, NLANRRatioVariability
from repro.obs.config import ObservabilityConfig
from repro.obs.tracing import TraceSink
from repro.sim.config import BandwidthKnowledge, ClientCloudConfig, SimulationConfig
from repro.sim.events import RemeasurementConfig
from repro.sim.faults import FaultConfig
from repro.sim.hierarchy import CacheTier, HierarchyConfig
from repro.sim.metrics import MetricsCollector
from repro.sim.simulator import ProxyCacheSimulator
from repro.sim.streaming import StreamingConfig
from repro.streaming.session import DeliverySession
from repro.trace.columnar import ColumnarTrace
from repro.workload.catalog import Catalog, MediaObject
from repro.workload.gismo import GismoWorkloadGenerator, Workload, WorkloadConfig

GOLDEN_PATH = Path(__file__).parent / "data" / "kernel_degenerate_golden.json"

#: Requests in the conformance workload.
REQUESTS = 1_500


@lru_cache(maxsize=None)
def _workload(seed: int = 7):
    return GismoWorkloadGenerator(
        WorkloadConfig(
            num_objects=50, num_requests=REQUESTS, num_servers=10, seed=seed
        )
    ).generate()


def _config(**overrides) -> SimulationConfig:
    base = dict(cache_size_gb=1.0, seed=5, verify_store=True)
    base.update(overrides)
    return SimulationConfig(**base)


#: Config variants that light up different kernel stages.
STAGE_CONFIGS = {
    "plain": lambda: _config(),
    "passive-reactive": lambda: _config(
        bandwidth_knowledge=BandwidthKnowledge.PASSIVE,
        reactive_threshold=0.15,
        reactive_passive=True,
        reactive_hysteresis=0.05,
    ),
    "faults": lambda: _config(
        faults=FaultConfig(
            random_origin_outages=2,
            random_bandwidth_flaps=3,
            mean_duration_s=500.0,
            seed=3,
        )
    ),
    "streaming": lambda: _config(streaming=StreamingConfig(fraction=1.0, seed=2)),
    "clouds": lambda: _config(
        client_clouds=ClientCloudConfig(
            groups=4, distribution=NLANRBandwidthDistribution()
        )
    ),
    "hierarchy": lambda: _config(
        hierarchy=HierarchyConfig(
            tiers=(
                CacheTier(name="edge", cache_kb=200_000.0, uplink_bandwidth=50.0),
                CacheTier(name="parent", cache_kb=800_000.0, uplink_bandwidth=40.0),
            ),
            num_pops=2,
        )
    ),
}


#: The stage configs plus periodic re-measurement feeding passive-driven
#: re-keying, so auxiliary events split the trace before the test does.
CHUNK_CONFIGS = {
    **STAGE_CONFIGS,
    "remeasure-reactive": lambda: _config(
        bandwidth_knowledge=BandwidthKnowledge.PASSIVE,
        remeasurement=RemeasurementConfig(interval=150.0),
        reactive_threshold=0.15,
        reactive_passive=True,
        reactive_hysteresis=0.05,
    ),
    # Streaming, faults, clouds and passive re-keying all move timeline
    # counters; a window of duration / 40 puts a marker every ~37 requests.
    "timeline": lambda: _config(
        streaming=StreamingConfig(fraction=0.5, seed=2),
        faults=FaultConfig(
            random_origin_outages=2,
            random_bandwidth_flaps=3,
            mean_duration_s=500.0,
            seed=3,
        ),
        client_clouds=ClientCloudConfig(
            groups=4, distribution=NLANRBandwidthDistribution()
        ),
        bandwidth_knowledge=BandwidthKnowledge.PASSIVE,
        reactive_threshold=0.15,
        reactive_passive=True,
        observability=ObservabilityConfig(
            window_s=_workload().trace.duration / 40
        ),
    ),
}

#: Chunk cut points; ``None`` cuts every request into its own chunk.
CUTS = st.one_of(
    st.none(),
    st.lists(st.integers(min_value=1, max_value=REQUESTS - 1), max_size=40),
)


def _replay(config, cuts=(), window_rows=None):
    """Replay the conformance workload, splitting every kernel chunk at
    ``cuts`` (``None``: at every request), with windows of ``window_rows``
    requests (``None``: the kernel's own)."""
    serve_batch = simulator_module.serve_batch

    def split(ctx, start, stop):
        inside = range(start + 1, stop) if cuts is None else cuts
        bounds = sorted({start, stop, *(c for c in inside if start < c < stop)})
        for low, high in zip(bounds, bounds[1:]):
            serve_batch(ctx, low, high)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator_module, "serve_batch", split)
        if window_rows is not None:
            patch.setattr(kernel_module, "WINDOW_ROWS", window_rows)
        return ProxyCacheSimulator(_workload(), config).run(make_policy("PB"))


@lru_cache(maxsize=None)
def _unsplit_record(variant: str) -> str:
    return json.dumps(result_record(_replay(CHUNK_CONFIGS[variant]())))


@pytest.mark.parametrize("variant", sorted(STAGE_CONFIGS))
def test_stage_config_matches_golden(variant):
    replay_golden(f"kernel/{variant}", _workload(), STAGE_CONFIGS[variant]())


@pytest.mark.parametrize("variant", sorted(CHUNK_CONFIGS))
@settings(max_examples=6, deadline=None)
@given(cuts=CUTS, window_rows=st.sampled_from([None, 7]))
@example(cuts=None, window_rows=None)
@example(cuts=list(range(3, REQUESTS, 5)), window_rows=7)
def test_chunk_boundaries_are_invisible(variant, cuts, window_rows):
    """Splitting kernel chunks anywhere, even one request per chunk, leaves
    the result, the timeline and every report bit-identical, also when
    windows of 7 rows end between and on the cuts."""
    split = _replay(CHUNK_CONFIGS[variant](), cuts, window_rows)
    assert json.dumps(result_record(split)) == _unsplit_record(variant)


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1_000), cuts=CUTS)
def test_chunking_is_invisible_for_any_simulation_seed(seed, cuts):
    """Chunk invariance is a property of the kernel, not of one lucky
    seed: the simulation seed moves bandwidths, warmup draws and cache
    contents, and the split replay must still match the unsplit one."""
    config = SimulationConfig(cache_size_gb=1.0, seed=seed)
    split = _replay(config, cuts)
    assert result_record(split) == result_record(_replay(config))


@pytest.mark.parametrize("block_rows", [1, 3])
@pytest.mark.parametrize("variant", sorted(CHUNK_CONFIGS))
def test_outcome_block_boundaries_are_invisible(variant, block_rows, monkeypatch):
    """Reducing the outcome block every ``block_rows`` rows, with timeline
    markers pending, leaves the result, the timeline and every report
    bit-identical.  At the default block size the conformance workload's
    750 measured requests are reduced once, at run end."""
    expected = _unsplit_record(variant)
    monkeypatch.setattr(kernel_module, "BLOCK_ROWS", block_rows)
    assert json.dumps(result_record(_replay(CHUNK_CONFIGS[variant]()))) == expected


@pytest.mark.parametrize("window_rows", [1, 3])
@pytest.mark.parametrize("variant", sorted(CHUNK_CONFIGS))
def test_window_boundaries_are_invisible(variant, window_rows, monkeypatch):
    """Holding the per-request lists ``window_rows`` requests at a time,
    so that the loop's window-local indices restart that often, leaves
    the result, the timeline and every report bit-identical.  At the
    default window the conformance workload's 1,500 requests are one
    window."""
    expected = _unsplit_record(variant)
    monkeypatch.setattr(kernel_module, "WINDOW_ROWS", window_rows)
    assert json.dumps(result_record(_replay(CHUNK_CONFIGS[variant]()))) == expected


def test_degenerate_all_off_matches_pre_kernel_golden():
    """With every optional subsystem off, the kernel-unified simulator
    reproduces the pre-refactor behaviour bit-for-bit, per policy.

    The fixture was captured from the last pre-kernel commit; a diff here
    means the refactor changed simulation semantics, not just structure.
    """
    golden = json.loads(GOLDEN_PATH.read_text())
    workload = _workload(seed=7)
    for policy_name, expected in sorted(golden.items()):
        result = ProxyCacheSimulator(workload, _config()).run(
            make_policy(policy_name)
        )
        assert json.loads(json.dumps(result.as_dict())) == expected, policy_name


class _FixedPrefixPolicy:
    """A stub policy that caches fixed prefixes at install and never
    changes them, so every request's cached KB is known in advance."""

    name = "fixed-prefix"

    def __init__(self, prefixes):
        self.prefixes = prefixes

    def install(self, store, catalog):
        store.reserve(catalog)
        for object_id, kb in self.prefixes.items():
            if kb > 0:
                store.set_cached_bytes(object_id, kb)

    def on_request(self, obj, bandwidth, now, store):
        pass


#: Cached prefix of an object, as a multiple of its size: none, partial,
#: whole, and more than whole (the kernel caps it at the size).
PREFIX_FACTORS = (0.0, 0.3, 1.0, 1.5)

MEDIA_OBJECT = st.tuples(
    st.floats(min_value=5.0, max_value=4_000.0),  # duration (s)
    st.floats(min_value=4.0, max_value=128.0),  # bitrate (KB/s)
    st.integers(min_value=1, max_value=6),  # layers
    st.floats(min_value=0.0, max_value=10.0),  # value
    st.sampled_from(PREFIX_FACTORS),
)


@settings(max_examples=40, deadline=None)
@given(
    objects=st.lists(MEDIA_OBJECT, min_size=1, max_size=40),
    picks=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=200),
    warmup=st.sampled_from((0.0, 0.25, 0.5, 0.9)),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_kernel_matches_the_reference_models(objects, picks, warmup, seed):
    """The kernel's measured-request accounting is the reference models'.

    Each measured request's outcome is recomputed with
    :class:`DeliverySession` on the request's cached prefix and path
    bandwidth and fed to :meth:`MetricsCollector.record`; the finalized
    metrics must equal the replay's exactly, not to a tolerance.
    """
    catalog = Catalog(
        MediaObject(
            object_id=index,
            duration=duration,
            bitrate=bitrate,
            server_id=index % 7,
            value=value,
            layers=layers,
        )
        for index, (duration, bitrate, layers, value, _) in enumerate(objects)
    )
    prefixes = {
        index: factor * catalog.get(index).size
        for index, (*_, factor) in enumerate(objects)
    }
    ids = [pick % len(objects) for pick in picks]
    times = np.cumsum(np.random.default_rng(seed).exponential(30.0, len(ids)))
    workload = Workload(
        catalog=catalog,
        trace=ColumnarTrace(times, ids),
        config=WorkloadConfig(num_objects=len(objects), num_requests=len(ids)),
    )
    config = SimulationConfig(
        cache_size_gb=sum(prefixes.values()) / 1e6 + 1.0,
        variability=ConstantVariability(),
        warmup_fraction=warmup,
        seed=seed,
    )
    simulator = ProxyCacheSimulator(workload, config)
    topology = simulator.build_topology(np.random.default_rng(seed))
    result = simulator.run(_FixedPrefixPolicy(prefixes), topology=topology)

    cutoff = int(warmup * len(ids))
    reference = MetricsCollector(measuring=True)
    for object_id in ids[cutoff:]:
        obj = catalog.get(object_id)
        bandwidth = max(topology.path_for(obj).base_bandwidth, 1.0)
        reference.record(
            DeliverySession(obj, prefixes[object_id], bandwidth).outcome()
        )
    assert result.metrics.as_dict() == reference.finalize().as_dict()
    assert result.warmup_requests == cutoff


class _CountingPolicy(_FixedPrefixPolicy):
    """Caches nothing and counts the requests it is shown."""

    def __init__(self):
        super().__init__({})
        self.requests = 0

    def on_request(self, obj, bandwidth, now, store):
        self.requests += 1


class _TwoMethodPolicy:
    """Only what ``run`` asks of a policy: a name and ``on_request``."""

    name = "two-method"

    def __init__(self):
        self.requests = 0

    def on_request(self, obj, bandwidth, now, store):
        self.requests += 1


@pytest.mark.parametrize("tiered", [False, True], ids=["flat", "2-tier"])
def test_a_policy_without_install_replays(tiered):
    """``run`` and the hierarchy size the stores they build themselves, so
    a policy with no ``install`` replays, flat and as the policy every tier
    copies, and caches nothing."""
    overrides = {}
    if tiered:
        overrides["hierarchy"] = HierarchyConfig(
            tiers=(
                CacheTier(name="edge", cache_kb=200_000.0),
                CacheTier(name="parent", cache_kb=800_000.0),
            ),
            num_pops=2,
        )
    policy = _TwoMethodPolicy()
    result = ProxyCacheSimulator(_workload(), _config(**overrides)).run(policy)
    assert result.metrics.requests == REQUESTS - result.warmup_requests > 0
    assert result.metrics.bytes_from_cache_gb == 0.0
    # The tiers serve copies of the policy; the flat run serves it.
    assert policy.requests == (0 if tiered else REQUESTS)


@pytest.mark.parametrize("side", ["origin", "client-cloud"])
def test_paths_carrying_two_models_are_refused_before_any_request(side):
    """Each side's ratios are one batch from the one model its paths share,
    so a topology whose origin paths, or whose client-cloud paths, carry
    two model instances is refused, naming the side, before any request
    is served."""
    simulator = ProxyCacheSimulator(
        _workload(), _config(variability=NLANRRatioVariability())
    )
    topology = simulator.build_topology(np.random.default_rng(5))
    if side == "origin":
        next(iter(topology.paths)).variability = NLANRRatioVariability()
    else:
        topology.clients = ClientCloud(
            paths=(
                NetworkPath(0, 50.0, NLANRRatioVariability()),
                NetworkPath(1, 80.0, NLANRRatioVariability()),
            )
        )
    policy = _CountingPolicy()
    with pytest.raises(ConfigurationError, match=f"the {side} paths"):
        simulator.run(policy, topology=topology)
    assert policy.requests == 0


def test_a_refused_run_takes_back_its_side_effects(tmp_path, monkeypatch):
    """A run refused while its kernel context is built has by then opened
    its trace file and given the policy its streaming hooks: it closes the
    file and takes the hooks off the policy again.  The run is profiled,
    and the profiler never sets a wrapper on the policy at all."""
    sinks = []

    class RecordingSink(TraceSink):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sinks.append(self)

    monkeypatch.setattr(simulator_module, "TraceSink", RecordingSink)
    simulator = ProxyCacheSimulator(
        _workload(),
        _config(
            variability=NLANRRatioVariability(),
            streaming=StreamingConfig(fraction=1.0, seed=2),
            observability=ObservabilityConfig(
                timeline=False, trace_path=str(tmp_path / "run.jsonl"), profile=True
            ),
        ),
    )
    topology = simulator.build_topology(np.random.default_rng(5))
    next(iter(topology.paths)).variability = NLANRRatioVariability()
    policy = make_policy("PB")
    with pytest.raises(ConfigurationError, match="the origin paths"):
        simulator.run(policy, topology=topology)
    assert policy.stream_quantize is None and policy.stream_trim is None
    assert "on_request" not in vars(policy)
    assert len(sinks) == 1 and sinks[0]._handle is None


def test_hand_built_default_paths_replay_like_one_shared_constant_model():
    """Paths built without a model share the one constant model, so a
    hand-built registry of them replays, exactly as one explicit shared
    :class:`ConstantVariability` does."""
    workload = _workload()

    def topology(variability):
        return DeliveryTopology(
            workload.catalog,
            PathRegistry(
                NetworkPath(server, 10.0 + 5.0 * server, variability)
                for server in workload.catalog.server_ids()
            ),
        )

    simulator = ProxyCacheSimulator(workload, _config())
    default = simulator.run(make_policy("PB"), topology=topology(None))
    shared = simulator.run(make_policy("PB"), topology=topology(ConstantVariability()))
    assert default.metrics.requests > 0
    assert result_record(default) == result_record(shared)


def _memory_workload(sparse: bool, repeats: int) -> Workload:
    """One window's worth of requests (so a replay of it already fills a
    whole window), played ``repeats`` times back to back; with ``sparse``
    every object id becomes ``id * 7919 + 50_000_000``, in the catalog
    and the trace, so the replay keys its tables by dict."""
    workload = GismoWorkloadGenerator(
        WorkloadConfig(
            num_objects=500,
            num_requests=kernel_module.WINDOW_ROWS,
            num_servers=20,
            seed=4,
        )
    ).generate()
    trace = workload.trace
    relabel = (lambda ids: ids * 7919 + 50_000_000) if sparse else (lambda ids: ids)
    span = trace.times_array[-1] - trace.times_array[0] + 1.0
    return Workload(
        catalog=Catalog(
            MediaObject(
                object_id=relabel(obj.object_id),
                duration=obj.duration,
                bitrate=obj.bitrate,
                server_id=obj.server_id,
                value=obj.value,
                layers=obj.layers,
            )
            for obj in workload.catalog
        ),
        trace=ColumnarTrace(
            np.concatenate([trace.times_array + k * span for k in range(repeats)]),
            relabel(np.tile(trace.object_ids_array, repeats)),
            np.tile(trace.client_ids_array, repeats),
        ),
        config=workload.config,
    )


def _replay_peak_growth(workload, config) -> int:
    """How far the traced peak of one PB replay rises above the memory
    traced when it starts, in bytes."""
    gc.collect()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    ProxyCacheSimulator(workload, config).run(make_policy("PB"))
    return tracemalloc.get_traced_memory()[1] - before


@pytest.mark.parametrize(
    "sparse, subsystems, bound",
    [
        (False, {}, 16.0),
        (True, {}, 16.0),
        (
            False,
            {
                "client_clouds": ClientCloudConfig(
                    groups=4, distribution=NLANRBandwidthDistribution()
                )
            },
            28.0,
        ),
        (
            False,
            {
                "hierarchy": HierarchyConfig(
                    tiers=(
                        CacheTier(name="edge", cache_kb=20_000.0),
                        CacheTier(name="parent", cache_kb=80_000.0),
                    ),
                    num_pops=4,
                )
            },
            12.0,
        ),
        (
            False,
            {
                "bandwidth_knowledge": BandwidthKnowledge.PASSIVE,
                "remeasurement": RemeasurementConfig(interval=60.0),
            },
            16.0,
        ),
    ],
    ids=["dense", "sparse", "clouds", "pops", "remeasure"],
)
def test_replay_memory_grows_only_by_its_numpy_columns(sparse, subsystems, bound):
    """A replay holds its per-request columns as numpy arrays and only one
    window of them as lists, so playing the same trace four times over
    raises its peak by the 8-byte observed-bandwidth column per extra
    request, not by lists of the whole trace (87 bytes per request for
    dense ids, 104 for sparse ones, when every column was a list).  Client
    clouds keep one more drawn column, the observed last mile; the client
    group, the group's base bandwidth and the pop are derived from the
    client ids one window at a time (32 and 16 bytes per request with 4
    cloud groups and with 4 pops when they were whole-trace columns).
    Probing the 20 paths once a minute, about one probe per request, adds
    nothing per request: a run holds one batch of samples per path, not
    its probes."""
    once = _memory_workload(sparse, 1)
    four = _memory_workload(sparse, 4)
    config = SimulationConfig(
        cache_size_gb=0.01 * once.catalog.total_size_gb,
        variability=NLANRRatioVariability(),
        seed=3,
        **subsystems,
    )
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        _replay_peak_growth(once, config)  # warm-up: first-run allocations
        growth_once = _replay_peak_growth(once, config)
        growth_four = _replay_peak_growth(four, config)
    finally:
        if started:
            tracemalloc.stop()
    extra_requests = len(four.trace) - len(once.trace)
    assert (growth_four - growth_once) / extra_requests <= bound
