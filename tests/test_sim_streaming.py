"""Streaming sessions in the simulator: segment-aware delivery, partial-
object caching, and QoE metrics through the replay driver.

Four families of guarantees are pinned here:

* **Bit-identity, streaming off** — ``streaming=None`` replays exactly
  like a config that never mentions streaming, for every registered
  policy (the engine is never constructed, so no extra RNG draws happen).
* **Bit-identity, streaming on** — prefix and whole-object modes, VBR
  mixes, a uniform multi-segment layout, client clouds, faults, and
  observability each reproduce the metrics, timelines, and streaming
  reports recorded in ``tests/data/replay_goldens.json``.
* **Session semantics** — the deterministic wait / degrade / abandon
  client choice, byte accounting, fragment trims, prefetch entitlements,
  and pressure trims of :class:`~repro.sim.streaming.StreamingDeliveryEngine`,
  by hand and against a reference built from the public building blocks
  on random objects, prefixes and bandwidths.
* **Golden QoE values** — one committed fixture pins the headline QoE
  numbers byte-exactly, so a change to the kernel or the engine shows up
  as a diff here before it ships.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.policies import make_policy
from repro.core.store import CacheStore
from repro.exceptions import ConfigurationError
from repro.network.distributions import NLANRBandwidthDistribution
from repro.network.variability import NLANRRatioVariability
from repro.obs import ObservabilityConfig
from repro.sim.config import BandwidthKnowledge, ClientCloudConfig, SimulationConfig
from repro.sim.faults import FaultConfig, FaultEpisode
from repro.sim.simulator import ProxyCacheSimulator
from repro.sim.streaming import (
    StreamingConfig,
    StreamingDeliveryEngine,
    select_stream_ids,
)
from repro.streaming.media import LayeredEncoding
from repro.streaming.prefetch import plan_prefix_prefetch
from repro.workload.catalog import Catalog, MediaObject
from repro.workload.gismo import GismoWorkloadGenerator, WorkloadConfig

from conftest import GOLDEN_POLICIES, replay_golden


@pytest.fixture(scope="module")
def workload():
    config = WorkloadConfig(seed=7).scaled(0.02)  # 100 objects, 2000 requests
    return GismoWorkloadGenerator(config).generate()


def _config(**overrides):
    base = dict(
        cache_size_gb=0.5,
        variability=NLANRRatioVariability(),
        bandwidth_knowledge=BandwidthKnowledge.PASSIVE,
        seed=11,
    )
    base.update(overrides)
    return SimulationConfig(**base)


def _streaming(**overrides):
    base = dict(fraction=0.5, vbr_fraction=0.25, seed=3)
    base.update(overrides)
    return StreamingConfig(**base)


# ----------------------------------------------------------------------
# Config validation and stream-id selection
# ----------------------------------------------------------------------
class TestStreamingConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fraction": 0.0},
            {"fraction": 1.5},
            {"base_segment_kb": 0.0},
            {"base_segment_kb": float("nan")},
            {"base_segment_kb": float("inf")},
            {"prefetch_segments": -1},
            {"abandon_after_s": 0.0},
            {"abandon_after_s": float("nan")},
            {"vbr_fraction": -0.1},
            {"vbr_fraction": 1.1},
            {"vbr_burstiness": 1.0},
            # The square underflows: 1 / b**2 divides by zero, or is inf.
            {"vbr_burstiness": 1e-200},
            {"vbr_burstiness": 1e-160},
            {"smoothing_buffer_s": -1.0},
            {"smoothing_buffer_s": float("nan")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            StreamingConfig(**kwargs)

    def test_scheme_carries_segment_layout(self):
        scheme = StreamingConfig(
            base_segment_kb=64.0, exponential_segments=False
        ).scheme()
        assert scheme.base_segment_kb == 64.0
        assert not scheme.exponential


class TestSelectStreamIds:
    def test_full_fraction_selects_everything_without_rng(self, workload):
        stream_ids, vbr_ids = select_stream_ids(
            workload.catalog, StreamingConfig(fraction=1.0), sim_seed=11
        )
        assert stream_ids == sorted(o.object_id for o in workload.catalog)
        assert vbr_ids == []

    def test_partial_fraction_is_deterministic_and_sized(self, workload):
        config = StreamingConfig(fraction=0.3, vbr_fraction=0.5, seed=5)
        first = select_stream_ids(workload.catalog, config, sim_seed=11)
        second = select_stream_ids(workload.catalog, config, sim_seed=11)
        assert first == second
        stream_ids, vbr_ids = first
        assert len(stream_ids) == int(0.3 * len(workload.catalog) + 1e-9)
        assert len(vbr_ids) == int(0.5 * len(stream_ids) + 1e-9)
        assert set(vbr_ids) <= set(stream_ids)
        assert stream_ids == sorted(stream_ids)

    def test_selection_varies_with_both_seeds(self, workload):
        config = StreamingConfig(fraction=0.3, seed=5)
        base = select_stream_ids(workload.catalog, config, sim_seed=11)[0]
        other_sim = select_stream_ids(workload.catalog, config, sim_seed=12)[0]
        other_cfg = select_stream_ids(
            workload.catalog, replace(config, seed=6), sim_seed=11
        )[0]
        assert base != other_sim or base != other_cfg


# ----------------------------------------------------------------------
# Engine unit semantics (hand-built catalog, direct store control)
# ----------------------------------------------------------------------
@pytest.fixture
def engine_setup():
    """One 4-layer 100 s, 48 KB/s stream (4800 KB) over uniform segments."""
    catalog = Catalog(
        [
            MediaObject(object_id=0, duration=100.0, bitrate=48.0, server_id=0),
            MediaObject(object_id=1, duration=50.0, bitrate=96.0, server_id=0),
        ]
    )
    store = CacheStore(100_000.0)
    store.reserve(catalog)
    config = StreamingConfig(
        fraction=1.0,
        base_segment_kb=100.0,
        exponential_segments=False,
        prefetch_segments=2,
        abandon_after_s=60.0,
    )
    return StreamingDeliveryEngine(config, catalog, store, sim_seed=0), store


class TestServeSemantics:
    def test_fully_cached_plays_instantly_from_cache(self, engine_setup):
        engine, store = engine_setup
        store.set_cached_bytes(0, 4800.0)
        cache_b, server_b, delay, quality, full = engine.serve(0, 10.0, 0.0, True)
        assert (cache_b, server_b) == (4800.0, 0.0)
        assert delay == 0.0 and quality == 1.0 and full
        assert engine.sessions == 1 and engine.waited == 0

    def test_fast_path_plays_instantly_from_server(self, engine_setup):
        engine, store = engine_setup
        cache_b, server_b, delay, quality, full = engine.serve(0, 48.0, 0.0, True)
        assert (cache_b, server_b) == (0.0, 4800.0)
        assert delay == 0.0 and quality == 1.0 and full

    def test_short_startup_delay_is_waited_out(self, engine_setup):
        engine, store = engine_setup
        # 40 KB/s against 48 KB/s: missing = 100*48 - 100*40 = 800 KB,
        # startup delay = 800 / 40 = 20 s <= 60 s budget.
        cache_b, server_b, delay, quality, full = engine.serve(0, 40.0, 0.0, True)
        assert delay == pytest.approx(20.0)
        assert quality == 1.0 and full
        assert (cache_b, server_b) == (0.0, 4800.0)
        assert engine.waited == 1 and engine.rebuffer_sum == pytest.approx(20.0)
        assert engine.watch_sum == pytest.approx(100.0)

    def test_long_delay_degrades_to_sustainable_layers(self, engine_setup):
        engine, store = engine_setup
        # 13 KB/s sustains 1 of 4 layers (layer rate 12 KB/s); waiting
        # would take (4800 - 1300) / 13 = 269 s > 60 s, so degrade.
        cache_b, server_b, delay, quality, full = engine.serve(0, 13.0, 0.0, True)
        assert delay == 0.0
        assert quality == pytest.approx(0.25) and not full
        assert (cache_b, server_b) == (0.0, pytest.approx(0.25 * 4800.0))
        assert engine.degraded == 1

    def test_unsustainable_path_abandons(self, engine_setup):
        engine, store = engine_setup
        # 5 KB/s sustains zero layers and full quality needs 860 s: abandon.
        cache_b, server_b, delay, quality, full = engine.serve(0, 5.0, 0.0, True)
        assert delay == pytest.approx(60.0)
        assert quality == 0.0 and not full
        # The server bytes streamed during the futile wait are wasted.
        assert (cache_b, server_b) == (0.0, pytest.approx(5.0 * 60.0))
        assert engine.abandoned == 1 and engine.watch_sum == 0.0

    def test_cached_prefix_shortens_startup_delay(self, engine_setup):
        engine, store = engine_setup
        store.set_cached_bytes(0, 800.0)  # exactly the 40 KB/s shortfall
        cache_b, server_b, delay, quality, full = engine.serve(0, 40.0, 0.0, True)
        assert delay == 0.0 and quality == 1.0
        assert cache_b == pytest.approx(800.0)
        assert server_b == pytest.approx(4000.0)

    def test_mid_segment_fragment_is_trimmed_at_serve(self, engine_setup):
        engine, store = engine_setup
        store.set_cached_bytes(0, 350.0)  # 3.5 uniform 100 KB segments
        engine.serve(0, 48.0, 0.0, True)
        assert store.cached_bytes(0) == pytest.approx(300.0)
        assert engine.fragment_trims == 1

    def test_warmup_sessions_mutate_cache_but_not_counters(self, engine_setup):
        engine, store = engine_setup
        store.set_cached_bytes(0, 350.0)
        engine.serve(0, 48.0, 0.0, False)
        assert store.cached_bytes(0) == pytest.approx(300.0)
        assert engine.sessions == 0 and engine.quality_sum == 0.0
        # ... but the structural counter still records the trim.
        assert engine.fragment_trims == 1

    def test_retry_wait_adds_to_delay_without_stall_classification(
        self, engine_setup
    ):
        engine, store = engine_setup
        cache_b, server_b, delay, quality, full = engine.serve(
            0, 48.0, 0.0, True, waited=2.5
        )
        assert delay == pytest.approx(2.5)
        assert quality == 1.0 and full
        # The retry backoff is startup delay, not a mid-play rebuffer wait.
        assert engine.waited == 0

    def test_record_failed_counts_as_abandonment(self, engine_setup):
        engine, store = engine_setup
        engine.record_failed(7.0, 0.25)
        assert engine.sessions == 1 and engine.abandoned == 1
        assert engine.startup_sum == pytest.approx(7.0)
        assert engine.quality_sum == pytest.approx(0.25)

    def test_report_aggregates_counters(self, engine_setup):
        engine, store = engine_setup
        engine.serve(0, 40.0, 0.0, True)   # waited 20 s
        engine.serve(0, 5.0, 1.0, True)    # abandoned
        report = engine.report()
        assert report.sessions == 2
        assert report.waited_sessions == 1
        assert report.abandoned_sessions == 1
        assert report.mean_startup_delay_s == pytest.approx((20.0 + 60.0) / 2)
        assert report.rebuffer_ratio == pytest.approx(80.0 / 180.0)
        assert report.abandonment_rate == pytest.approx(0.5)
        assert set(report.as_dict()) >= {
            "mean_startup_delay_s",
            "rebuffer_ratio",
            "mean_quality",
            "abandonment_rate",
        }


class TestAdmissionAndTrim:
    def test_admission_quantizes_up_to_segment_boundary(self, engine_setup):
        engine, store = engine_setup
        assert engine.admission_target(0, 250.0, 4800.0) == pytest.approx(300.0)
        assert engine.admission_target(0, 300.0, 4800.0) == pytest.approx(300.0)

    def test_admission_passes_through_non_streams_and_zero(self, engine_setup):
        engine, store = engine_setup
        assert engine.admission_target(99, 250.0, 4800.0) == 250.0
        assert engine.admission_target(0, 0.0, 4800.0) == 0.0

    def test_played_session_entitles_prefetch_extension(self, engine_setup):
        engine, store = engine_setup
        engine.serve(0, 48.0, 0.0, True)  # plays -> 2 extra segments
        assert engine.admission_target(0, 250.0, 4800.0) == pytest.approx(500.0)
        assert engine.prefetch_extensions == 1

    def test_abandoned_session_entitles_no_prefetch(self, engine_setup):
        engine, store = engine_setup
        engine.serve(0, 5.0, 0.0, True)  # abandons -> no entitlement
        assert engine.admission_target(0, 250.0, 4800.0) == pytest.approx(300.0)
        assert engine.prefetch_extensions == 0

    def test_whole_object_mode_admits_all_or_nothing(self, engine_setup):
        engine, store = engine_setup
        catalog = Catalog([MediaObject(object_id=0, duration=100.0, bitrate=48.0)])
        store.reserve(catalog)
        whole = StreamingDeliveryEngine(
            replace(engine.config, prefix_caching=False), catalog, store
        )
        assert whole.admission_target(0, 250.0, 4800.0) == 4800.0
        assert whole.admission_target(0, 0.0, 4800.0) == 0.0

    def test_trim_victim_drops_tail_segments(self, engine_setup):
        engine, store = engine_setup
        store.set_cached_bytes(0, 500.0)
        reclaimed, emptied = engine.trim_victim(0, 150.0)
        # Dropping whole tail segments reclaims at least what was asked.
        assert reclaimed == pytest.approx(200.0)
        assert not emptied
        assert store.cached_bytes(0) == pytest.approx(300.0)
        assert engine.pressure_trimmed_kb == pytest.approx(200.0)

    def test_trim_victim_empties_when_need_exceeds_residency(self, engine_setup):
        engine, store = engine_setup
        store.set_cached_bytes(0, 300.0)
        reclaimed, emptied = engine.trim_victim(0, 1_000.0)
        assert reclaimed == pytest.approx(300.0)
        assert emptied
        assert store.cached_bytes(0) == 0.0

    def test_trim_victim_ignores_non_streams(self, engine_setup):
        engine, store = engine_setup
        assert engine.trim_victim(99, 100.0) is None


# ----------------------------------------------------------------------
# Reference-model agreement: serve against its public building blocks
# ----------------------------------------------------------------------
#: Every QoE counter of the engine; a session moves all but
#: ``prefetch_extensions`` and ``pressure_trimmed_kb``.
SESSION_COUNTERS = (
    "sessions",
    "startup_sum",
    "rebuffer_sum",
    "watch_sum",
    "quality_sum",
    "abandoned",
    "waited",
    "degraded",
    "feasible_suffix",
    "prefetch_extensions",
    "fragment_trims",
    "pressure_trimmed_kb",
)


def _walking_floor(size, scheme, kb):
    """The segment floor of ``kb`` by the walk a fresh prefix used to take:
    up the boundary table to the ceiling, then back down while an entry
    exceeds ``kb``, one entry per step.  It calls no ``SegmentedPrefix``
    method: ``serve`` floors with one."""
    sizes = [segment.size for segment in scheme.segments(size)]
    cum = [sum(sizes[:k]) for k in range(len(sizes) + 1)]
    resident, last = 0, len(cum) - 1
    while cum[resident] < min(kb, size) and resident < last:
        resident += 1
    while resident > 0 and cum[resident] > kb:
        resident -= 1
    return cum[resident]


def _reference_session(obj, required_rate, scheme, stored, bandwidth, patience, waited):
    """One session as the engine documents it, from the public pieces.

    Residency is floored by walking the segment boundaries, the
    full-quality delay comes from :func:`plan_prefix_prefetch` (at the
    smoothed peak rate for a VBR stream) and the degraded layer count
    from :meth:`LayeredEncoding.supported_layers`.  Returns the expected
    ``serve`` tuple, the expected counter moves, the KB left in the store
    and whether the session played.
    """
    size = obj.size
    cached = left = stored
    trims = 0
    if cached > 0.0:
        floored = _walking_floor(size, scheme, cached)
        if floored < cached - 1e-9 * max(size, 1.0):
            # A fragment past the last whole segment is trimmed away.
            cached = left = floored
            trims = 1
        elif cached > size:
            cached = size
    plan = plan_prefix_prefetch(obj, cached, bandwidth)
    delay_full = plan.startup_delay
    if required_rate != obj.bitrate:
        peak = MediaObject(0, obj.duration, required_rate, layers=obj.layers)
        delay_full = plan_prefix_prefetch(peak, cached, bandwidth).startup_delay
    encoding = LayeredEncoding(full_rate=required_rate, layers=obj.layers)
    layers_ok = encoding.supported_layers(cached / obj.duration + max(bandwidth, 0.0))

    abandoned = False
    if delay_full <= 0.0:
        stall, quality, watch = 0.0, 1.0, obj.duration
    elif delay_full <= patience:
        stall, quality, watch = delay_full, 1.0, obj.duration
    elif layers_ok >= 1:
        stall, quality, watch = 0.0, layers_ok / obj.layers, obj.duration
    else:
        abandoned = True
        stall, quality, watch = patience, 0.0, 0.0
    if abandoned:
        bytes_cache, bytes_server = 0.0, min(bandwidth * stall, size - cached)
    else:
        bytes_cache, bytes_server = quality * cached, quality * (size - cached)
    delay = stall + waited
    counters = {
        "sessions": 1,
        "startup_sum": delay,
        "rebuffer_sum": delay,
        "watch_sum": watch,
        "quality_sum": quality,
        "abandoned": int(abandoned),
        "waited": int(not abandoned and stall > 0.0),
        "degraded": int(not abandoned and stall == 0.0 and quality < 1.0),
        "feasible_suffix": int(plan.feasible_without_delay),
    }
    result = (bytes_cache, bytes_server, delay, quality, quality >= 1.0)
    return result, counters, trims, left, not abandoned


@st.composite
def stream_sessions(draw):
    """A one-object engine set-up and one session against it."""
    duration = draw(st.floats(min_value=5.0, max_value=900.0))
    bitrate = draw(st.floats(min_value=4.0, max_value=128.0))
    obj = MediaObject(0, duration, bitrate, layers=draw(st.integers(1, 6)))
    vbr = draw(st.booleans())
    config = StreamingConfig(
        fraction=1.0,
        # At most ~150 uniform segments, so the tables stay cheap to build.
        base_segment_kb=obj.size * draw(st.floats(min_value=0.007, max_value=1.5)),
        exponential_segments=draw(st.booleans()),
        prefetch_segments=draw(st.integers(0, 3)),
        abandon_after_s=draw(st.floats(min_value=1.0, max_value=120.0)),
        vbr_fraction=1.0 if vbr else 0.0,
        vbr_burstiness=draw(st.sampled_from((0.0, 0.3, 0.6, 0.9))),
        seed=draw(st.integers(0, 1_000)),
    )
    required_rate = obj.bitrate
    if vbr:
        peak = StreamingDeliveryEngine._smoothed_peak_rate(obj, config)
        required_rate = max(required_rate, peak)

    segments = config.scheme().segments(obj.size)
    segment = segments[draw(st.integers(0, len(segments) - 1))]
    inside = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
    offset = draw(inside)
    stored = {
        "zero": 0.0,
        "mid-segment": segment.start + offset * segment.size,
        "boundary": segment.end,
        "size": obj.size,
        "past-size": obj.size * (1.0 + offset),
    }[draw(st.sampled_from(("zero", "mid-segment", "boundary", "size", "past-size")))]
    fraction = draw(inside)
    layer_rate = required_rate / obj.layers
    bandwidth = {
        "zero": 0.0,
        "below-one-layer": fraction * layer_rate,
        "between-layers": layer_rate + fraction * (required_rate - layer_rate),
        "above-bitrate": required_rate * (1.0 + fraction),
    }[draw(st.sampled_from(
        ("zero", "below-one-layer", "between-layers", "above-bitrate")
    ))]
    waited = draw(st.sampled_from((0.0, 0.0, 1.5, 30.0)))
    return obj, config, required_rate, stored, bandwidth, waited, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(session=stream_sessions())
@example(  # a startup delay of exactly the patience (800 KB short at 40 KB/s)
    session=(
        MediaObject(0, 100.0, 48.0),
        StreamingConfig(base_segment_kb=100.0, abandon_after_s=20.0),
        48.0, 0.0, 40.0, 0.0, True,
    )
)
@example(  # two layers' rate that divides to 1.9999999999999998 layers
    session=(
        MediaObject(0, 600.0, 4.2, layers=3),
        StreamingConfig(),
        4.2, 0.0, 2.8, 0.0, True,
    )
)
def test_serve_matches_the_reference_session(session):
    obj, config, required_rate, stored, bandwidth, waited, measuring = session
    catalog = Catalog([obj])
    store = CacheStore(1e12)
    store.reserve(catalog)
    engine = StreamingDeliveryEngine(config, catalog, store)
    if stored > 0.0:
        store.set_cached_bytes(0, stored)
    expected, moves, trims, left, played = _reference_session(
        obj, required_rate, config.scheme(), stored, bandwidth,
        config.abandon_after_s, waited,
    )

    assert engine.serve(0, bandwidth, 10.0, measuring, waited) == expected
    counters = {name: getattr(engine, name) for name in SESSION_COUNTERS}
    want = dict.fromkeys(SESSION_COUNTERS, 0)
    if measuring:
        want.update(moves)
    want["fragment_trims"] = trims
    assert counters == want
    assert store.cached_bytes(0) == pytest.approx(left, rel=1e-12, abs=1e-9)

    # A session that played entitles its object to the configured
    # prefetch segments on the next admission; an abandoned one to none.
    segments = config.scheme().segments(obj.size)
    engine.admission_target(0, segments[0].end / 2.0, obj.size)
    extends = played and config.prefetch_segments > 0 and len(segments) > 1
    assert engine.prefetch_extensions == int(extends)


# ----------------------------------------------------------------------
# Golden bit-identity, streaming off and on
# ----------------------------------------------------------------------
class TestReplayIdentity:
    def test_streaming_none_identical_to_default_config(self, workload):
        """``streaming=None`` must replay exactly like a pre-streaming config."""
        for config in (_config(streaming=None), _config()):
            result = replay_golden("streaming/off", workload, config)
            assert result.streaming_report is None

    @pytest.mark.parametrize("policy_name", sorted(GOLDEN_POLICIES))
    def test_all_paths_identical_per_policy(self, workload, policy_name):
        config = _config(streaming=_streaming())
        result = replay_golden(
            f"streaming/{policy_name}", workload, config, GOLDEN_POLICIES[policy_name]
        )
        report = result.streaming_report
        assert report is not None and report.sessions > 0

    def test_all_paths_identical_whole_object_mode(self, workload):
        config = _config(streaming=_streaming(prefix_caching=False))
        result = replay_golden("streaming/whole-object", workload, config)
        report = result.streaming_report
        assert report.pressure_trimmed_kb == 0.0
        assert report.prefetch_extensions == 0

    def test_uniform_layout_with_multi_segment_prefetch(self, workload):
        """Fixed-size segments: many per object, several prefetch steps each.

        The default exponential layout keeps objects at a dozen segments
        or fewer; this one walks far longer segment runs on admission,
        fragment trims and pressure trims.  The base is a power of two, so
        the boundary sums carry no rounding that sum() could resolve
        differently from one Python version to the next.
        """
        config = _config(
            streaming=_streaming(
                exponential_segments=False, base_segment_kb=1024.0, prefetch_segments=2
            )
        )
        report = replay_golden("streaming/uniform", workload, config).streaming_report
        assert report.prefetch_extensions > 0
        assert report.fragment_trims > 0
        assert report.pressure_trimmed_kb > 0.0

    def test_all_paths_identical_with_clouds_and_observability(self, workload):
        config = _config(
            streaming=_streaming(),
            client_clouds=ClientCloudConfig(
                groups=8, distribution=NLANRBandwidthDistribution()
            ),
            observability=ObservabilityConfig(window_s=1800.0),
        )
        timeline = replay_golden("streaming/clouds-timeline", workload, config).timeline
        assert timeline is not None and timeline.finished

    def test_all_paths_identical_with_faults(self, workload):
        trace = workload.trace
        span = trace.end_time - trace.start_time
        counts = {}
        for object_id, count in trace.request_counts().items():
            server = workload.catalog.get(int(object_id)).server_id
            counts[server] = counts.get(server, 0) + int(count)
        busiest = max(counts, key=counts.get)
        outage = FaultEpisode(
            "origin-outage",
            trace.start_time + 0.3 * span,
            trace.start_time + 0.5 * span,
            server_id=busiest,
        )
        config = _config(
            streaming=_streaming(),
            faults=FaultConfig(episodes=(outage,)),
        )
        reference = replay_golden("streaming/faults", workload, config)
        assert reference.fault_report.failed_fetches > 0
        # Failed stream fetches are accounted as abandoned sessions.
        assert reference.streaming_report.abandoned_sessions > 0

    def test_streaming_on_differs_from_streaming_off(self, workload):
        on = ProxyCacheSimulator(workload, _config(streaming=_streaming())).run(
            make_policy("PB")
        )
        off = ProxyCacheSimulator(workload, _config()).run(make_policy("PB"))
        assert on.metrics != off.metrics


# ----------------------------------------------------------------------
# Timeline integration: windowed QoE series
# ----------------------------------------------------------------------
class TestStreamingTimeline:
    def test_streaming_series_present_and_zero_when_off(self, workload):
        config = _config(observability=ObservabilityConfig(window_s=1800.0))
        result = ProxyCacheSimulator(workload, config).run(make_policy("PB"))
        series = result.timeline.series()
        for name in (
            "streaming_startup_delay",
            "streaming_rebuffer_ratio",
            "streaming_quality",
            "streaming_abandonment_rate",
        ):
            assert name in series
            np.testing.assert_array_equal(series[name], 0.0)

    def test_timeline_totals_match_engine_report(self, workload):
        config = _config(
            streaming=_streaming(),
            client_clouds=ClientCloudConfig(groups=8, bandwidth=30.0),
            observability=ObservabilityConfig(window_s=1800.0),
        )
        result = ProxyCacheSimulator(workload, config).run(make_policy("PB"))
        report = result.streaming_report
        totals = result.timeline.totals()
        assert totals["streaming_sessions"] == report.sessions
        assert totals["streaming_abandoned"] == report.abandoned_sessions
        assert totals["streaming_startup_sum"] == pytest.approx(
            report.mean_startup_delay_s * report.sessions
        )
        # The windowed quality series telescopes back to the aggregate.
        series = result.timeline.series()
        sessions = result.timeline.delta("streaming_sessions").astype(float)
        weighted = float(np.sum(series["streaming_quality"] * sessions))
        assert weighted == pytest.approx(report.mean_quality * report.sessions)


# ----------------------------------------------------------------------
# Golden QoE fixture: committed headline values, byte-exact
# ----------------------------------------------------------------------

#: Expected streaming report for the fixed golden configuration below
#: (workload seed 7 at scale 0.02; streaming fraction 0.5, VBR 0.25,
#: seed 3; homogeneous 30 KB/s client clouds; PB at 0.5 GB, sim seed 11).
#: Values are asserted with ``==`` — any drift in the engine or in the
#: replay loop must show up as a diff here before it ships.
#: Regenerate by running this config once and updating the literals.
GOLDEN_QOE = {
    "stream_objects": 50.0,
    "sessions": 579.0,
    "waited_sessions": 0.0,
    "degraded_sessions": 334.0,
    "abandoned_sessions": 159.0,
    "mean_startup_delay_s": 16.476683937823836,
    "rebuffer_ratio": 0.008459409136205845,
    "mean_quality": 0.3842832469775475,
    "abandonment_rate": 0.27461139896373055,
    "feasible_suffix_sessions": 168.0,
    "prefetch_extensions": 574.0,
    "fragment_trims": 85.0,
    "pressure_trimmed_kb": 6027604.9910636125,
}


class TestGoldenQoE:
    def _golden_config(self):
        return _config(
            streaming=_streaming(),
            client_clouds=ClientCloudConfig(groups=8, bandwidth=30.0),
        )

    def test_golden_qoe_values_identical_on_all_paths(self, workload):
        result = ProxyCacheSimulator(workload, self._golden_config()).run(
            make_policy("PB")
        )
        assert result.streaming_report.as_dict() == GOLDEN_QOE


# ----------------------------------------------------------------------
# Ablation: prefix caching beats whole-object caching on QoE
# ----------------------------------------------------------------------
class TestPrefixBeatsWholeObject:
    def test_prefix_wins_on_startup_delay_and_rebuffer(self, workload):
        clouds = ClientCloudConfig(
            groups=8, distribution=NLANRBandwidthDistribution()
        )
        base = _config(cache_size_gb=0.3, client_clouds=clouds)
        prefix = ProxyCacheSimulator(
            workload, replace(base, streaming=_streaming(fraction=1.0))
        ).run(make_policy("PB"))
        whole = ProxyCacheSimulator(
            workload,
            replace(
                base,
                streaming=_streaming(fraction=1.0, prefix_caching=False),
            ),
        ).run(make_policy("PB"))
        p, w = prefix.streaming_report, whole.streaming_report
        assert p.sessions == w.sessions > 0
        assert p.mean_startup_delay_s < w.mean_startup_delay_s
        assert p.rebuffer_ratio <= w.rebuffer_ratio
        assert p.mean_quality >= w.mean_quality
