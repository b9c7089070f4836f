"""Tests for simulation configuration and the metrics collector."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.network.distributions import NLANRBandwidthDistribution
from repro.network.variability import NLANRRatioVariability
from repro.obs.config import ObservabilityConfig
from repro.sim.config import BandwidthKnowledge, ClientCloudConfig, SimulationConfig
from repro.sim.events import RemeasurementConfig
from repro.sim.faults import FaultConfig, FaultEpisode
from repro.sim.hierarchy import CacheTier, HierarchyConfig
from repro.sim.metrics import MetricsCollector, SimulationMetrics
from repro.sim.streaming import StreamingConfig
from repro.streaming.session import DeliveryOutcome
from repro.workload.gismo import WorkloadConfig


#: The fields a config cannot be built without.
REQUIRED_FIELDS = {
    FaultEpisode: {"kind": "link-flap", "start": 0.0, "end": 1.0, "factor": 0.5},
    RemeasurementConfig: {"interval": 60.0},
    CacheTier: {"name": "edge", "cache_kb": 100.0},
    HierarchyConfig: {"tiers": (CacheTier("edge", 100.0),)},
}


def make_outcome(
    object_id=1,
    delay=0.0,
    quality=1.0,
    from_cache=100.0,
    from_server=100.0,
    value=5.0,
    immediate=True,
):
    return DeliveryOutcome(
        object_id=object_id,
        service_delay=delay,
        stream_quality=quality,
        bytes_from_cache=from_cache,
        bytes_from_server=from_server,
        observed_bandwidth=50.0,
        cached_fraction=from_cache / (from_cache + from_server),
        value=value,
        immediate_full_quality=immediate,
    )


class TestSimulationConfig:
    def test_defaults(self):
        config = SimulationConfig()
        assert config.cache_size_gb == 16.0
        assert config.cache_size_kb == pytest.approx(16e6)
        assert config.bandwidth_knowledge is BandwidthKnowledge.ORACLE
        assert config.warmup_fraction == 0.5

    def test_with_helpers_return_copies(self):
        config = SimulationConfig(cache_size_gb=4.0, seed=1)
        bigger = config.with_cache_size(32.0)
        reseeded = config.with_seed(9)
        varied = config.with_variability(NLANRRatioVariability())
        assert config.cache_size_gb == 4.0
        assert bigger.cache_size_gb == 32.0
        assert reseeded.seed == 9 and config.seed == 1
        assert varied.variability.coefficient_of_variation() > 0
        assert config.variability.coefficient_of_variation() == 0

    def test_cache_fraction_of(self):
        config = SimulationConfig(cache_size_gb=8.0)
        assert config.cache_fraction_of(80e6) == pytest.approx(0.1)
        assert config.cache_fraction_of(0.0) == 0.0

    def test_validation(self):
        # Model fields take their own types, or None for the default.
        SimulationConfig(
            bandwidth_knowledge=BandwidthKnowledge.PASSIVE,
            variability=NLANRRatioVariability(),
            bandwidth_distribution=NLANRBandwidthDistribution(),
        )
        SimulationConfig(variability=None, bandwidth_distribution=None)
        ClientCloudConfig(
            groups=2,
            distribution=NLANRBandwidthDistribution(),
            variability=NLANRRatioVariability(),
        )
        with pytest.raises(ConfigurationError):
            SimulationConfig(cache_size_gb=-1.0)
        with pytest.raises(ConfigurationError):
            SimulationConfig(warmup_fraction=1.0)
        with pytest.raises(ConfigurationError):
            SimulationConfig(min_path_bandwidth=-1.0)
        with pytest.raises(ConfigurationError):
            SimulationConfig(passive_smoothing=0.0)
        # NaN slips past `x < 0` and `x <= 0`; every bound must reject it.
        for field in ("cache_size_gb", "min_path_bandwidth"):
            with pytest.raises(ConfigurationError):
                SimulationConfig(**{field: float("nan")})
        with pytest.raises(ConfigurationError):
            SimulationConfig(
                bandwidth_knowledge=BandwidthKnowledge.PASSIVE,
                reactive_passive=True,
                reactive_threshold=float("nan"),
            )

    @pytest.mark.parametrize(
        "config_class, field, value, expected",
        [
            (SimulationConfig, "bandwidth_knowledge", "passive", "BandwidthKnowledge"),
            (SimulationConfig, "bandwidth_knowledge", None, "BandwidthKnowledge"),
            (SimulationConfig, "variability", "nlanr", "BandwidthVariabilityModel"),
            (
                SimulationConfig,
                "bandwidth_distribution",
                "nlanr",
                "BandwidthDistribution",
            ),
            (ClientCloudConfig, "variability", "nlanr", "BandwidthVariabilityModel"),
            (ClientCloudConfig, "distribution", "nlanr", "BandwidthDistribution"),
            (
                SimulationConfig,
                "variability",
                NLANRBandwidthDistribution(),
                "BandwidthVariabilityModel",
            ),
            (SimulationConfig, "streaming", "yes", "StreamingConfig"),
            (
                SimulationConfig,
                "faults",
                {"random_origin_outages": 2},
                "FaultConfig",
            ),
            (SimulationConfig, "observability", True, "ObservabilityConfig"),
            (SimulationConfig, "client_clouds", "8", "ClientCloudConfig"),
            (SimulationConfig, "hierarchy", "2tier", "HierarchyConfig"),
            (SimulationConfig, "remeasurement", 300.0, "RemeasurementConfig"),
        ],
        ids=[
            "knowledge-string",
            "knowledge-none",
            "variability-string",
            "distribution-string",
            "cloud-variability-string",
            "cloud-distribution-string",
            "variability-given-a-distribution",
            "streaming-string",
            "faults-dict",
            "observability-bool",
            "clouds-string",
            "hierarchy-string",
            "remeasurement-float",
        ],
    )
    def test_model_fields_reject_the_wrong_type(
        self, config_class, field, value, expected
    ):
        with pytest.raises(ConfigurationError, match=f"{field} must be a {expected}"):
            config_class(**{field: value})

    @pytest.mark.parametrize(
        "config_class, field, value, expected",
        [
            (SimulationConfig, "cache_size_gb", "1", "a number"),
            (SimulationConfig, "cache_size_gb", True, "a number"),
            (SimulationConfig, "warmup_fraction", "0.5", "a number"),
            (SimulationConfig, "min_path_bandwidth", "4", "a number"),
            (SimulationConfig, "passive_smoothing", "0.25", "a number"),
            (SimulationConfig, "reactive_threshold", "0.2", "a number"),
            (SimulationConfig, "reactive_rekey_cap", 2.5, "an integer"),
            (SimulationConfig, "seed", "x", "an integer"),
            (SimulationConfig, "seed", 1.0, "an integer"),
            (SimulationConfig, "verify_store", "no", "a bool"),
            (ClientCloudConfig, "groups", "2", "an integer"),
            (ClientCloudConfig, "bandwidth", "40", "a number"),
            (FaultConfig, "random_origin_outages", "2", "an integer"),
            (FaultConfig, "max_retries", 2.0, "an integer"),
            (FaultConfig, "severity", "0.1", "a number"),
            (FaultConfig, "serve_stale", "yes", "a bool"),
            # A 0-d array compares equal to a kind name but is no string.
            (FaultEpisode, "kind", np.array("link-flap"), "a string"),
            (FaultEpisode, "start", "0", "a number"),
            (FaultEpisode, "end", "1", "a number"),
            (FaultEpisode, "factor", "0.5", "a number"),
            (FaultEpisode, "server_id", True, "an integer"),
            # A fractional group id would match no request's group.
            (FaultEpisode, "group_id", 1.5, "an integer"),
            (ObservabilityConfig, "window_s", "60", "a number"),
            (ObservabilityConfig, "trace_sample", "1", "a number"),
            (ObservabilityConfig, "profile", 1, "a bool"),
            (ObservabilityConfig, "trace_path", 5, "a path"),
            (RemeasurementConfig, "interval", "60", "a number"),
            # Probes are off with ``remeasurement=None``, not a None interval.
            (RemeasurementConfig, "interval", None, "a number"),
            (RemeasurementConfig, "interval", True, "a number"),
            (StreamingConfig, "fraction", "0.5", "a number"),
            (StreamingConfig, "abandon_after_s", "60", "a number"),
            (StreamingConfig, "prefetch_segments", 1.5, "an integer"),
            (StreamingConfig, "seed", "x", "an integer"),
            (StreamingConfig, "prefix_caching", "no", "a bool"),
            (CacheTier, "cache_kb", "100", "a number"),
            (CacheTier, "uplink_bandwidth", "50", "a number"),
            (HierarchyConfig, "num_pops", "2", "an integer"),
            (HierarchyConfig, "num_pops", 2.5, "an integer"),
            (HierarchyConfig, "sibling_bandwidth", "10", "a number"),
            (HierarchyConfig, "sibling_lookup", 1, "a bool"),
            (WorkloadConfig, "num_objects", "10", "an integer"),
            (WorkloadConfig, "num_objects", 10.5, "an integer"),
            (WorkloadConfig, "num_requests", 1e3, "an integer"),
            (WorkloadConfig, "zipf_alpha", "0.73", "a number"),
            (WorkloadConfig, "seed", 1.5, "an integer"),
        ],
    )
    def test_scalar_fields_reject_the_wrong_type(
        self, config_class, field, value, expected
    ):
        kwargs = {**REQUIRED_FIELDS.get(config_class, {}), field: value}
        with pytest.raises(ConfigurationError, match=f"{field} must be {expected}"):
            config_class(**kwargs)

    @pytest.mark.parametrize("config_class", [SimulationConfig, WorkloadConfig])
    def test_negative_seed_rejected(self, config_class):
        with pytest.raises(ConfigurationError, match="seed must be non-negative, got -1"):
            config_class(seed=-1)

    def test_scalar_fields_take_numpy_scalars(self):
        config = SimulationConfig(cache_size_gb=np.float32(2.0), seed=np.int64(3))
        assert config.cache_size_gb == 2.0 and config.seed == 3
        assert FaultConfig(random_origin_outages=np.int32(1)).random_origin_outages == 1
        remeasurement = RemeasurementConfig(interval=np.float32(60.0))
        assert remeasurement.interval == 60
        assert StreamingConfig(prefetch_segments=np.int64(2)).prefetch_segments == 2
        tier = CacheTier("edge", np.float64(100.0))
        assert HierarchyConfig(tiers=(tier,), num_pops=np.int32(2)).num_pops == 2
        assert WorkloadConfig(num_objects=np.int64(10), seed=None).num_objects == 10


class TestMetricsCollector:
    def test_warmup_requests_not_measured(self):
        collector = MetricsCollector()
        collector.record(make_outcome())
        collector.measuring = True
        collector.record(make_outcome())
        metrics = collector.finalize()
        assert collector.warmup_requests == 1
        assert metrics.requests == 1

    def test_traffic_reduction_ratio(self):
        collector = MetricsCollector(measuring=True)
        collector.record(make_outcome(from_cache=300.0, from_server=100.0))
        collector.record(make_outcome(from_cache=0.0, from_server=400.0))
        metrics = collector.finalize()
        assert metrics.traffic_reduction_ratio == pytest.approx(300.0 / 800.0)
        assert metrics.byte_hit_ratio == pytest.approx(300.0 / 800.0)
        assert metrics.hit_ratio == pytest.approx(0.5)

    def test_delay_and_quality_averages(self):
        collector = MetricsCollector(measuring=True)
        collector.record(make_outcome(delay=0.0, quality=1.0))
        collector.record(make_outcome(delay=10.0, quality=0.5, immediate=False))
        metrics = collector.finalize()
        assert metrics.average_service_delay == pytest.approx(5.0)
        assert metrics.average_stream_quality == pytest.approx(0.75)
        assert metrics.average_delay_among_delayed == pytest.approx(10.0)
        assert metrics.delayed_request_ratio == pytest.approx(0.5)

    def test_added_value_counts_only_immediate_service(self):
        collector = MetricsCollector(measuring=True)
        collector.record(make_outcome(value=7.0, immediate=True))
        collector.record(make_outcome(value=9.0, immediate=False, delay=5.0))
        metrics = collector.finalize()
        assert metrics.total_added_value == pytest.approx(7.0)
        assert metrics.immediate_service_ratio == pytest.approx(0.5)

    def test_empty_measurement_phase(self):
        metrics = MetricsCollector(measuring=True).finalize()
        assert metrics.requests == 0
        assert metrics.traffic_reduction_ratio == 0.0
        assert metrics.average_stream_quality == 1.0


class TestSimulationMetricsAverage:
    def test_average_of_identical_metrics_is_identity(self):
        collector = MetricsCollector(measuring=True)
        collector.record(make_outcome())
        metrics = collector.finalize()
        averaged = SimulationMetrics.average([metrics, metrics, metrics])
        assert averaged.traffic_reduction_ratio == metrics.traffic_reduction_ratio
        assert averaged.requests == metrics.requests

    def test_average_mixes_values(self):
        collector_a = MetricsCollector(measuring=True)
        collector_a.record(make_outcome(delay=0.0))
        collector_b = MetricsCollector(measuring=True)
        collector_b.record(make_outcome(delay=10.0, immediate=False))
        averaged = SimulationMetrics.average(
            [collector_a.finalize(), collector_b.finalize()]
        )
        assert averaged.average_service_delay == pytest.approx(5.0)

    def test_average_empty_list_rejected(self):
        with pytest.raises(ValueError):
            SimulationMetrics.average([])

    def test_as_dict_round_trip(self):
        collector = MetricsCollector(measuring=True)
        collector.record(make_outcome())
        data = collector.finalize().as_dict()
        assert data["requests"] == 1.0
        assert "traffic_reduction_ratio" in data
