"""Tests for delivery sessions (joint cache + server service) and prefetching."""

import pytest

from repro.exceptions import ConfigurationError
from repro.streaming.prefetch import plan_prefix_prefetch
from repro.streaming.session import (
    DeliverySession,
    required_prefix_for_immediate_playout,
)
from repro.workload.catalog import MediaObject


@pytest.fixture
def obj():
    """A 100-second, 48 KB/s object (4800 KB) worth $5."""
    return MediaObject(object_id=7, duration=100.0, bitrate=48.0, value=5.0, layers=4)


class TestDeliverySession:
    def test_no_cache_enough_bandwidth(self, obj):
        session = DeliverySession(obj, cached_bytes=0.0, server_bandwidth=60.0)
        assert session.service_delay() == 0.0
        assert session.stream_quality() == 1.0
        assert session.supports_immediate_full_quality()

    def test_no_cache_insufficient_bandwidth(self, obj):
        session = DeliverySession(obj, cached_bytes=0.0, server_bandwidth=24.0)
        assert session.service_delay() == pytest.approx(100.0)
        assert session.stream_quality() == pytest.approx(0.5)
        assert not session.supports_immediate_full_quality()

    def test_exact_prefix_hides_delay(self, obj):
        prefix = required_prefix_for_immediate_playout(obj, 24.0)
        session = DeliverySession(obj, cached_bytes=prefix, server_bandwidth=24.0)
        assert session.service_delay() == 0.0
        assert session.stream_quality() == 1.0

    def test_half_prefix_halves_delay(self, obj):
        prefix = required_prefix_for_immediate_playout(obj, 24.0)
        session = DeliverySession(obj, cached_bytes=prefix / 2, server_bandwidth=24.0)
        assert session.service_delay() == pytest.approx(50.0)

    def test_cached_bytes_capped_at_object_size(self, obj):
        session = DeliverySession(obj, cached_bytes=10 * obj.size, server_bandwidth=1.0)
        assert session.bytes_from_cache() == pytest.approx(obj.size)
        assert session.bytes_from_server() == 0.0
        assert session.service_delay() == 0.0

    def test_outcome_byte_accounting(self, obj):
        session = DeliverySession(obj, cached_bytes=1000.0, server_bandwidth=24.0)
        outcome = session.outcome()
        assert outcome.bytes_from_cache == pytest.approx(1000.0)
        assert outcome.bytes_from_server == pytest.approx(obj.size - 1000.0)
        assert outcome.total_bytes == pytest.approx(obj.size)
        assert outcome.cached_fraction == pytest.approx(1000.0 / obj.size)
        assert outcome.value == 5.0

    def test_validation(self, obj):
        with pytest.raises(ConfigurationError):
            DeliverySession(obj, cached_bytes=-1.0, server_bandwidth=10.0)
        with pytest.raises(ConfigurationError):
            DeliverySession(obj, cached_bytes=0.0, server_bandwidth=-10.0)

    @pytest.mark.parametrize(
        "cached_bytes, server_bandwidth",
        [(float("nan"), 10.0), (0.0, float("nan"))],
        ids=["cached_bytes", "server_bandwidth"],
    )
    def test_nan_input_rejected(self, obj, cached_bytes, server_bandwidth):
        with pytest.raises(ConfigurationError):
            DeliverySession(obj, cached_bytes, server_bandwidth)


class TestHelpers:
    def test_required_prefix_zero_with_enough_bandwidth(self, obj):
        assert required_prefix_for_immediate_playout(obj, 48.0) == 0.0
        assert required_prefix_for_immediate_playout(obj, 24.0) == pytest.approx(2400.0)


class TestPrefetchPlanning:
    def test_fully_cached_object_needs_no_prefetch(self, obj):
        plan = plan_prefix_prefetch(obj, obj.size, server_bandwidth=1.0)
        assert plan.suffix_bytes == 0.0
        assert plan.feasible_without_delay
        assert plan.startup_delay == 0.0

    def test_prefetch_matches_delay_formula(self, obj):
        plan = plan_prefix_prefetch(obj, 1200.0, server_bandwidth=24.0)
        assert plan.prefix_bytes == pytest.approx(1200.0)
        assert plan.suffix_bytes == pytest.approx(obj.size - 1200.0)
        assert plan.startup_delay == pytest.approx(obj.startup_delay(24.0, 1200.0))
        assert not plan.feasible_without_delay

    def test_sufficient_prefix_is_feasible(self, obj):
        prefix = required_prefix_for_immediate_playout(obj, 24.0)
        plan = plan_prefix_prefetch(obj, prefix, server_bandwidth=24.0)
        assert plan.feasible_without_delay
        # The suffix transfer finishes exactly when playout reaches it.
        playout_budget = plan.startup_delay + plan.prefix_bytes / obj.bitrate
        assert plan.suffix_fetch_seconds <= playout_budget + obj.duration

    def test_zero_bandwidth_infeasible(self, obj):
        plan = plan_prefix_prefetch(obj, 100.0, server_bandwidth=0.0)
        assert plan.startup_delay == float("inf")
        assert not plan.feasible_without_delay

    def test_validation(self, obj):
        with pytest.raises(ConfigurationError):
            plan_prefix_prefetch(obj, -1.0, 10.0)
        with pytest.raises(ConfigurationError):
            plan_prefix_prefetch(obj, 0.0, -10.0)

    @pytest.mark.parametrize(
        "cached_prefix_bytes, server_bandwidth",
        [(float("nan"), 10.0), (0.0, float("nan"))],
        ids=["cached_prefix_bytes", "server_bandwidth"],
    )
    def test_nan_input_rejected(self, obj, cached_prefix_bytes, server_bandwidth):
        with pytest.raises(ConfigurationError):
            plan_prefix_prefetch(obj, cached_prefix_bytes, server_bandwidth)
