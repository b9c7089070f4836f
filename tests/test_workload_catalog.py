"""Tests for the media-object catalog model."""

import pytest

from repro.exceptions import ConfigurationError, UnknownObjectError
from repro.workload.catalog import Catalog, MediaObject


class TestMediaObject:
    def test_size_is_duration_times_bitrate(self):
        obj = MediaObject(object_id=1, duration=100.0, bitrate=48.0)
        assert obj.size == pytest.approx(4800.0)

    def test_frames_assume_24_fps(self):
        obj = MediaObject(object_id=1, duration=10.0, bitrate=48.0)
        assert obj.frames == pytest.approx(240.0)

    def test_invalid_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            MediaObject(object_id=1, duration=0.0, bitrate=48.0)

    def test_invalid_bitrate_rejected(self):
        with pytest.raises(ConfigurationError):
            MediaObject(object_id=1, duration=10.0, bitrate=-1.0)

    def test_negative_value_rejected(self):
        with pytest.raises(ConfigurationError):
            MediaObject(object_id=1, duration=10.0, bitrate=48.0, value=-5.0)

    def test_zero_layers_rejected(self):
        with pytest.raises(ConfigurationError):
            MediaObject(object_id=1, duration=10.0, bitrate=48.0, layers=0)

    @pytest.mark.parametrize("field", ["duration", "value"])
    def test_nan_field_rejected(self, field):
        kwargs = dict(object_id=1, duration=10.0, bitrate=48.0)
        kwargs[field] = float("nan")
        with pytest.raises(ConfigurationError):
            MediaObject(**kwargs)

    def test_minimum_prefix_zero_when_bandwidth_sufficient(self):
        obj = MediaObject(object_id=1, duration=100.0, bitrate=48.0)
        assert obj.minimum_prefix_for_bandwidth(48.0) == 0.0
        assert obj.minimum_prefix_for_bandwidth(100.0) == 0.0

    def test_minimum_prefix_matches_paper_formula(self):
        # (r - b) * T for r > b.
        obj = MediaObject(object_id=1, duration=100.0, bitrate=48.0)
        assert obj.minimum_prefix_for_bandwidth(20.0) == pytest.approx(2800.0)

    @pytest.mark.parametrize(
        "method", ["minimum_prefix_for_bandwidth", "startup_delay", "stream_quality"]
    )
    @pytest.mark.parametrize("bandwidth", [float("nan"), -1.0])
    def test_invalid_bandwidth_rejected(self, method, bandwidth):
        # A NaN bandwidth used to give a NaN prefix, a NaN delay and full
        # quality; a negative one an infinite delay and the quality of none.
        obj = MediaObject(object_id=0, duration=10.0, bitrate=48.0)
        with pytest.raises(ConfigurationError, match="bandwidth"):
            getattr(obj, method)(bandwidth)

    def test_startup_delay_zero_with_enough_bandwidth(self):
        obj = MediaObject(object_id=1, duration=100.0, bitrate=48.0)
        assert obj.startup_delay(48.0) == 0.0

    def test_startup_delay_formula_no_cache(self):
        # [T*r - T*b]+ / b = (4800 - 2400) / 24 = 100 seconds.
        obj = MediaObject(object_id=1, duration=100.0, bitrate=48.0)
        assert obj.startup_delay(24.0) == pytest.approx(100.0)

    def test_startup_delay_reduced_by_cached_prefix(self):
        obj = MediaObject(object_id=1, duration=100.0, bitrate=48.0)
        full_prefix = obj.minimum_prefix_for_bandwidth(24.0)
        assert obj.startup_delay(24.0, cached_bytes=full_prefix) == 0.0
        assert obj.startup_delay(24.0, cached_bytes=full_prefix / 2) == pytest.approx(50.0)

    def test_startup_delay_infinite_without_bandwidth_or_cache(self):
        obj = MediaObject(object_id=1, duration=100.0, bitrate=48.0)
        assert obj.startup_delay(0.0) == float("inf")
        assert obj.startup_delay(0.0, cached_bytes=obj.size) == 0.0

    def test_stream_quality_full_with_enough_bandwidth(self):
        obj = MediaObject(object_id=1, duration=100.0, bitrate=48.0, layers=4)
        assert obj.stream_quality(48.0) == 1.0

    def test_stream_quality_quantised_to_layers(self):
        obj = MediaObject(object_id=1, duration=100.0, bitrate=48.0, layers=4)
        # 30/48 = 0.625 -> 2 of 4 layers -> 0.5
        assert obj.stream_quality(30.0) == pytest.approx(0.5)

    def test_stream_quality_includes_cache_contribution(self):
        obj = MediaObject(object_id=1, duration=100.0, bitrate=48.0, layers=4)
        # cache supplies 12 KB/s-equivalent (1200 KB over 100 s), server 24.
        assert obj.stream_quality(24.0, cached_bytes=1200.0) == pytest.approx(0.75)

    def test_stream_quality_zero_bandwidth_zero_cache(self):
        obj = MediaObject(object_id=1, duration=100.0, bitrate=48.0, layers=4)
        assert obj.stream_quality(0.0) == 0.0


class TestCatalog:
    def test_len_and_iteration(self, small_catalog):
        assert len(small_catalog) == 4
        assert sorted(obj.object_id for obj in small_catalog) == [0, 1, 2, 3]

    def test_contains_and_get(self, small_catalog):
        assert 2 in small_catalog
        assert small_catalog.get(2).bitrate == 96.0
        assert 99 not in small_catalog

    def test_get_unknown_raises(self, small_catalog):
        with pytest.raises(UnknownObjectError):
            small_catalog.get(99)

    def test_duplicate_ids_rejected(self):
        obj = MediaObject(object_id=1, duration=10.0, bitrate=48.0)
        with pytest.raises(ConfigurationError):
            Catalog([obj, obj])

    def test_total_size(self, small_catalog):
        expected = 100 * 48 + 200 * 48 + 50 * 96 + 400 * 24
        assert small_catalog.total_size == pytest.approx(expected)
        assert small_catalog.total_size_gb == pytest.approx(expected / 1e6)

    def test_server_ids(self, small_catalog):
        assert small_catalog.server_ids() == [0, 1, 2]

    def test_describe_contains_summary(self, small_catalog):
        summary = small_catalog.describe()
        assert summary["objects"] == 4.0
        assert summary["mean_duration_s"] == pytest.approx((100 + 200 + 50 + 400) / 4)

    def test_empty_catalog_describe(self):
        summary = Catalog([]).describe()
        assert summary["objects"] == 0
