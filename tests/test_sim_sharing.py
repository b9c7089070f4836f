"""Tests for the batching/patching stream-sharing extension."""

import pytest

from repro.exceptions import ConfigurationError
from repro.sim.sharing import (
    StreamSharingAnalyzer,
    prefix_function_for_bandwidth,
    sharing_summary_rows,
)
from repro.trace.columnar import ColumnarTrace
from repro.workload.catalog import Catalog, MediaObject


@pytest.fixture
def catalog():
    # One 100-second 48 KB/s object (4800 KB) and one 200-second object.
    return Catalog(
        [
            MediaObject(object_id=0, duration=100.0, bitrate=48.0, server_id=0),
            MediaObject(object_id=1, duration=200.0, bitrate=48.0, server_id=1),
        ]
    )


def trace(*times_and_objects):
    return ColumnarTrace(
        [t for t, _ in times_and_objects], [o for _, o in times_and_objects]
    )


class TestStreamSharingAnalyzer:
    def test_single_request_has_no_savings(self, catalog):
        report = StreamSharingAnalyzer(catalog).analyze(trace((0.0, 0)))
        assert report.batches == 1
        assert report.joined_requests == 0
        assert report.server_byte_savings == 0.0
        assert report.baseline_server_bytes == pytest.approx(4800.0)

    def test_concurrent_requests_share_the_stream(self, catalog):
        # Second request arrives 10 s into the leader's 100 s stream: it only
        # needs a 10 s patch (480 KB) instead of the full 4800 KB.
        report = StreamSharingAnalyzer(catalog).analyze(trace((0.0, 0), (10.0, 0)))
        assert report.batches == 1
        assert report.joined_requests == 1
        assert report.patch_bytes == pytest.approx(480.0)
        assert report.shared_server_bytes == pytest.approx(4800.0 + 480.0)
        assert report.baseline_server_bytes == pytest.approx(9600.0)
        assert report.server_byte_savings == pytest.approx(1.0 - 5280.0 / 9600.0)

    def test_request_after_stream_ends_starts_new_batch(self, catalog):
        report = StreamSharingAnalyzer(catalog).analyze(trace((0.0, 0), (150.0, 0)))
        assert report.batches == 2
        assert report.joined_requests == 0
        assert report.server_byte_savings == 0.0

    def test_batching_window_limits_joins(self, catalog):
        analyzer = StreamSharingAnalyzer(catalog, batching_window=5.0)
        report = analyzer.analyze(trace((0.0, 0), (10.0, 0)))
        assert report.joined_requests == 0
        assert report.batches == 2

    def test_different_objects_do_not_batch(self, catalog):
        report = StreamSharingAnalyzer(catalog).analyze(trace((0.0, 0), (1.0, 1)))
        assert report.batches == 2
        assert report.joined_requests == 0

    def test_cached_prefix_absorbs_patches(self, catalog):
        # A 960 KB cached prefix (20 s of playback) covers the whole patch of
        # a request that joins 10 s late.
        analyzer = StreamSharingAnalyzer(catalog, prefix_for=lambda obj: 960.0)
        report = analyzer.analyze(trace((0.0, 0), (10.0, 0)))
        assert report.patch_bytes == pytest.approx(480.0)
        assert report.patch_bytes_from_cache == pytest.approx(480.0)
        # The joiner adds no server traffic at all.
        assert report.shared_server_bytes == pytest.approx(4800.0 - 960.0)

    def test_join_ratio(self, catalog):
        report = StreamSharingAnalyzer(catalog).analyze(
            trace((0.0, 0), (1.0, 0), (2.0, 0), (150.0, 0))
        )
        assert report.requests == 4
        assert report.joined_requests == 2
        assert report.join_ratio == pytest.approx(0.5)

    def test_negative_window_rejected(self, catalog):
        with pytest.raises(ConfigurationError):
            StreamSharingAnalyzer(catalog, batching_window=-1.0)

    def test_nan_window_rejected(self, catalog):
        with pytest.raises(ConfigurationError):
            StreamSharingAnalyzer(catalog, batching_window=float("nan"))


class TestHelpers:
    def test_prefix_function_for_bandwidth(self, catalog):
        prefix_for = prefix_function_for_bandwidth({0: 24.0, 1: 96.0})
        assert prefix_for(catalog.get(0)) == pytest.approx(2400.0)
        assert prefix_for(catalog.get(1)) == 0.0

    def test_sharing_summary_rows(self, catalog):
        report = StreamSharingAnalyzer(catalog).analyze(trace((0.0, 0), (10.0, 0)))
        rows = sharing_summary_rows({"no cache": report})
        assert rows[0]["configuration"] == "no cache"
        assert 0.0 < rows[0]["server_byte_savings"] < 1.0
        assert rows[0]["batches"] == 1.0


class TestOnGeneratedWorkload:
    def test_sharing_with_partial_caching_on_gismo_trace(self, tiny_workload):
        # Combining the paper's prefix caching with batching reduces server
        # traffic more than batching alone (the patches come from the cache).
        bandwidths = {obj.object_id: 24.0 for obj in tiny_workload.catalog}
        plain = StreamSharingAnalyzer(tiny_workload.catalog).analyze(tiny_workload.trace)
        with_prefixes = StreamSharingAnalyzer(
            tiny_workload.catalog,
            prefix_for=prefix_function_for_bandwidth(bandwidths),
        ).analyze(tiny_workload.trace)
        assert 0.0 <= plain.server_byte_savings <= 1.0
        assert with_prefixes.shared_server_bytes <= plain.shared_server_bytes
        assert plain.requests == len(tiny_workload.trace)
