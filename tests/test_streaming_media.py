"""Tests for stream encodings (CBR, VBR, layered)."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.streaming.media import (
    CBRStream,
    LayeredEncoding,
    VBRStream,
    synthetic_vbr_stream,
)


class TestCBRStream:
    def test_size_and_prefix(self):
        stream = CBRStream(duration=100.0, rate=48.0)
        assert stream.size == pytest.approx(4800.0)
        assert stream.prefix_bytes(10.0) == pytest.approx(480.0)
        assert stream.prefix_bytes(1_000.0) == pytest.approx(4800.0)

    def test_cumulative_consumption(self):
        stream = CBRStream(duration=10.0, rate=5.0)
        consumption = stream.cumulative_consumption([0.0, 5.0, 10.0, 20.0])
        assert consumption.tolist() == pytest.approx([0.0, 25.0, 50.0, 50.0])

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CBRStream(duration=0.0, rate=48.0)
        with pytest.raises(ConfigurationError):
            CBRStream(duration=10.0, rate=0.0)
        with pytest.raises(ConfigurationError):
            CBRStream(duration=10.0, rate=48.0).prefix_bytes(-1.0)


class TestVBRStream:
    def test_basic_properties(self):
        stream = VBRStream([1.0, 2.0, 3.0, 2.0], frame_rate=2.0)
        assert stream.num_frames == 4
        assert stream.duration == pytest.approx(2.0)
        assert stream.size == pytest.approx(8.0)
        assert stream.mean_rate == pytest.approx(4.0)
        assert stream.peak_rate == pytest.approx(6.0)

    def test_cumulative_schedule_monotone(self):
        stream = VBRStream([1.0, 0.0, 2.0])
        schedule = stream.cumulative_schedule()
        assert schedule.tolist() == pytest.approx([1.0, 1.0, 3.0])

    def test_to_cbr_preserves_size(self):
        stream = VBRStream([1.0, 3.0, 2.0], frame_rate=1.0)
        cbr = stream.to_cbr()
        assert cbr.size == pytest.approx(stream.size)
        assert cbr.duration == pytest.approx(stream.duration)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            VBRStream([])
        with pytest.raises(ConfigurationError):
            VBRStream([1.0, -1.0])
        with pytest.raises(ConfigurationError):
            VBRStream([1.0], frame_rate=0.0)


class TestLayeredEncoding:
    def test_supported_layers_and_quality(self):
        encoding = LayeredEncoding(full_rate=48.0, layers=4)
        assert encoding.layer_rate == pytest.approx(12.0)
        assert encoding.supported_layers(48.0) == 4
        assert encoding.supported_layers(36.0) == 3
        assert encoding.supported_layers(11.0) == 0
        assert encoding.quality(36.0) == pytest.approx(0.75)
        assert encoding.quality(0.0) == 0.0

    def test_rate_for_quality_round_trip(self):
        encoding = LayeredEncoding(full_rate=48.0, layers=4)
        assert encoding.rate_for_quality(0.75) == pytest.approx(36.0)
        assert encoding.quality(encoding.rate_for_quality(0.5)) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LayeredEncoding(full_rate=0.0)
        with pytest.raises(ConfigurationError):
            LayeredEncoding(full_rate=48.0, layers=0)
        with pytest.raises(ConfigurationError):
            LayeredEncoding(full_rate=48.0).rate_for_quality(1.5)


class TestSyntheticVBRStream:
    def test_mean_rate_matches_request(self):
        stream = synthetic_vbr_stream(duration=60.0, mean_rate=48.0, seed=1)
        assert stream.mean_rate == pytest.approx(48.0, rel=1e-6)
        assert stream.num_frames == 60 * 24

    def test_burstiness_increases_variability(self):
        smooth = synthetic_vbr_stream(duration=30.0, mean_rate=48.0, burstiness=0.0, seed=2)
        bursty = synthetic_vbr_stream(duration=30.0, mean_rate=48.0, burstiness=0.8, seed=2)
        cov_smooth = smooth.frame_sizes.std() / smooth.frame_sizes.mean()
        cov_bursty = bursty.frame_sizes.std() / bursty.frame_sizes.mean()
        assert cov_bursty > cov_smooth

    def test_frame_sizes_nonnegative(self):
        stream = synthetic_vbr_stream(duration=20.0, mean_rate=48.0, burstiness=0.9, seed=3)
        assert np.all(stream.frame_sizes >= 0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            synthetic_vbr_stream(duration=0.0, mean_rate=48.0)
        with pytest.raises(ConfigurationError):
            synthetic_vbr_stream(duration=10.0, mean_rate=48.0, burstiness=1.0)

    @pytest.mark.parametrize("burstiness", [1e-200, 1e-160, np.float64(1e-160)])
    def test_rejects_burstiness_whose_square_underflows(self, burstiness):
        with pytest.raises(ConfigurationError, match="burstiness"):
            synthetic_vbr_stream(duration=60.0, mean_rate=48.0, burstiness=burstiness)

    def test_smallest_accepted_burstiness_draws_finite_frames(self):
        stream = synthetic_vbr_stream(duration=60.0, mean_rate=48.0, burstiness=1e-154)
        assert np.all(np.isfinite(stream.frame_sizes))
