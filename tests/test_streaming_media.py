"""Tests for stream encodings (VBR, layered)."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.streaming.media import LayeredEncoding, VBRStream, synthetic_vbr_stream


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

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            VBRStream([])
        with pytest.raises(ConfigurationError):
            VBRStream([1.0, -1.0])
        with pytest.raises(ConfigurationError):
            VBRStream([1.0], frame_rate=0.0)

    @pytest.mark.parametrize(
        "frame_sizes, frame_rate",
        [([1.0, float("nan")], 24.0), ([1.0, 2.0], float("nan"))],
        ids=["frame_size", "frame_rate"],
    )
    def test_nan_input_rejected(self, frame_sizes, frame_rate):
        with pytest.raises(ConfigurationError):
            VBRStream(frame_sizes, frame_rate=frame_rate)


class TestLayeredEncoding:
    def test_supported_layers_and_quality(self):
        encoding = LayeredEncoding(full_rate=48.0, layers=4)
        assert encoding.layer_rate == pytest.approx(12.0)
        assert encoding.supported_layers(48.0) == 4
        assert encoding.supported_layers(36.0) == 3
        assert encoding.supported_layers(11.0) == 0
        assert encoding.quality(36.0) == pytest.approx(0.75)
        assert encoding.quality(0.0) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LayeredEncoding(full_rate=0.0)
        with pytest.raises(ConfigurationError):
            LayeredEncoding(full_rate=48.0, layers=0)

    def test_nan_full_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            LayeredEncoding(full_rate=float("nan"))


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

    @pytest.mark.parametrize("field", ["duration", "mean_rate"])
    def test_nan_duration_or_rate_rejected(self, field):
        kwargs = dict(duration=10.0, mean_rate=48.0)
        kwargs[field] = float("nan")
        with pytest.raises(ConfigurationError):
            synthetic_vbr_stream(**kwargs)

    @pytest.mark.parametrize("burstiness", [1e-200, 1e-160, np.float64(1e-160)])
    def test_rejects_burstiness_whose_square_underflows(self, burstiness):
        with pytest.raises(ConfigurationError, match="burstiness"):
            synthetic_vbr_stream(duration=60.0, mean_rate=48.0, burstiness=burstiness)

    def test_smallest_accepted_burstiness_draws_finite_frames(self):
        stream = synthetic_vbr_stream(duration=60.0, mean_rate=48.0, burstiness=1e-154)
        assert np.all(np.isfinite(stream.frame_sizes))
