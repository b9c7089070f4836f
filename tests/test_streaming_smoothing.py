"""Tests for optimal work-ahead smoothing of VBR streams."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.streaming.media import VBRStream, synthetic_vbr_stream
from repro.streaming.smoothing import (
    optimal_smoothing,
    peak_rate,
    rate_variability,
    verify_feasible,
)


def test_constant_stream_needs_one_run():
    stream = VBRStream([2.0] * 20, frame_rate=1.0)
    schedule = optimal_smoothing(stream, buffer_kb=10.0)
    assert schedule.num_runs == 1
    assert schedule.run_rates[0] == pytest.approx(2.0)


def test_schedule_is_feasible_for_bursty_stream():
    stream = synthetic_vbr_stream(duration=20.0, mean_rate=48.0, burstiness=0.7, seed=1)
    for buffer_kb in (50.0, 500.0, 5_000.0):
        schedule = optimal_smoothing(stream, buffer_kb=buffer_kb)
        assert verify_feasible(stream, schedule, buffer_kb)


def test_total_transmission_equals_stream_size():
    stream = synthetic_vbr_stream(duration=10.0, mean_rate=48.0, burstiness=0.5, seed=2)
    schedule = optimal_smoothing(stream, buffer_kb=200.0)
    transmitted = schedule.cumulative_transmission()
    assert transmitted[-1] == pytest.approx(stream.size, rel=1e-6)


def test_larger_buffer_reduces_peak_rate():
    stream = synthetic_vbr_stream(duration=30.0, mean_rate=48.0, burstiness=0.8, seed=3)
    small = peak_rate(optimal_smoothing(stream, buffer_kb=20.0))
    large = peak_rate(optimal_smoothing(stream, buffer_kb=2_000.0))
    assert large <= small + 1e-9


def test_smoothing_reduces_rate_variability_versus_raw_stream():
    stream = synthetic_vbr_stream(duration=30.0, mean_rate=48.0, burstiness=0.8, seed=4)
    raw_cov = float(stream.frame_sizes.std() / stream.frame_sizes.mean())
    smoothed_cov = rate_variability(optimal_smoothing(stream, buffer_kb=5_000.0))
    assert smoothed_cov < raw_cov


def test_huge_buffer_approaches_cbr():
    stream = synthetic_vbr_stream(duration=20.0, mean_rate=48.0, burstiness=0.6, seed=5)
    schedule = optimal_smoothing(stream, buffer_kb=stream.size)
    # With a buffer as large as the whole object a single constant-rate run
    # (at no more than the mean rate needed to finish on time) suffices.
    assert schedule.num_runs <= 3
    assert peak_rate(schedule) <= stream.peak_rate


def test_peak_rate_never_exceeds_unsmoothed_peak():
    stream = synthetic_vbr_stream(duration=25.0, mean_rate=48.0, burstiness=0.9, seed=6)
    schedule = optimal_smoothing(stream, buffer_kb=100.0)
    assert peak_rate(schedule) <= stream.peak_rate + 1e-9


def test_zero_buffer_follows_frame_sizes():
    stream = VBRStream([1.0, 4.0, 2.0, 3.0], frame_rate=1.0)
    schedule = optimal_smoothing(stream, buffer_kb=0.0)
    transmitted = schedule.cumulative_transmission()
    assert np.allclose(transmitted, stream.cumulative_schedule())


def test_negative_buffer_rejected():
    stream = VBRStream([1.0, 2.0])
    with pytest.raises(ConfigurationError):
        optimal_smoothing(stream, buffer_kb=-1.0)


def test_nan_buffer_rejected():
    stream = VBRStream([1.0, 2.0])
    with pytest.raises(ConfigurationError):
        optimal_smoothing(stream, buffer_kb=float("nan"))


def test_rates_kbps_conversion():
    stream = VBRStream([2.0] * 10, frame_rate=24.0)
    schedule = optimal_smoothing(stream, buffer_kb=100.0)
    assert schedule.rates_kbps()[0] == pytest.approx(2.0 * 24.0)
