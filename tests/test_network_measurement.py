"""Tests for bandwidth measurement: PFTK model, active probing, passive EWMA."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, MeasurementError
from repro.network.measurement import (
    ActiveProber,
    BandwidthMeasurementLog,
    PassiveEstimator,
    PathConditions,
    pftk_throughput,
    simplified_tcp_throughput,
)


class TestPathConditions:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PathConditions(rtt=0.0, loss_rate=0.01)
        with pytest.raises(ConfigurationError):
            PathConditions(rtt=0.1, loss_rate=1.0)
        with pytest.raises(ConfigurationError):
            PathConditions(rtt=0.1, loss_rate=0.01, mss=0.0)

    @pytest.mark.parametrize("field", ["rtt", "mss"])
    def test_nan_field_rejected(self, field):
        kwargs = dict(rtt=0.1, loss_rate=0.01)
        kwargs[field] = float("nan")
        with pytest.raises(ConfigurationError):
            PathConditions(**kwargs)


class TestPFTKThroughput:
    def test_zero_loss_is_window_limited(self):
        conditions = PathConditions(rtt=0.1, loss_rate=0.0)
        assert pftk_throughput(conditions) == pytest.approx(640.0)

    def test_throughput_decreases_with_loss(self):
        low = pftk_throughput(PathConditions(rtt=0.1, loss_rate=0.005))
        high = pftk_throughput(PathConditions(rtt=0.1, loss_rate=0.05))
        assert high < low

    def test_throughput_decreases_with_rtt(self):
        short = pftk_throughput(PathConditions(rtt=0.05, loss_rate=0.01))
        long = pftk_throughput(PathConditions(rtt=0.5, loss_rate=0.01))
        assert long < short

    def test_inverse_sqrt_loss_scaling_in_simplified_model(self):
        # Quadrupling the loss rate should roughly halve the throughput.
        base = simplified_tcp_throughput(PathConditions(rtt=0.2, loss_rate=0.01))
        quadrupled = simplified_tcp_throughput(PathConditions(rtt=0.2, loss_rate=0.04))
        assert quadrupled == pytest.approx(base / 2.0, rel=0.01)

    def test_pftk_below_simplified_model(self):
        # The timeout term only reduces throughput relative to the simple model.
        conditions = PathConditions(rtt=0.2, loss_rate=0.03)
        assert pftk_throughput(conditions) <= simplified_tcp_throughput(conditions)


class TestActiveProber:
    def test_probe_close_to_model_prediction(self, rng):
        conditions = PathConditions(rtt=0.1, loss_rate=0.02)
        prober = ActiveProber(probe_count=200, noise_fraction=0.01)
        estimates = [prober.probe(conditions, rng) for _ in range(200)]
        assert np.median(estimates) == pytest.approx(pftk_throughput(conditions), rel=0.35)

    def test_probe_is_positive_even_with_noise(self, rng):
        prober = ActiveProber(probe_count=5, noise_fraction=0.5)
        conditions = PathConditions(rtt=0.5, loss_rate=0.3)
        assert all(prober.probe(conditions, rng) >= 1.0 for _ in range(100))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ActiveProber(probe_count=0)
        with pytest.raises(ConfigurationError):
            ActiveProber(noise_fraction=-0.1)

    def test_nan_noise_fraction_rejected(self):
        # The 1 KB/s probe floor, max(estimate, 1.0), keeps a NaN estimate,
        # so a NaN noise fraction must fail here.
        with pytest.raises(ConfigurationError):
            ActiveProber(noise_fraction=float("nan"))


class TestPassiveEstimator:
    def test_first_observation_sets_estimate(self):
        estimator = PassiveEstimator()
        estimator.observe(1, 80.0)
        assert estimator.estimate(1) == pytest.approx(80.0)

    def test_default_estimate_for_unknown_server(self):
        estimator = PassiveEstimator(initial_estimate=64.0)
        assert estimator.estimate(42) == 64.0

    def test_ewma_converges_to_stable_throughput(self):
        estimator = PassiveEstimator(smoothing=0.3)
        for _ in range(50):
            estimator.observe(1, 120.0)
        assert estimator.estimate(1) == pytest.approx(120.0, rel=1e-3)

    def test_ewma_tracks_change_gradually(self):
        estimator = PassiveEstimator(smoothing=0.25)
        estimator.observe(1, 100.0)
        estimator.observe(1, 200.0)
        assert estimator.estimate(1) == pytest.approx(125.0)

    def test_sample_count_and_known_servers(self):
        estimator = PassiveEstimator()
        estimator.observe(3, 10.0)
        estimator.observe(3, 20.0)
        estimator.observe(5, 30.0)
        assert estimator.sample_count(3) == 2
        assert estimator.known_servers() == [3, 5]

    def test_reset_clears_state(self):
        estimator = PassiveEstimator()
        estimator.observe(1, 50.0)
        estimator.reset()
        assert estimator.known_servers() == []
        assert estimator.sample_count(1) == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PassiveEstimator(smoothing=0.0)
        with pytest.raises(ConfigurationError):
            PassiveEstimator(initial_estimate=0.0)
        with pytest.raises(ConfigurationError):
            PassiveEstimator(initial_estimate=float("nan"))
        with pytest.raises(MeasurementError):
            PassiveEstimator().observe(1, 0.0)

    def test_nan_sample_rejected_without_poisoning_the_estimate(self):
        """A NaN sample raises; it used to pass ``throughput <= 0`` and
        leave the server's EWMA NaN for the rest of the run."""
        estimator = PassiveEstimator(smoothing=0.5)
        with pytest.raises(MeasurementError):
            estimator.observe(1, float("nan"))
        assert estimator.observe(1, 50.0) == 50.0
        with pytest.raises(MeasurementError):
            estimator.observe(1, float("nan"))
        assert estimator.estimate(1) == 50.0 and estimator.sample_count(1) == 1

    def test_nan_group_sample_rejected(self):
        estimator = PassiveEstimator(smoothing=0.5)
        estimator.observe_group(1, 2, 40.0)
        with pytest.raises(MeasurementError):
            estimator.observe_group(1, 2, float("nan"))
        assert estimator.estimate_group(1, 2) == 40.0
        assert estimator.group_sample_count(1, 2) == 1

    def test_nan_logged_sample_rejected(self):
        log = BandwidthMeasurementLog()
        log.record(0.0, 1, 40.0)
        with pytest.raises(MeasurementError):
            log.record(1.0, 1, float("nan"))
        assert log.mean(1) == 40.0 and log.sample_count(1) == 1
