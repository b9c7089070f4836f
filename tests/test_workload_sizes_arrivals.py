"""Tests for object duration, bit-rate, and arrival-process models."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.workload.arrivals import PoissonArrivalProcess
from repro.workload.sizes import ConstantBitrateModel, LognormalDurationModel


NAN = float("nan")


class TestLognormalDurationModel:
    def test_mean_matches_table1(self):
        # exp(3.85 + 0.56^2/2) minutes ~= 55 minutes ~= 3290 seconds.
        model = LognormalDurationModel()
        assert model.mean() == pytest.approx(55.0 * 60.0, rel=0.05)

    def test_sample_mean_close_to_analytical(self, rng):
        model = LognormalDurationModel()
        samples = model.sample(20_000, rng)
        assert samples.mean() == pytest.approx(model.mean(), rel=0.05)

    def test_samples_respect_truncation(self, rng):
        model = LognormalDurationModel(min_minutes=10.0, max_minutes=60.0)
        samples = model.sample(5_000, rng)
        assert samples.min() >= 10.0 * 60.0 - 1e-9
        assert samples.max() <= 60.0 * 60.0 + 1e-9

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            LognormalDurationModel(sigma=0.0)
        with pytest.raises(ConfigurationError):
            LognormalDurationModel(min_minutes=10.0, max_minutes=5.0)
        with pytest.raises(ConfigurationError):
            LognormalDurationModel().sample(0, np.random.default_rng(0))

    @pytest.mark.parametrize("parameter", ["mu", "sigma", "min_minutes", "max_minutes"])
    def test_nan_parameter_rejected(self, parameter):
        # A NaN mu or truncation bound would draw NaN durations, and so a
        # catalog of NaN-sized objects.
        with pytest.raises(ConfigurationError):
            LognormalDurationModel(**{parameter: NAN})

    def test_infinite_sigma_rejected(self):
        # An infinite sigma would draw every duration at a truncation bound.
        with pytest.raises(ConfigurationError, match="sigma must be positive and finite"):
            LognormalDurationModel(sigma=float("inf"))

    def test_infinite_upper_bound_truncates_no_tail(self, rng):
        # max_minutes=inf is allowed: the lognormal draws stay finite.
        samples = LognormalDurationModel(max_minutes=float("inf")).sample(1_000, rng)
        assert np.all(np.isfinite(samples))


class TestBitrateModels:
    def test_constant_bitrate_default_is_48(self, rng):
        samples = ConstantBitrateModel().sample(5, rng)
        assert np.all(samples == 48.0)

    def test_constant_bitrate_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            ConstantBitrateModel(0.0)

    def test_constant_bitrate_rejects_nan(self):
        with pytest.raises(ConfigurationError):
            ConstantBitrateModel(NAN)

    def test_constant_bitrate_rejects_infinity(self):
        # An infinite bitrate would make every object infinitely large.
        with pytest.raises(ConfigurationError, match="bitrate must be positive and finite"):
            ConstantBitrateModel(float("inf"))


class TestPoissonArrivals:
    def test_times_sorted_and_positive(self, rng):
        times = PoissonArrivalProcess(rate=2.0).sample(1_000, rng)
        assert np.all(np.diff(times) >= 0)
        assert times[0] > 0

    def test_rate_matches_expected_span(self, rng):
        process = PoissonArrivalProcess(rate=0.5)
        times = process.sample(20_000, rng)
        assert times[-1] == pytest.approx(process.expected_span(20_000), rel=0.05)

    def test_invalid_parameters(self, rng):
        with pytest.raises(ConfigurationError):
            PoissonArrivalProcess(rate=0.0)
        with pytest.raises(ConfigurationError):
            PoissonArrivalProcess(rate=1.0).sample(0, rng)

    def test_nan_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            PoissonArrivalProcess(rate=NAN)

    def test_infinite_rate_rejected(self):
        # An infinite rate draws every arrival at t=0.
        with pytest.raises(ConfigurationError):
            PoissonArrivalProcess(rate=float("inf"))
