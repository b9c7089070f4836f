"""Tests for bandwidth-variability models (Figures 3 and 4)."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.network.variability import (
    MEASURED_PATH_PROFILES,
    ConstantVariability,
    LognormalRatioVariability,
    MeasuredPathVariability,
    NLANRRatioVariability,
    empirical_ratio_statistics,
)


class TestConstantVariability:
    def test_all_ratios_one(self, rng):
        model = ConstantVariability()
        assert np.all(model.sample_ratio(rng, size=100) == 1.0)
        assert model.coefficient_of_variation() == 0.0

    def test_time_series_constant(self, rng):
        series = ConstantVariability().time_series(10.0, 4.0, rng)
        assert np.all(series == 1.0)


class TestLognormalRatioVariability:
    def test_unit_mean(self, rng):
        model = LognormalRatioVariability(0.5)
        ratios = model.sample_ratio(rng, size=200_000)
        assert ratios.mean() == pytest.approx(1.0, abs=0.02)

    def test_cov_matches_request(self, rng):
        target = 0.4
        model = LognormalRatioVariability(target)
        ratios = model.sample_ratio(rng, size=200_000)
        assert ratios.std() / ratios.mean() == pytest.approx(target, abs=0.03)

    def test_zero_cov_is_constant(self, rng):
        ratios = LognormalRatioVariability(0.0).sample_ratio(rng, size=10)
        assert np.all(ratios == 1.0)

    def test_ratios_clipped_at_max(self, rng):
        model = LognormalRatioVariability(1.5, max_ratio=3.0)
        assert model.sample_ratio(rng, size=50_000).max() <= 3.0

    def test_rejects_negative_cov(self):
        with pytest.raises(ConfigurationError):
            LognormalRatioVariability(-0.1)

    @pytest.mark.parametrize(
        "kwargs",
        [{"coefficient_of_variation": float("nan")}, {"max_ratio": float("nan")}],
        ids=["cov", "max_ratio"],
    )
    def test_rejects_nan_parameter(self, kwargs):
        base = dict(coefficient_of_variation=0.5)
        base.update(kwargs)
        with pytest.raises(ConfigurationError):
            LognormalRatioVariability(**base)

    @pytest.mark.parametrize(
        "duration_hours, interval_minutes",
        [(float("nan"), 4.0), (10.0, float("nan"))],
        ids=["duration", "interval"],
    )
    def test_time_series_rejects_nan_span(self, rng, duration_hours, interval_minutes):
        with pytest.raises(ConfigurationError):
            LognormalRatioVariability(0.5).time_series(duration_hours, interval_minutes, rng)


class TestNLANRRatioVariability:
    def test_roughly_70_percent_within_half_band(self, rng):
        # The paper reports ~70% of samples between 0.5x and 1.5x the mean.
        model = NLANRRatioVariability()
        ratios = model.sample_ratio(rng, size=100_000)
        stats = empirical_ratio_statistics(ratios)
        assert stats["fraction_in_half_band"] == pytest.approx(0.70, abs=0.08)

    def test_higher_variability_than_measured_paths(self):
        nlanr_cov = NLANRRatioVariability().coefficient_of_variation()
        for path in MEASURED_PATH_PROFILES:
            assert MeasuredPathVariability(path).coefficient_of_variation() < nlanr_cov


class TestMeasuredPathVariability:
    def test_known_paths_and_average(self):
        for key in ("inria", "taiwan", "hongkong", "average"):
            model = MeasuredPathVariability(key)
            assert model.coefficient_of_variation() > 0

    def test_unknown_path_rejected(self):
        with pytest.raises(ConfigurationError):
            MeasuredPathVariability("mars")

    def test_inria_is_smoothest(self):
        covs = {
            key: MeasuredPathVariability(key).coefficient_of_variation()
            for key in MEASURED_PATH_PROFILES
        }
        assert covs["inria"] == min(covs.values())

    def test_time_series_length_and_positivity(self, rng):
        model = MeasuredPathVariability("taiwan")
        series = model.time_series(duration_hours=40.0, interval_minutes=4.0, rng=rng)
        assert series.size == 600
        assert np.all(series >= 0)

    def test_time_series_autocorrelated(self, rng):
        model = MeasuredPathVariability("inria")
        series = model.time_series(duration_hours=45.0, interval_minutes=4.0, rng=rng)
        lag1 = np.corrcoef(series[:-1], series[1:])[0, 1]
        assert lag1 > 0.3  # i.i.d. samples would hover near zero

    def test_bandwidth_time_series_scaled_by_profile_mean(self, rng):
        model = MeasuredPathVariability("hongkong")
        times, bandwidth = model.bandwidth_time_series(rng=rng)
        assert times.size == bandwidth.size
        assert bandwidth.mean() == pytest.approx(model.profile.mean_bandwidth, rel=0.2)

    def test_time_series_requires_rng(self):
        with pytest.raises(ConfigurationError):
            MeasuredPathVariability("inria").time_series(10.0, 4.0, None)

    @pytest.mark.parametrize(
        "duration_hours, interval_minutes",
        [(float("nan"), 4.0), (10.0, float("nan"))],
        ids=["duration", "interval"],
    )
    def test_time_series_rejects_nan_span(self, rng, duration_hours, interval_minutes):
        with pytest.raises(ConfigurationError):
            MeasuredPathVariability("inria").time_series(duration_hours, interval_minutes, rng)

    def test_marginal_ratios_unit_mean(self, rng):
        model = MeasuredPathVariability("average")
        ratios = model.sample_ratio(rng, size=100_000)
        assert ratios.mean() == pytest.approx(1.0, abs=0.02)


class TestEmpiricalRatioStatistics:
    def test_statistics_of_known_sample(self):
        stats = empirical_ratio_statistics(np.array([0.5, 1.0, 1.5]))
        assert stats["mean"] == pytest.approx(1.0)
        assert stats["fraction_in_half_band"] == 1.0
        assert stats["max_ratio"] == 1.5

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            empirical_ratio_statistics(np.array([]))
