"""Tests for the Zipf popularity model."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.workload.popularity import ZipfPopularity


class TestZipfPopularity:
    def test_probabilities_sum_to_one(self):
        probs = ZipfPopularity(0.73).probabilities(5000)
        assert probs.sum() == pytest.approx(1.0)

    def test_probabilities_decreasing_in_rank(self):
        probs = ZipfPopularity(0.73).probabilities(100)
        assert np.all(np.diff(probs) <= 0)

    def test_alpha_zero_is_uniform(self):
        probs = ZipfPopularity(0.0).probabilities(10)
        assert np.allclose(probs, 0.1)

    def test_higher_alpha_concentrates_mass(self):
        low = ZipfPopularity(0.5).probabilities(1000)
        high = ZipfPopularity(1.2).probabilities(1000)
        assert high[0] > low[0]
        assert high[:10].sum() > low[:10].sum()

    def test_negative_alpha_rejected(self):
        with pytest.raises(ConfigurationError):
            ZipfPopularity(-0.1)

    def test_nan_alpha_rejected(self):
        with pytest.raises(ConfigurationError):
            ZipfPopularity(float("nan"))

    def test_zero_objects_rejected(self):
        with pytest.raises(ConfigurationError):
            ZipfPopularity(0.73).probabilities(0)

    def test_sample_ranks_within_range(self, rng):
        ranks = ZipfPopularity(0.73).sample_ranks(50, 10_000, rng)
        assert ranks.min() >= 0
        assert ranks.max() < 50

    def test_sample_ranks_skewed_toward_low_ranks(self, rng):
        ranks = ZipfPopularity(1.0).sample_ranks(100, 20_000, rng)
        top_share = np.mean(ranks < 10)
        assert top_share > 0.35  # top 10% of objects get well over 10% of requests

    def test_expected_rates_scale_with_requests(self):
        rates = ZipfPopularity(0.73).expected_rates(100, 10_000)
        assert rates.sum() == pytest.approx(10_000)
