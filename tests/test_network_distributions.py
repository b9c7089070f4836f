"""Tests for base-bandwidth distributions (Figure 2 models)."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.network.distributions import (
    ConstantBandwidthDistribution,
    EmpiricalBandwidthDistribution,
    HistogramBandwidthDistribution,
    NLANRBandwidthDistribution,
)


class TestConstantBandwidthDistribution:
    def test_sample_and_cdf(self, rng):
        dist = ConstantBandwidthDistribution(100.0)
        assert np.all(dist.sample(5, rng) == 100.0)
        assert dist.mean() == 100.0
        assert dist.cdf(99.0) == 0.0
        assert dist.cdf(100.0) == 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            ConstantBandwidthDistribution(0.0)

    def test_rejects_nan(self):
        with pytest.raises(ConfigurationError):
            ConstantBandwidthDistribution(float("nan"))


class TestHistogramBandwidthDistribution:
    def test_masses_normalised(self):
        dist = HistogramBandwidthDistribution([0, 10, 20], [3.0, 1.0])
        assert dist.bin_masses.tolist() == pytest.approx([0.75, 0.25])

    def test_cdf_and_quantile_are_inverse(self):
        dist = HistogramBandwidthDistribution([0, 10, 20, 40], [1.0, 2.0, 1.0])
        for probability in (0.1, 0.5, 0.9):
            assert dist.cdf(dist.quantile(probability)) == pytest.approx(probability, abs=1e-9)

    def test_sampling_respects_masses(self, rng):
        dist = HistogramBandwidthDistribution([0, 10, 100], [0.9, 0.1])
        samples = dist.sample(20_000, rng)
        assert np.mean(samples < 10.0) == pytest.approx(0.9, abs=0.02)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            HistogramBandwidthDistribution([0], [])
        with pytest.raises(ConfigurationError):
            HistogramBandwidthDistribution([0, 10], [1.0, 2.0])
        with pytest.raises(ConfigurationError):
            HistogramBandwidthDistribution([10, 0], [1.0])
        with pytest.raises(ConfigurationError):
            HistogramBandwidthDistribution([0, 10], [-1.0])
        with pytest.raises(ConfigurationError):
            HistogramBandwidthDistribution([0, 10, 20], [1.0, 1.0]).quantile(1.5)

    @pytest.mark.parametrize(
        "edges, masses",
        [([0.0, float("nan"), 20.0], [1.0, 1.0]), ([0.0, 10.0, 20.0], [1.0, float("nan")])],
        ids=["edge", "mass"],
    )
    def test_nan_edge_or_mass_rejected(self, edges, masses):
        with pytest.raises(ConfigurationError):
            HistogramBandwidthDistribution(edges, masses)


class TestNLANRBandwidthDistribution:
    def test_anchor_fractions_match_paper(self):
        dist = NLANRBandwidthDistribution()
        # The paper: 37% of requests below 50 KB/s, 56% below 100 KB/s.
        assert dist.cdf(50.0) == pytest.approx(0.37, abs=1e-9)
        assert dist.cdf(100.0) == pytest.approx(0.56, abs=1e-9)

    def test_support_bounded_by_450(self, rng):
        dist = NLANRBandwidthDistribution()
        samples = dist.sample(10_000, rng)
        assert samples.max() <= 450.0
        assert samples.min() >= 0.0

    def test_sampled_fractions_match_cdf(self, rng):
        dist = NLANRBandwidthDistribution()
        samples = dist.sample(50_000, rng)
        assert np.mean(samples < 50.0) == pytest.approx(0.37, abs=0.02)
        assert np.mean(samples < 100.0) == pytest.approx(0.56, abs=0.02)

    def test_mean_is_heterogeneous_but_moderate(self):
        mean = NLANRBandwidthDistribution().mean()
        assert 80.0 < mean < 200.0


class TestEmpiricalBandwidthDistribution:
    def test_built_from_samples_reproduces_fractions(self, rng):
        reference = NLANRBandwidthDistribution()
        raw = reference.sample(30_000, rng)
        empirical = EmpiricalBandwidthDistribution(raw, bin_width=4.0)
        assert empirical.cdf(50.0) == pytest.approx(reference.cdf(50.0), abs=0.03)
        assert empirical.cdf(100.0) == pytest.approx(reference.cdf(100.0), abs=0.03)
        assert empirical.sample_count == 30_000

    def test_rejects_empty_or_negative(self):
        with pytest.raises(ConfigurationError):
            EmpiricalBandwidthDistribution([])
        with pytest.raises(ConfigurationError):
            EmpiricalBandwidthDistribution([-1.0, 2.0])
        with pytest.raises(ConfigurationError):
            EmpiricalBandwidthDistribution([1.0], bin_width=0.0)

    @pytest.mark.parametrize(
        "samples, bin_width",
        [([1.0, float("nan"), 3.0], 4.0), ([1.0, 3.0], float("nan"))],
        ids=["sample", "bin_width"],
    )
    def test_nan_input_rejected(self, samples, bin_width):
        # Either must fail here, before the bin count int(ceil(max / width)).
        with pytest.raises(ConfigurationError):
            EmpiricalBandwidthDistribution(samples, bin_width=bin_width)
