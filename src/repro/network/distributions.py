"""Distributions of base (average) path bandwidth.

Section 3.1 of the paper derives the distribution of available bandwidth
across cache-to-server paths from NLANR proxy cache logs (Figure 2): the
distribution is highly heterogeneous, with 37% of transfers below 50 KB/s,
56% below 100 KB/s, and a long tail reaching about 450 KB/s.  The simulation
assigns each origin server a base bandwidth drawn from this distribution.

:class:`NLANRBandwidthDistribution` encodes the published summary of Fig 2
as a piecewise-uniform histogram.  :class:`EmpiricalBandwidthDistribution`
builds the same kind of model from raw samples (for example samples produced
by :mod:`repro.network.loganalysis`), and a constant distribution gives
every path the same bandwidth for tests.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError


class BandwidthDistribution:
    """Interface: a distribution over base path bandwidth in KB/s."""

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` bandwidth values (KB/s)."""
        raise NotImplementedError

    def mean(self) -> float:
        """Mean bandwidth (KB/s)."""
        raise NotImplementedError

    def cdf(self, bandwidth: float) -> float:
        """Return ``P[B <= bandwidth]``."""
        raise NotImplementedError


class ConstantBandwidthDistribution(BandwidthDistribution):
    """Every path has the same bandwidth (degenerate distribution)."""

    def __init__(self, bandwidth: float):
        if not bandwidth > 0:
            raise ConfigurationError(f"bandwidth must be positive, got {bandwidth}")
        self.bandwidth = float(bandwidth)

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        return np.full(size, self.bandwidth)

    def mean(self) -> float:
        return self.bandwidth

    def cdf(self, bandwidth: float) -> float:
        return 1.0 if bandwidth >= self.bandwidth else 0.0


class HistogramBandwidthDistribution(BandwidthDistribution):
    """Piecewise-uniform distribution defined by bin edges and masses."""

    def __init__(self, bin_edges: Sequence[float], bin_masses: Sequence[float]):
        edges = np.asarray(list(bin_edges), dtype=float)
        masses = np.asarray(list(bin_masses), dtype=float)
        if edges.ndim != 1 or edges.size < 2:
            raise ConfigurationError("bin_edges must contain at least two edges")
        if not np.all(np.diff(edges) > 0):
            raise ConfigurationError("bin_edges must be strictly increasing")
        if masses.size != edges.size - 1:
            raise ConfigurationError(
                f"expected {edges.size - 1} bin masses, got {masses.size}"
            )
        if not (np.all(masses >= 0) and masses.sum() > 0):
            raise ConfigurationError("bin masses must be non-negative and sum to > 0")
        if not edges[0] >= 0:
            raise ConfigurationError("bandwidth bins must be non-negative")
        self.bin_edges = edges
        self.bin_masses = masses / masses.sum()
        self._cumulative = np.concatenate([[0.0], np.cumsum(self.bin_masses)])

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        if size < 0:
            raise ConfigurationError(f"size must be non-negative, got {size}")
        bins = rng.choice(self.bin_masses.size, size=size, p=self.bin_masses)
        lows = self.bin_edges[bins]
        highs = self.bin_edges[bins + 1]
        return rng.uniform(lows, highs)

    def mean(self) -> float:
        centers = (self.bin_edges[:-1] + self.bin_edges[1:]) / 2.0
        return float(np.dot(centers, self.bin_masses))

    def cdf(self, bandwidth: float) -> float:
        if bandwidth <= self.bin_edges[0]:
            return 0.0
        if bandwidth >= self.bin_edges[-1]:
            return 1.0
        index = int(np.searchsorted(self.bin_edges, bandwidth, side="right") - 1)
        low, high = self.bin_edges[index], self.bin_edges[index + 1]
        within = (bandwidth - low) / (high - low)
        return float(self._cumulative[index] + within * self.bin_masses[index])

    def quantile(self, probability: float) -> float:
        """Inverse CDF; used by reports to quote median path bandwidth."""
        if not 0.0 <= probability <= 1.0:
            raise ConfigurationError(f"probability must be in [0, 1], got {probability}")
        index = int(np.searchsorted(self._cumulative, probability, side="right") - 1)
        index = min(max(index, 0), self.bin_masses.size - 1)
        mass_before = self._cumulative[index]
        mass_in_bin = self.bin_masses[index]
        low, high = self.bin_edges[index], self.bin_edges[index + 1]
        if mass_in_bin <= 0:
            return float(low)
        within = (probability - mass_before) / mass_in_bin
        return float(low + min(max(within, 0.0), 1.0) * (high - low))


#: CDF control points read from Figure 2(b) of the paper.  The two anchor
#: values quoted in the text are exact (37% below 50 KB/s, 56% below
#: 100 KB/s); the remaining points follow the published curve's shape,
#: flattening out toward 450 KB/s.
NLANR_CDF_POINTS: Tuple[Tuple[float, float], ...] = (
    (0.0, 0.00),
    (10.0, 0.08),
    (25.0, 0.21),
    (50.0, 0.37),
    (75.0, 0.48),
    (100.0, 0.56),
    (150.0, 0.67),
    (200.0, 0.75),
    (250.0, 0.82),
    (300.0, 0.88),
    (350.0, 0.92),
    (400.0, 0.96),
    (450.0, 1.00),
)


class NLANRBandwidthDistribution(HistogramBandwidthDistribution):
    """The NLANR cache-log bandwidth distribution of Figure 2.

    Built as a piecewise-uniform histogram whose CDF passes through
    :data:`NLANR_CDF_POINTS`.  This is the default base-bandwidth model used
    by every simulation in Section 4.
    """

    def __init__(self) -> None:
        edges = [point[0] for point in NLANR_CDF_POINTS]
        cdf_values = [point[1] for point in NLANR_CDF_POINTS]
        masses = np.diff(np.asarray(cdf_values))
        super().__init__(edges, masses)


class EmpiricalBandwidthDistribution(HistogramBandwidthDistribution):
    """Histogram distribution estimated from raw bandwidth samples.

    This is how the paper itself proceeds: raw per-transfer throughput
    samples (object size divided by connection duration) are binned into
    4 KB/s slots to form the Figure 2 histogram.
    """

    def __init__(self, samples: Sequence[float], bin_width: float = 4.0):
        data = np.asarray(list(samples), dtype=float)
        if data.size == 0:
            raise ConfigurationError("samples must be non-empty")
        if not np.all(data >= 0):
            raise ConfigurationError("bandwidth samples must be non-negative")
        if not bin_width > 0:
            raise ConfigurationError(f"bin_width must be positive, got {bin_width}")
        upper = max(float(data.max()), bin_width)
        num_bins = int(np.ceil(upper / bin_width))
        edges = np.arange(0.0, (num_bins + 1) * bin_width, bin_width)
        counts, _ = np.histogram(data, bins=edges)
        if counts.sum() == 0:
            raise ConfigurationError("all samples fell outside the histogram bins")
        super().__init__(edges, counts.astype(float))
        self.sample_count = int(data.size)
        self.raw_mean = float(data.mean())
