"""Object duration and bit-rate models.

Table 1 of the paper specifies the workload's object sizes as follows: the
object *duration* (in minutes) follows a Lognormal distribution with
``mu = 3.85`` and ``sigma = 0.56`` (mean duration about 55 minutes, about
79 K frames at 24 frames per second), and every object is CBR-encoded at
2 KB/frame * 24 frames/s = 48 KB/s.  The total unique object size then works
out to roughly 790 GB for 5,000 objects.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import ConfigurationError
from repro.units import DEFAULT_BITRATE_KBPS, SECONDS_PER_MINUTE


class DurationModel:
    """Interface for object-duration models (durations in seconds)."""

    def sample(self, num_objects: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``num_objects`` durations (seconds)."""
        raise NotImplementedError

    def mean(self) -> float:
        """Analytical mean duration in seconds."""
        raise NotImplementedError


class LognormalDurationModel(DurationModel):
    """Lognormal object durations, parameterised in *minutes* as in Table 1.

    Parameters
    ----------
    mu, sigma:
        Parameters of the underlying normal distribution of
        ``log(duration in minutes)``.  Defaults are the paper's
        ``mu = 3.85``, ``sigma = 0.56``.
    min_minutes, max_minutes:
        Optional truncation bounds applied by resampling; GISMO truncates
        pathological tails so a single object cannot dwarf the catalog.
    """

    def __init__(
        self,
        mu: float = 3.85,
        sigma: float = 0.56,
        min_minutes: float = 0.5,
        max_minutes: float = 600.0,
    ):
        if not math.isfinite(mu):
            raise ConfigurationError(f"mu must be finite, got {mu}")
        if not 0 < sigma < math.inf:
            raise ConfigurationError(f"sigma must be positive and finite, got {sigma}")
        if not 0 < min_minutes < max_minutes:
            raise ConfigurationError(
                f"invalid truncation bounds [{min_minutes}, {max_minutes}]"
            )
        self.mu = float(mu)
        self.sigma = float(sigma)
        self.min_minutes = float(min_minutes)
        self.max_minutes = float(max_minutes)

    def __repr__(self) -> str:
        return f"LognormalDurationModel(mu={self.mu}, sigma={self.sigma})"

    def mean(self) -> float:
        """Analytical (untruncated) mean duration in seconds."""
        mean_minutes = float(np.exp(self.mu + self.sigma**2 / 2.0))
        return mean_minutes * SECONDS_PER_MINUTE

    def sample(self, num_objects: int, rng: np.random.Generator) -> np.ndarray:
        if num_objects <= 0:
            raise ConfigurationError(
                f"num_objects must be positive, got {num_objects}"
            )
        minutes = rng.lognormal(self.mu, self.sigma, size=num_objects)
        # Resample out-of-range draws rather than clipping, which would pile
        # probability mass on the bounds and distort the size distribution.
        out_of_range = (minutes < self.min_minutes) | (minutes > self.max_minutes)
        attempts = 0
        while np.any(out_of_range) and attempts < 100:
            redraw = rng.lognormal(self.mu, self.sigma, size=int(out_of_range.sum()))
            minutes[out_of_range] = redraw
            out_of_range = (minutes < self.min_minutes) | (minutes > self.max_minutes)
            attempts += 1
        minutes = np.clip(minutes, self.min_minutes, self.max_minutes)
        return minutes * SECONDS_PER_MINUTE


class BitrateModel:
    """Interface for per-object bit-rate models (KB/s)."""

    def sample(self, num_objects: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``num_objects`` bit-rates (KB/s)."""
        raise NotImplementedError


class ConstantBitrateModel(BitrateModel):
    """Every object encoded at the same CBR rate (the paper's 48 KB/s)."""

    def __init__(self, bitrate: float = DEFAULT_BITRATE_KBPS):
        if not 0 < bitrate < math.inf:
            raise ConfigurationError(
                f"bitrate must be positive and finite, got {bitrate}"
            )
        self.bitrate = float(bitrate)

    def __repr__(self) -> str:
        return f"ConstantBitrateModel(bitrate={self.bitrate})"

    def sample(self, num_objects: int, rng: np.random.Generator) -> np.ndarray:
        if num_objects <= 0:
            raise ConfigurationError(
                f"num_objects must be positive, got {num_objects}"
            )
        return np.full(num_objects, self.bitrate)
