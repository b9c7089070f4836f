"""Models of how a single path's bandwidth varies over time.

Section 3.1 characterises bandwidth variability two ways:

* **NLANR cache logs (Figure 3).**  For each path the sample-to-mean
  bandwidth ratio is computed; about 70% of samples lie within 0.5–1.5 times
  the path mean, with a heavy tail reaching 3x.  The paper notes this is a
  pessimistic (bursty) model because it mixes diurnal time scales and proxy
  load effects.
* **Measured Internet paths (Figure 4).**  Long-running downloads from
  Boston University to servers at INRIA (France), Taiwan, and Hong Kong show
  much lower variability; the magnitude differs per path (INRIA is the
  smoothest) and is quantified by the coefficient of variation of the
  sample-to-mean ratio.

Variability models produce multiplicative *ratios* applied to a path's base
bandwidth.  They expose both i.i.d. sampling (what the simulator uses when a
request observes an instantaneous bandwidth) and time-series generation
(what the Figure 4 reproduction uses).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.exceptions import ConfigurationError


class BandwidthVariabilityModel:
    """Interface for sample-to-mean bandwidth ratio models."""

    def sample_ratio(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw ``size`` i.i.d. sample-to-mean ratios (mean ~ 1).

        One ``size=n`` call must consume ``rng`` exactly like ``n``
        consecutive ``size=1`` calls: the replay draws every request's
        ratio in one batch.
        """
        raise NotImplementedError

    def coefficient_of_variation(self) -> float:
        """Standard deviation of the ratio divided by its mean."""
        raise NotImplementedError

    def time_series(
        self,
        duration_hours: float,
        interval_minutes: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Return a ratio time series sampled every ``interval_minutes``.

        The default implementation draws i.i.d. ratios; autocorrelated
        models (e.g. :class:`MeasuredPathVariability`) override this.
        """
        if not (duration_hours > 0 and interval_minutes > 0):
            raise ConfigurationError("duration and interval must be positive")
        samples = int(duration_hours * 60.0 / interval_minutes)
        return self.sample_ratio(rng, size=max(samples, 1))


class ConstantVariability(BandwidthVariabilityModel):
    """No variability: every sample equals the path's mean bandwidth.

    This is the "constant bandwidth assumption" under which the paper derives
    its optimal solution (Section 2.3) and runs the Figure 5 experiments.
    """

    def sample_ratio(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        return np.ones(size)

    def coefficient_of_variation(self) -> float:
        return 0.0

    def __repr__(self) -> str:
        return "ConstantVariability()"


class LognormalRatioVariability(BandwidthVariabilityModel):
    """Sample-to-mean ratios drawn from a unit-mean lognormal distribution.

    The lognormal is parameterised by its coefficient of variation, which
    makes it easy to construct models "as variable as" a measured path.  The
    underlying normal parameters are chosen so the ratio's mean is exactly 1.
    """

    def __init__(self, coefficient_of_variation: float, max_ratio: float = 5.0):
        if not coefficient_of_variation >= 0:
            raise ConfigurationError(
                f"coefficient of variation must be non-negative, got {coefficient_of_variation}"
            )
        if not max_ratio > 0:
            raise ConfigurationError(f"max_ratio must be positive, got {max_ratio}")
        self._cov = float(coefficient_of_variation)
        self.max_ratio = float(max_ratio)
        # For a lognormal with mean 1: sigma^2 = ln(1 + cov^2), mu = -sigma^2/2.
        self._sigma = math.sqrt(math.log(1.0 + self._cov**2)) if self._cov > 0 else 0.0
        self._mu = -self._sigma**2 / 2.0

    def __repr__(self) -> str:
        return f"LognormalRatioVariability(cov={self._cov})"

    def sample_ratio(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        if self._cov == 0:
            return np.ones(size)
        ratios = rng.lognormal(self._mu, self._sigma, size=size)
        return np.clip(ratios, 0.0, self.max_ratio)

    def coefficient_of_variation(self) -> float:
        return self._cov


class NLANRRatioVariability(LognormalRatioVariability):
    """The high-variability sample-to-mean model of Figure 3.

    Calibrated so that roughly 70% of ratios fall in the 0.5–1.5 band
    (the figure the paper quotes) with a tail extending to about 3x the
    mean.  A unit-mean lognormal with a coefficient of variation of 0.60
    satisfies both properties (68% of its mass lies in the band and its
    99th percentile is close to 3).
    """

    #: Coefficient of variation matching Figure 3's published statistics.
    DEFAULT_COV: float = 0.60

    def __init__(self, coefficient_of_variation: float = DEFAULT_COV):
        super().__init__(coefficient_of_variation, max_ratio=4.0)

    def __repr__(self) -> str:
        return f"NLANRRatioVariability(cov={self.coefficient_of_variation()})"


@dataclass(frozen=True)
class MeasuredPathProfile:
    """Summary of one of the paper's measured Internet paths (Figure 4)."""

    name: str
    mean_bandwidth: float
    coefficient_of_variation: float
    autocorrelation: float
    duration_hours: float


#: Profiles of the three measured paths in Figure 4.  The mean bandwidth and
#: relative variability (INRIA smoothest, Taiwan most variable) follow the
#: published time-series plots; exact values are not printed in the paper so
#: these are visual estimates with the right ordering and magnitudes.
MEASURED_PATH_PROFILES: Dict[str, MeasuredPathProfile] = {
    "inria": MeasuredPathProfile(
        name="INRIA, France (138.96.64.17)",
        mean_bandwidth=110.0,
        coefficient_of_variation=0.12,
        autocorrelation=0.85,
        duration_hours=45.0,
    ),
    "taiwan": MeasuredPathProfile(
        name="Taiwan (140.114.71.23)",
        mean_bandwidth=60.0,
        coefficient_of_variation=0.40,
        autocorrelation=0.70,
        duration_hours=40.0,
    ),
    "hongkong": MeasuredPathProfile(
        name="Hong Kong (143.89.40.4)",
        mean_bandwidth=80.0,
        coefficient_of_variation=0.25,
        autocorrelation=0.75,
        duration_hours=30.0,
    ),
}


class MeasuredPathVariability(BandwidthVariabilityModel):
    """Low-variability model matching the measured Internet paths of Fig 4.

    Marginally the sample-to-mean ratio is a unit-mean lognormal with the
    path's coefficient of variation; the time series is generated by an
    AR(1) process in log space so consecutive 4-minute samples are
    correlated, as the published time-series plots clearly are.

    Parameters
    ----------
    path:
        One of ``"inria"``, ``"taiwan"``, ``"hongkong"``, or ``"average"``
        (the mean CoV across the three paths, which is what the Figure 8
        and 11 simulations use as "variation measured from real paths").
    """

    def __init__(self, path: str = "average"):
        key = path.lower()
        if key == "average":
            covs = [p.coefficient_of_variation for p in MEASURED_PATH_PROFILES.values()]
            cov = float(np.mean(covs))
            rho = float(
                np.mean([p.autocorrelation for p in MEASURED_PATH_PROFILES.values()])
            )
            self.profile = MeasuredPathProfile(
                name="average of measured paths",
                mean_bandwidth=float(
                    np.mean([p.mean_bandwidth for p in MEASURED_PATH_PROFILES.values()])
                ),
                coefficient_of_variation=cov,
                autocorrelation=rho,
                duration_hours=40.0,
            )
        elif key in MEASURED_PATH_PROFILES:
            self.profile = MEASURED_PATH_PROFILES[key]
        else:
            raise ConfigurationError(
                f"unknown measured path {path!r}; expected one of "
                f"{sorted(MEASURED_PATH_PROFILES)} or 'average'"
            )
        cov = self.profile.coefficient_of_variation
        self._marginal = LognormalRatioVariability(cov, max_ratio=3.0)
        self._sigma = math.sqrt(math.log(1.0 + cov**2)) if cov > 0 else 0.0
        self._mu = -self._sigma**2 / 2.0

    def __repr__(self) -> str:
        return (
            f"MeasuredPathVariability(path={self.profile.name!r}, "
            f"cov={self.profile.coefficient_of_variation})"
        )

    def sample_ratio(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        return self._marginal.sample_ratio(rng, size=size)

    def coefficient_of_variation(self) -> float:
        return self.profile.coefficient_of_variation

    def time_series(
        self,
        duration_hours: float = None,
        interval_minutes: float = 4.0,
        rng: np.random.Generator = None,
    ) -> np.ndarray:
        """AR(1)-correlated ratio series sampled every ``interval_minutes``."""
        if rng is None:
            raise ConfigurationError("an rng must be provided for time_series")
        if duration_hours is None:
            duration_hours = self.profile.duration_hours
        if not (duration_hours > 0 and interval_minutes > 0):
            raise ConfigurationError("duration and interval must be positive")
        samples = max(int(duration_hours * 60.0 / interval_minutes), 1)
        if self._sigma == 0:
            return np.ones(samples)
        rho = self.profile.autocorrelation
        innovations = rng.normal(0.0, 1.0, size=samples)
        log_ratios = np.empty(samples)
        # Start the chain in its stationary distribution.
        log_ratios[0] = self._mu + self._sigma * innovations[0]
        innovation_scale = self._sigma * math.sqrt(1.0 - rho**2)
        for index in range(1, samples):
            log_ratios[index] = (
                self._mu
                + rho * (log_ratios[index - 1] - self._mu)
                + innovation_scale * innovations[index]
            )
        ratios = np.exp(log_ratios)
        return np.clip(ratios, 0.0, 3.0)

    def bandwidth_time_series(
        self,
        duration_hours: float = None,
        interval_minutes: float = 4.0,
        rng: np.random.Generator = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(times_hours, bandwidth_kbps)`` as plotted in Figure 4."""
        ratios = self.time_series(duration_hours, interval_minutes, rng)
        times = np.arange(ratios.size) * (interval_minutes / 60.0)
        return times, ratios * self.profile.mean_bandwidth


def empirical_ratio_statistics(ratios: np.ndarray) -> Dict[str, float]:
    """Compute the summary statistics the paper reports about ratio samples.

    Returns the coefficient of variation and the fraction of samples in the
    0.5–1.5 band (the "about 70% of the cases" statement about Figure 3).
    """
    data = np.asarray(ratios, dtype=float)
    if data.size == 0:
        raise ConfigurationError("ratios must be non-empty")
    mean = float(data.mean())
    std = float(data.std())
    in_band = float(np.mean((data >= 0.5) & (data <= 1.5)))
    return {
        "mean": mean,
        "coefficient_of_variation": std / mean if mean > 0 else float("inf"),
        "fraction_in_half_band": in_band,
        "max_ratio": float(data.max()),
    }
