"""Request arrival processes.

The paper's workload uses a Poisson arrival process (Table 1): requests
arrive independently with exponentially distributed inter-arrival times.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import ConfigurationError


class ArrivalProcess:
    """Interface for arrival processes: produce sorted request timestamps."""

    def sample(self, num_requests: int, rng: np.random.Generator) -> np.ndarray:
        """Return ``num_requests`` arrival times (seconds), non-decreasing."""
        raise NotImplementedError


class PoissonArrivalProcess(ArrivalProcess):
    """Homogeneous Poisson arrivals at ``rate`` requests per second."""

    def __init__(self, rate: float):
        if not 0 < rate < math.inf:
            raise ConfigurationError(
                f"arrival rate must be positive and finite, got {rate}"
            )
        self.rate = float(rate)

    def __repr__(self) -> str:
        return f"PoissonArrivalProcess(rate={self.rate})"

    def sample(self, num_requests: int, rng: np.random.Generator) -> np.ndarray:
        if num_requests <= 0:
            raise ConfigurationError(
                f"num_requests must be positive, got {num_requests}"
            )
        inter_arrivals = rng.exponential(1.0 / self.rate, size=num_requests)
        return np.cumsum(inter_arrivals)

    def expected_span(self, num_requests: int) -> float:
        """Expected duration (seconds) covered by ``num_requests`` arrivals."""
        return num_requests / self.rate
