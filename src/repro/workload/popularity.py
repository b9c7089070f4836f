"""Object popularity models.

The paper's workload (Section 3.2, Table 1) assigns object popularity from a
Zipf-like distribution: the probability that the ``r``-th ranked object is
requested is proportional to ``r**(-alpha)``.  The default skew parameter is
``alpha = 0.73`` and Figure 6 sweeps it between 0.5 and 1.2.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError


class PopularityModel:
    """Interface for popularity models: a probability per object rank."""

    def probabilities(self, num_objects: int) -> np.ndarray:
        """Return an array of request probabilities, one per rank (0-based)."""
        raise NotImplementedError

    def sample_ranks(
        self, num_objects: int, num_samples: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw ``num_samples`` object ranks i.i.d. from the popularity law."""
        probs = self.probabilities(num_objects)
        return rng.choice(num_objects, size=num_samples, p=probs)


class ZipfPopularity(PopularityModel):
    """Zipf-like popularity: ``P(rank r) ∝ r**(-alpha)`` for ``r = 1..N``.

    Parameters
    ----------
    alpha:
        Skew parameter.  ``alpha = 0`` degenerates to a uniform popularity;
        larger values concentrate requests on the most popular objects and
        intensify temporal locality (Section 4.2).
    """

    def __init__(self, alpha: float = 0.73):
        if not alpha >= 0:
            raise ConfigurationError(f"Zipf alpha must be non-negative, got {alpha}")
        self.alpha = float(alpha)

    def __repr__(self) -> str:
        return f"ZipfPopularity(alpha={self.alpha})"

    def probabilities(self, num_objects: int) -> np.ndarray:
        if num_objects <= 0:
            raise ConfigurationError(
                f"num_objects must be positive, got {num_objects}"
            )
        ranks = np.arange(1, num_objects + 1, dtype=float)
        weights = ranks ** (-self.alpha)
        return weights / weights.sum()

    def expected_rates(self, num_objects: int, total_requests: float) -> np.ndarray:
        """Expected request count per rank for a trace of ``total_requests``.

        This is the ``lambda_i`` the paper's offline optimal policy
        (Section 2.3) assumes to be known a priori.
        """
        return self.probabilities(num_objects) * float(total_requests)
