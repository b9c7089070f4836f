"""Cache-to-server path abstraction.

A :class:`NetworkPath` combines a base (long-term average) bandwidth with a
:class:`~repro.network.variability.BandwidthVariabilityModel` to answer the
two questions the rest of the system asks:

* what bandwidth does the *cache believe* the path has (the measured or
  estimated value its caching decisions use), and
* what bandwidth does a *particular request actually experience* (the base
  bandwidth modulated by a variability ratio).

Keeping the two separate is exactly what the paper's Section 2.5 heuristic
exploits: the hybrid policy deliberately *under-estimates* the believed
bandwidth by a factor ``e`` to hedge against variability.

:class:`PathRegistry` holds one path per origin server and is the object the
simulator and the policies share.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.exceptions import ConfigurationError, UnknownObjectError
from repro.network.distributions import BandwidthDistribution
from repro.network.variability import BandwidthVariabilityModel, ConstantVariability

#: Hard floor (KB/s) on any observed/base bandwidth.  It keeps the delay
#: formulas away from division by zero on extreme draws, and it doubles as
#: the throughput sample a completely stalled transfer reports: the fault
#: injector (:mod:`repro.sim.faults`) feeds this floor to the passive
#: estimator while an origin is unreachable, so outages appear to the
#: learning machinery as bandwidth collapse rather than missing data.
BANDWIDTH_FLOOR = 1.0

#: The model of every path built without one.  It holds no state, so one
#: instance serves them all, and a registry of such paths shares one model
#: as the replay requires.
_CONSTANT = ConstantVariability()


class NetworkPath:
    """The path between the proxy cache and one origin server."""

    def __init__(
        self,
        server_id: int,
        base_bandwidth: float,
        variability: Optional[BandwidthVariabilityModel] = None,
    ):
        if not base_bandwidth > 0:
            raise ConfigurationError(
                f"path to server {server_id}: base bandwidth must be positive, "
                f"got {base_bandwidth}"
            )
        self.server_id = int(server_id)
        self.base_bandwidth = float(base_bandwidth)
        self.variability = variability or _CONSTANT

    def __repr__(self) -> str:
        return (
            f"NetworkPath(server_id={self.server_id}, "
            f"base_bandwidth={self.base_bandwidth:.1f}, "
            f"variability={self.variability!r})"
        )

    def sample_observed(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` observed-bandwidth samples (KB/s) in one batch.

        Each sample is the base bandwidth times a sample-to-mean ratio from
        the path's variability model, floored at 1 KB/s so the delay
        formulas never divide by zero on extreme draws.  The bundled models
        draw a batch exactly like ``size`` consecutive one-sample draws
        (``tests/test_network_path_topology.py`` pins it), so batching
        moves no value.  Periodic re-measurement refills its probe batches
        with this.
        """
        if size < 0:
            raise ConfigurationError(f"size must be non-negative, got {size}")
        ratios = np.asarray(
            self.variability.sample_ratio(rng, size=size), dtype=np.float64
        )
        return np.maximum(self.base_bandwidth * ratios, BANDWIDTH_FLOOR)


class PathRegistry:
    """A collection of :class:`NetworkPath` objects indexed by server id."""

    def __init__(self, paths: Iterable[NetworkPath] = ()):
        self._paths: Dict[int, NetworkPath] = {}
        for path in paths:
            self.add(path)

    def add(self, path: NetworkPath) -> None:
        """Register a path, rejecting duplicates for the same server."""
        if path.server_id in self._paths:
            raise ConfigurationError(f"duplicate path for server {path.server_id}")
        self._paths[path.server_id] = path

    def __len__(self) -> int:
        return len(self._paths)

    def __contains__(self, server_id: int) -> bool:
        return server_id in self._paths

    def __iter__(self):
        return iter(self._paths.values())

    def get(self, server_id: int) -> NetworkPath:
        """Return the path to ``server_id``, raising if unknown."""
        try:
            return self._paths[server_id]
        except KeyError:
            raise UnknownObjectError(f"no path registered for server {server_id}") from None

    def server_ids(self) -> List[int]:
        """All registered server ids, sorted."""
        return sorted(self._paths.keys())

    @classmethod
    def from_distribution(
        cls,
        server_ids: Iterable[int],
        distribution: BandwidthDistribution,
        rng: np.random.Generator,
        variability: Optional[BandwidthVariabilityModel] = None,
    ) -> "PathRegistry":
        """Draw one base bandwidth per server from ``distribution``.

        All paths share the same variability *model*; their base bandwidths
        differ, which is exactly how the paper constructs its simulated
        network (Section 3.2: "The bandwidth between the cache and the
        servers follows the sample distribution from the NLANR logs").
        A small floor keeps degenerate zero-bandwidth draws usable.
        """
        ids = list(server_ids)
        if not ids:
            raise ConfigurationError("server_ids must be non-empty")
        bandwidths = distribution.sample(len(ids), rng)
        paths = [
            NetworkPath(
                server_id=server_id,
                base_bandwidth=max(float(bandwidth), BANDWIDTH_FLOOR),
                variability=variability,
            )
            for server_id, bandwidth in zip(ids, bandwidths)
        ]
        return cls(paths)
