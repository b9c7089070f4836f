"""Delivery topology: origin servers, proxy cache, client cloud (Figure 1).

The paper's architecture has three tiers: origin servers somewhere on the
Internet, a caching proxy at the edge, and a cloud of clients behind the
proxy.  The topology object wires a
:class:`~repro.workload.catalog.Catalog` to a
:class:`~repro.network.path.PathRegistry` so that, given an object, the
simulator can look up the bandwidth of the path to that object's origin
server.  The proxy's capacity is the simulation config's cache size.

The paper assumes the client side's last mile is abundant; the default
:class:`ClientCloud` keeps that assumption.  Giving the cloud per-group
last-mile :class:`~repro.network.path.NetworkPath` objects promotes the
cache-to-client hop to a modeled link, and the simulator composes the two
hops per request (``docs/clients.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.network.distributions import BandwidthDistribution, NLANRBandwidthDistribution
from repro.network.path import NetworkPath, PathRegistry
from repro.network.variability import BandwidthVariabilityModel
from repro.workload.catalog import Catalog, MediaObject


@dataclass(frozen=True)
class ClientCloud:
    """The client population behind the proxy, with optional last-mile paths.

    The paper assumes abundant bandwidth between clients and the proxy
    ("we assume abundant bandwidth at the last mile of the client side"),
    and the default construction keeps that assumption: no modeled paths,
    an effectively infinite cache-to-client hop.

    Setting ``paths`` promotes the hop to a first-class modeled link: one
    :class:`~repro.network.path.NetworkPath` per client *group*, where
    client ``c`` maps to ``paths[c % len(paths)]`` (a stable hash of the
    trace's ``client_id`` column into the configured groups).  Each group
    path combines a base last-mile bandwidth with a variability model,
    exactly like the cache-to-server paths, and all group paths must
    share one model instance (the simulator refuses a cloud that does
    not); the simulator then composes the two hops per request — the
    delivered bandwidth is the bottleneck ``min(origin hop, last-mile
    hop)``.  See ``docs/clients.md``.

    A path's ``server_id`` field doubles as the *group index* here; the
    registry semantics ("endpoint id") carry over unchanged.
    """

    paths: Optional[Tuple[NetworkPath, ...]] = None

    def __post_init__(self) -> None:
        if self.paths is not None:
            if not self.paths:
                raise ConfigurationError(
                    "paths must be non-empty when given; use None for the "
                    "paper's unmodeled abundant last mile"
                )
            object.__setattr__(self, "paths", tuple(self.paths))

    @property
    def constrains(self) -> bool:
        """Whether the last-mile hop is modeled at all (``paths`` is set)."""
        return self.paths is not None

    @property
    def group_count(self) -> int:
        """Number of last-mile client groups (0 when the hop is unmodeled)."""
        return 0 if self.paths is None else len(self.paths)

    def last_mile_for(self, client_id: int) -> Optional[NetworkPath]:
        """The last-mile path serving a client (``None`` when unmodeled)."""
        if self.paths is None:
            return None
        return self.paths[int(client_id) % len(self.paths)]

    def base_bandwidth_for(self, client_id: int) -> float:
        """Base last-mile bandwidth (KB/s) a client's group is provisioned
        at (``inf`` when the hop is unmodeled)."""
        path = self.last_mile_for(client_id)
        if path is None:
            return float("inf")
        return path.base_bandwidth

    def group_caps(self) -> Optional[Tuple[float, ...]]:
        """Per-group last-mile base bandwidths, in group order.

        ``None`` when the hop is unmodeled.  This is the cap sequence the
        reactive rekeyer (``repro.sim.events.ReactiveRekeyer``) keys its
        per-group anchors on: a request from group ``g`` never believes
        more than ``group_caps()[g]``, so estimate movement above a group's
        cap is invisible to that group's requests.
        """
        if self.paths is None:
            return None
        return tuple(path.base_bandwidth for path in self.paths)

    @classmethod
    def homogeneous(
        cls,
        bandwidth: float,
        variability: Optional[BandwidthVariabilityModel] = None,
        groups: int = 1,
    ) -> "ClientCloud":
        """Model every client group with the same last-mile base bandwidth.

        All groups share one variability-model instance, as the replay
        requires: ``variability``, or the constant model every path built
        without one shares.  ``bandwidth`` may be ``inf``: the hop is then
        modeled but never the bottleneck, which is how the
        pre-heterogeneity simulator is reproduced bit-for-bit through the
        composition code (``tests/test_sim_clients.py``).
        """
        if groups <= 0:
            raise ConfigurationError(f"groups must be positive, got {groups}")
        paths = tuple(
            NetworkPath(
                server_id=group, base_bandwidth=bandwidth, variability=variability
            )
            for group in range(groups)
        )
        return cls(paths=paths)

    @classmethod
    def from_distribution(
        cls,
        groups: int,
        distribution: BandwidthDistribution,
        rng: np.random.Generator,
        variability: Optional[BandwidthVariabilityModel] = None,
    ) -> "ClientCloud":
        """Draw one last-mile base bandwidth per client group.

        The same construction :meth:`PathRegistry.from_distribution` uses
        for origin paths, applied to the cache-to-client side: every group
        shares the variability *model* while base bandwidths differ, which
        is what makes the client population heterogeneous.  A 1 KB/s floor
        keeps degenerate draws usable.
        """
        if groups <= 0:
            raise ConfigurationError(f"groups must be positive, got {groups}")
        bandwidths = distribution.sample(groups, rng)
        paths = tuple(
            NetworkPath(
                server_id=group,
                base_bandwidth=max(float(bandwidth), 1.0),
                variability=variability,
            )
            for group, bandwidth in enumerate(np.asarray(bandwidths, dtype=np.float64))
        )
        return cls(paths=paths)


@dataclass
class DeliveryTopology:
    """The full server / proxy / client wiring for one simulation."""

    catalog: Catalog
    paths: PathRegistry
    clients: ClientCloud = field(default_factory=ClientCloud)

    def __post_init__(self) -> None:
        missing = [
            server_id
            for server_id in self.catalog.server_ids()
            if server_id not in self.paths
        ]
        if missing:
            raise ConfigurationError(
                f"catalog references servers with no registered path: {missing[:5]}"
                + ("..." if len(missing) > 5 else "")
            )

    def path_for(self, obj: MediaObject) -> NetworkPath:
        """Return the cache-to-server path serving the given object."""
        return self.paths.get(obj.server_id)

    def last_mile_caps(self) -> Optional[Tuple[float, ...]]:
        """Per-group last-mile base bandwidths (``None`` when unmodeled)."""
        return self.clients.group_caps()

    def fault_domains(self) -> Tuple[List[int], int]:
        """The two target spaces fault episodes can hit in this topology.

        Returns ``(server_ids, group_count)``: the origin servers with a
        registered path (targets of origin outages and bandwidth flaps)
        and the number of modeled last-mile client groups (targets of
        link-down / link-flap episodes; 0 under the paper's unmodeled
        abundant last mile).  :meth:`repro.sim.faults.FaultConfig.
        build_schedule` validates scripted episodes and draws stochastic
        targets against exactly these domains.
        """
        return self.paths.server_ids(), self.clients.group_count

    @classmethod
    def build(
        cls,
        catalog: Catalog,
        bandwidth_distribution: Optional[BandwidthDistribution] = None,
        variability: Optional[BandwidthVariabilityModel] = None,
        rng: Optional[np.random.Generator] = None,
        seed: int = 0,
        clients: Optional[ClientCloud] = None,
    ) -> "DeliveryTopology":
        """Construct a topology by sampling per-server base bandwidths.

        This is the standard construction of the paper's simulations: one
        path per origin server, base bandwidth drawn from the NLANR-derived
        distribution, and one variability model instance shared by every
        path (constant, NLANR-like, or measured-path-like depending on the
        experiment; ``None`` is the constant model), as the replay
        requires.  ``clients`` optionally attaches a modeled
        :class:`ClientCloud`; the default is the paper's unmodeled abundant
        last mile.
        """
        rng = rng or np.random.default_rng(seed)
        distribution = bandwidth_distribution or NLANRBandwidthDistribution()
        paths = PathRegistry.from_distribution(
            catalog.server_ids(), distribution, rng, variability
        )
        return cls(
            catalog=catalog,
            paths=paths,
            clients=clients if clients is not None else ClientCloud(),
        )
