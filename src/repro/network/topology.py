"""Delivery topology: origin servers, proxy cache, client cloud (Figure 1).

The paper's architecture has three tiers: origin servers somewhere on the
Internet, a caching proxy at the edge, and a cloud of clients behind the
proxy.  The topology object wires a
:class:`~repro.workload.catalog.Catalog` to a
:class:`~repro.network.path.PathRegistry` so that, given an object, the
simulator can look up the bandwidth of the path to that object's origin
server.

The paper assumes the client side's last mile is abundant; the default
:class:`ClientCloud` keeps that assumption.  Giving the cloud per-group
last-mile :class:`~repro.network.path.NetworkPath` objects promotes the
cache-to-client hop to a modeled link, and the simulator composes the two
hops per request (``docs/clients.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.network.distributions import BandwidthDistribution, NLANRBandwidthDistribution
from repro.network.path import NetworkPath, PathRegistry
from repro.network.variability import BandwidthVariabilityModel, ConstantVariability
from repro.workload.catalog import Catalog, MediaObject


@dataclass(frozen=True)
class OriginServer:
    """An origin server hosting a subset of the catalog."""

    server_id: int
    object_ids: tuple


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
    path combines a base last-mile bandwidth with its own variability
    model, exactly like the cache-to-server paths; the simulator then
    composes the two hops per request — the delivered bandwidth is the
    bottleneck ``min(origin hop, last-mile hop)``.  See ``docs/clients.md``.

    A path's ``server_id`` field doubles as the *group index* here; the
    registry semantics ("endpoint id") carry over unchanged.
    """

    num_clients: int = 1
    last_mile_bandwidth: float = float("inf")
    paths: Optional[Tuple[NetworkPath, ...]] = None

    def __post_init__(self) -> None:
        if self.num_clients <= 0:
            raise ConfigurationError(f"num_clients must be positive, got {self.num_clients}")
        if not self.last_mile_bandwidth > 0:
            raise ConfigurationError(
                f"last_mile_bandwidth must be positive, got {self.last_mile_bandwidth}"
            )
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
        """Base last-mile bandwidth (KB/s) a client's group is provisioned at."""
        path = self.last_mile_for(client_id)
        if path is None:
            return self.last_mile_bandwidth
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
        num_clients: int = 1,
    ) -> "ClientCloud":
        """Model every client group with the same last-mile base bandwidth.

        All groups share one variability-model instance, so the simulator's
        batched per-request draws stay available.  ``bandwidth`` may be
        ``inf``: the hop is then modeled but never the bottleneck, which is
        how the pre-heterogeneity simulator is reproduced bit-for-bit
        through the composition code (``tests/test_sim_clients.py``).
        """
        if groups <= 0:
            raise ConfigurationError(f"groups must be positive, got {groups}")
        shared = variability or ConstantVariability()
        paths = tuple(
            NetworkPath(server_id=group, base_bandwidth=bandwidth, variability=shared)
            for group in range(groups)
        )
        return cls(
            num_clients=num_clients, last_mile_bandwidth=bandwidth, paths=paths
        )

    @classmethod
    def from_distribution(
        cls,
        groups: int,
        distribution: BandwidthDistribution,
        rng: np.random.Generator,
        variability: Optional[BandwidthVariabilityModel] = None,
        num_clients: Optional[int] = None,
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
        shared = variability or ConstantVariability()
        bandwidths = distribution.sample(groups, rng)
        paths = tuple(
            NetworkPath(
                server_id=group,
                base_bandwidth=max(float(bandwidth), 1.0),
                variability=shared,
            )
            for group, bandwidth in enumerate(np.asarray(bandwidths, dtype=np.float64))
        )
        mean = float(np.mean([path.base_bandwidth for path in paths]))
        return cls(
            num_clients=num_clients if num_clients is not None else groups,
            last_mile_bandwidth=mean,
            paths=paths,
        )


@dataclass(frozen=True)
class ProxyNode:
    """The edge proxy cache: its capacity is the knapsack constraint ``C``."""

    capacity_kb: float

    def __post_init__(self) -> None:
        if not self.capacity_kb >= 0:
            raise ConfigurationError(
                f"capacity must be non-negative, got {self.capacity_kb}"
            )


@dataclass
class DeliveryTopology:
    """The full server / proxy / client wiring for one simulation."""

    catalog: Catalog
    paths: PathRegistry
    proxy: ProxyNode
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

    def last_mile_for(self, client_id: int) -> Optional[NetworkPath]:
        """Last-mile path of a client's group (``None`` when unmodeled)."""
        return self.clients.last_mile_for(client_id)

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

    def servers(self) -> List[OriginServer]:
        """Group catalog objects by hosting server."""
        by_server: Dict[int, List[int]] = {}
        for obj in self.catalog:
            by_server.setdefault(obj.server_id, []).append(obj.object_id)
        return [
            OriginServer(server_id=server_id, object_ids=tuple(ids))
            for server_id, ids in sorted(by_server.items())
        ]

    @classmethod
    def build(
        cls,
        catalog: Catalog,
        cache_capacity_kb: float,
        bandwidth_distribution: Optional[BandwidthDistribution] = None,
        variability: Optional[BandwidthVariabilityModel] = None,
        rng: Optional[np.random.Generator] = None,
        seed: int = 0,
        clients: Optional[ClientCloud] = None,
    ) -> "DeliveryTopology":
        """Construct a topology by sampling per-server base bandwidths.

        This is the standard construction of the paper's simulations: one
        path per origin server, base bandwidth drawn from the NLANR-derived
        distribution, and a shared variability model (constant, NLANR-like,
        or measured-path-like depending on the experiment).  ``clients``
        optionally attaches a modeled :class:`ClientCloud`; the default is
        the paper's unmodeled abundant last mile.
        """
        rng = rng or np.random.default_rng(seed)
        distribution = bandwidth_distribution or NLANRBandwidthDistribution()
        variability = variability or ConstantVariability()
        paths = PathRegistry.from_distribution(
            catalog.server_ids(), distribution, rng, variability
        )
        return cls(
            catalog=catalog,
            paths=paths,
            proxy=ProxyNode(capacity_kb=cache_capacity_kb),
            clients=clients if clients is not None else ClientCloud(),
        )
