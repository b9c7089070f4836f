"""Multi-cache hierarchies: parent/child tiers, sibling pops, fleet replay.

The paper evaluates a single network-aware proxy; this module promotes the
delivery topology into a multi-cache graph so the partial-caching machinery
composes the way production fleets deploy it: browser → edge pop → parent →
origin chains, where a miss at one tier becomes a request at the next.

A :class:`HierarchyConfig` attached to
:class:`~repro.sim.config.SimulationConfig` describes a chain of
:class:`CacheTier` levels (``tiers[0]`` is the edge, ``tiers[-1]`` the tier
closest to the origin).  Each tier runs its **own**
:class:`~repro.core.store.CacheStore` plus its own policy instance (per-tier
policy name, or the run's policy by default), and tiers are joined by static
inter-tier uplinks composed with the simulator's existing
``min(origin, last-mile)`` bottleneck machinery — the effective delivery
bandwidth of a request is the minimum over every link its bytes actually
traverse.

Fleet semantics
---------------
* **Pops.**  ``num_pops`` replicates the whole chain per point of presence;
  a client is pinned to pop ``client_id % num_pops`` (the same affinity rule
  the client-cloud last-mile machinery uses for path assignment).  Each pop
  owns a full chain — a *fleet member* — so pops interact only through the
  optional sibling lookup below.  This is what makes sharded fleet replay
  (:func:`~repro.analysis.parallel.run_sharded_fleet`) exact: a pop's state
  never depends on requests routed to another pop.
* **Siblings.**  With ``sibling_lookup=True`` an edge miss first asks the
  edge caches of the *other* pops (ICP-style): if any sibling holds the
  **whole** object, the miss is absorbed laterally at
  ``min(sibling_bandwidth, last-mile)`` and never escalates to the parent.
  Sibling serves are read-only — the sibling's policy is not notified, and
  the object is not admitted into the sibling's store.
* **Escalation.**  Otherwise the miss walks up the parent chain.  Prefixes
  are cumulative (every tier caches a prefix of the same object), so tier
  ``k`` contributes the span between the best prefix below it and its own;
  whatever no tier covers comes from the origin over the topmost uplink and
  the request's drawn origin bandwidth.

Determinism
-----------
The engine draws **no** random numbers and is invoked by the replay
kernel at its *residency* stage.  With ``hierarchy=None`` the
engine is never constructed and the simulator's arithmetic (and RNG
consumption) is exactly the pre-hierarchy code; a **degenerate** hierarchy
(one tier, infinite uplink, one pop, no siblings) reproduces the
single-proxy simulator bit-for-bit because every bandwidth cap is applied
as ``if cap < value`` — a no-op for infinite caps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.policies.registry import make_policy
from repro.core.store import CacheStore
from repro.exceptions import ConfigurationError

__all__ = [
    "CacheTier",
    "HierarchyConfig",
    "HierarchyEngine",
    "HierarchyReport",
    "tier_prefix_function",
]


@dataclass(frozen=True)
class CacheTier:
    """One level of the cache hierarchy.

    Attributes
    ----------
    name:
        Label used in reports (``"edge"``, ``"parent"``, ...).  Must be
        unique within a :class:`HierarchyConfig`.
    cache_kb:
        Capacity of this tier's :class:`~repro.core.store.CacheStore` in
        KB, **per pop** (``num_pops`` replicas each get this much).
    policy:
        Registry name of the replacement policy this tier runs
        (:func:`~repro.core.policies.registry.make_policy`); ``None``
        (default) uses the policy the simulation was started with, i.e. a
        shared spec across every tier.
    uplink_bandwidth:
        Static bandwidth (KB/s) of the link from this tier toward the next
        tier up — for ``tiers[-1]`` that is the link to the origin.  The
        default ``inf`` makes the uplink a non-bottleneck, which is what
        the degenerate-tier equivalence relies on.
    """

    name: str
    cache_kb: float
    policy: Optional[str] = None
    uplink_bandwidth: float = math.inf

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("tier name must be non-empty")
        if self.cache_kb < 0:
            raise ConfigurationError(
                f"tier {self.name!r}: cache_kb must be non-negative, "
                f"got {self.cache_kb}"
            )
        if self.uplink_bandwidth <= 0:
            raise ConfigurationError(
                f"tier {self.name!r}: uplink_bandwidth must be positive, "
                f"got {self.uplink_bandwidth}"
            )


@dataclass(frozen=True)
class HierarchyConfig:
    """Configuration of a multi-cache hierarchy.

    Attributes
    ----------
    tiers:
        The cache chain from the edge up: ``tiers[0]`` faces the clients,
        ``tiers[-1]`` faces the origin.  At least one tier.
    num_pops:
        Number of points of presence; the full chain is replicated per pop
        and a client is pinned to pop ``client_id % num_pops``.
    sibling_lookup:
        Enable the ICP-style lateral lookup: an edge miss checks the other
        pops' edge caches for the whole object before escalating.
    sibling_bandwidth:
        Bandwidth (KB/s) of the lateral edge↔edge link a sibling hit is
        served over (further capped by the client's last mile).
    """

    tiers: Tuple[CacheTier, ...]
    num_pops: int = 1
    sibling_lookup: bool = False
    sibling_bandwidth: float = math.inf

    def __post_init__(self) -> None:
        if isinstance(self.tiers, list):  # tolerate list literals in configs
            object.__setattr__(self, "tiers", tuple(self.tiers))
        if not self.tiers:
            raise ConfigurationError("hierarchy needs at least one tier")
        names = [tier.name for tier in self.tiers]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"tier names must be unique, got {names}")
        if self.num_pops < 1:
            raise ConfigurationError(
                f"num_pops must be >= 1, got {self.num_pops}"
            )
        if self.sibling_lookup and self.num_pops < 2:
            raise ConfigurationError(
                "sibling_lookup needs num_pops >= 2 (siblings are the "
                "other pops' edge caches)"
            )
        if self.sibling_bandwidth <= 0:
            raise ConfigurationError(
                f"sibling_bandwidth must be positive, got {self.sibling_bandwidth}"
            )


@dataclass(frozen=True)
class HierarchyReport:
    """Where the bytes of the measurement phase came from.

    All counters cover successfully served (non-faulted) requests of the
    measurement phase only, mirroring the aggregate metrics.  Per-tier
    tuples are indexed like ``HierarchyConfig.tiers`` (edge first) and sum
    over every pop.

    Attributes
    ----------
    tier_names:
        Tier labels, edge first.
    requests:
        Measured requests that reached the hierarchy.
    tier_requests:
        Requests *seen* per tier — every request hits the edge; deeper
        tiers only see the misses that escalate to them.
    tier_hits:
        Requests for which the tier contributed at least one byte.
    tier_bytes:
        KB each tier served (its incremental prefix over the tiers below).
    sibling_hits:
        Edge misses absorbed laterally by another pop's edge cache.
    sibling_bytes:
        KB served over the sibling link.
    origin_bytes:
        KB no tier covered — the residual origin traffic.
    client_bytes:
        KB delivered to clients; equals tier + sibling + origin bytes
        (the byte-conservation invariant).
    """

    tier_names: Tuple[str, ...]
    requests: int
    tier_requests: Tuple[int, ...]
    tier_hits: Tuple[int, ...]
    tier_bytes: Tuple[float, ...]
    sibling_hits: int
    sibling_bytes: float
    origin_bytes: float
    client_bytes: float

    @property
    def tier_hit_ratios(self) -> Tuple[float, ...]:
        """Fraction of the requests each tier saw that it served bytes for."""
        return tuple(
            hits / seen if seen > 0 else 0.0
            for hits, seen in zip(self.tier_hits, self.tier_requests)
        )

    @property
    def tier_byte_hit_ratios(self) -> Tuple[float, ...]:
        """Fraction of all client-delivered bytes each tier absorbed."""
        total = self.client_bytes
        return tuple(
            served / total if total > 0 else 0.0 for served in self.tier_bytes
        )

    @property
    def tier_absorbed_bytes(self) -> float:
        """KB the fleet absorbed (tiers plus siblings) instead of the origin."""
        return sum(self.tier_bytes) + self.sibling_bytes

    @property
    def origin_byte_ratio(self) -> float:
        """Fraction of client-delivered bytes that still hit the origin."""
        if self.client_bytes <= 0:
            return 0.0
        return self.origin_bytes / self.client_bytes

    def as_dict(self) -> Dict[str, float]:
        """Flatten the report for tables and JSON (one key per tier stat)."""
        flat: Dict[str, float] = {"requests": float(self.requests)}
        for index, name in enumerate(self.tier_names):
            flat[f"tier_{name}_requests"] = float(self.tier_requests[index])
            flat[f"tier_{name}_hits"] = float(self.tier_hits[index])
            flat[f"tier_{name}_bytes_kb"] = self.tier_bytes[index]
            flat[f"tier_{name}_hit_ratio"] = self.tier_hit_ratios[index]
            flat[f"tier_{name}_byte_hit_ratio"] = self.tier_byte_hit_ratios[index]
        flat["sibling_hits"] = float(self.sibling_hits)
        flat["sibling_bytes_kb"] = self.sibling_bytes
        flat["tier_absorbed_bytes_kb"] = self.tier_absorbed_bytes
        flat["origin_bytes_kb"] = self.origin_bytes
        flat["origin_byte_ratio"] = self.origin_byte_ratio
        flat["client_bytes_kb"] = self.client_bytes
        return flat

    @staticmethod
    def merge(reports: Sequence["HierarchyReport"]) -> "HierarchyReport":
        """Sum reports from independent fleet shards into one report.

        All reports must describe the same tier chain.  Summation runs in
        the order given, so callers wanting a canonical result (the fleet
        reducer) sort by shard index first.
        """
        if not reports:
            raise ConfigurationError("cannot merge an empty list of reports")
        names = reports[0].tier_names
        for report in reports[1:]:
            if report.tier_names != names:
                raise ConfigurationError(
                    f"cannot merge reports over different tier chains: "
                    f"{names} vs {report.tier_names}"
                )
        count = len(names)
        return HierarchyReport(
            tier_names=names,
            requests=sum(r.requests for r in reports),
            tier_requests=tuple(
                sum(r.tier_requests[i] for r in reports) for i in range(count)
            ),
            tier_hits=tuple(
                sum(r.tier_hits[i] for r in reports) for i in range(count)
            ),
            tier_bytes=tuple(
                sum(r.tier_bytes[i] for r in reports) for i in range(count)
            ),
            sibling_hits=sum(r.sibling_hits for r in reports),
            sibling_bytes=sum(r.sibling_bytes for r in reports),
            origin_bytes=sum(r.origin_bytes for r in reports),
            client_bytes=sum(r.client_bytes for r in reports),
        )


def tier_prefix_function(snapshot: Dict[int, float]) -> Callable:
    """Build a sharing-analysis prefix function from a tier store snapshot.

    The returned callable plugs into
    :class:`~repro.sim.sharing.StreamSharingAnalyzer` as ``prefix_for`` so
    batching/patching savings can be computed *per tier*: pass each tier's
    :meth:`HierarchyEngine.tier_snapshots` entry to study how much stream
    sharing each level of the hierarchy still saves on top of the prefixes
    it holds.
    """

    def prefix_for(obj) -> float:
        return snapshot.get(obj.object_id, 0.0)

    return prefix_for


class HierarchyEngine:
    """Per-request hierarchy machinery for the replay kernel.

    One instance is built per :meth:`~repro.sim.simulator.
    ProxyCacheSimulator.run` when the configuration carries a
    :class:`HierarchyConfig`.  The kernel calls :meth:`serve` right after
    the fault disposition, before the delivery-outcome arithmetic.

    The engine performs no random draws; every bandwidth composition is a
    floating-point ``min`` applied as ``if cap < value`` so infinite caps
    leave the value bit-identical.
    """

    def __init__(self, config: HierarchyConfig, catalog, default_policy: str):
        """Build the per-pop tier chains.

        Parameters
        ----------
        config:
            The hierarchy description.
        catalog:
            Media-object catalog, handed to every tier policy's
            ``install`` hook.
        default_policy:
            Registry name used for tiers whose ``policy`` is ``None`` —
            the policy the simulation was started with.
        """
        self.config = config
        self._num_tiers = len(config.tiers)
        self._num_pops = config.num_pops
        self._sibling_lookup = config.sibling_lookup
        self._sibling_bandwidth = config.sibling_bandwidth
        uplinks = [tier.uplink_bandwidth for tier in config.tiers]
        # Min over uplinks k..top: caps the *believed* fetch bandwidth a
        # tier-k policy values objects with (the path from tier k to the
        # origin).  chain_caps[0] doubles as the cap on an origin fetch.
        chain: List[float] = []
        running = math.inf
        for bandwidth in reversed(uplinks):
            running = bandwidth if bandwidth < running else running
            chain.append(running)
        self._chain_caps: Tuple[float, ...] = tuple(reversed(chain))
        # Min over uplinks 0..k-1: caps a fetch absorbed at tier k (the
        # links between the edge and that tier).  Index 0 is unused.
        reach: List[float] = [math.inf]
        running = math.inf
        for bandwidth in uplinks[:-1]:
            running = bandwidth if bandwidth < running else running
            reach.append(running)
        self._reach_caps: Tuple[float, ...] = tuple(reach)
        self._stores: List[List[CacheStore]] = []
        self._policies: List[List[object]] = []
        for _pop in range(self._num_pops):
            stores: List[CacheStore] = []
            policies: List[object] = []
            for tier in config.tiers:
                store = CacheStore(tier.cache_kb)
                policy = make_policy(tier.policy or default_policy)
                if hasattr(policy, "install"):
                    policy.install(store, catalog)
                stores.append(store)
                policies.append(policy)
            self._stores.append(stores)
            self._policies.append(policies)
        # Measurement-phase counters (per tier, summed over pops).
        self._requests = 0
        self._tier_requests = [0] * self._num_tiers
        self._tier_hits = [0] * self._num_tiers
        self._tier_bytes = [0.0] * self._num_tiers
        self._sibling_hits = 0
        self._sibling_bytes = 0.0
        self._origin_bytes = 0.0
        self._client_bytes = 0.0

    # ------------------------------------------------------------------
    # The kernel seam.
    # ------------------------------------------------------------------
    def kernel_hooks(self) -> dict:
        """The residency-stage hooks for :mod:`repro.sim.kernel`.

        ``serve`` resolves residency / escalation for a successful fetch
        at the kernel's *residency* stage, ``edge_cached`` reads the
        client pop's cached prefix for a failed one, and
        ``verify_consistency`` replaces the flat store's check at the
        *verify* stage.
        """
        return {
            "serve": self.serve,
            "edge_cached": self.edge_cached,
            "verify_consistency": self.verify_consistency,
        }

    # ------------------------------------------------------------------
    # The per-request entry point (the kernel's hot path).
    # ------------------------------------------------------------------
    def serve(
        self,
        pop: int,
        object_id: int,
        obj,
        size: float,
        observed: float,
        lm_draw: Optional[float],
        believed: float,
        prior_estimate: float,
        now: float,
        measuring: bool,
    ) -> Tuple[float, float]:
        """Route one successful request through the hierarchy.

        Reads every residency it needs *before* any policy mutation,
        escalates the edge miss up the chain (or laterally to a sibling),
        updates the report counters (measurement phase only), and notifies
        each consulted tier's policy — the edge with the loop's believed
        bandwidth further capped by the uplink chain, deeper tiers with the
        un-last-miled origin estimate capped by *their* remaining chain.

        Returns ``(edge_cached_kb, effective_bandwidth)``: the prefix the
        client gets out of its edge cache, and the bottleneck bandwidth the
        remainder arrives at — exactly the ``(cached, observed)`` pair the
        caller's delivery-outcome arithmetic consumes.
        """
        stores = self._stores[pop]
        edge_store = stores[0]
        edge_cached = edge_store.cached_bytes(object_id)
        if edge_cached > size:
            edge_cached = size
        covered = edge_cached
        sibling_hit = False
        consulted_top = 0
        serves: List[Tuple[int, float]] = []
        if covered < size:
            if self._sibling_lookup:
                for sibling in range(self._num_pops):
                    if sibling == pop:
                        continue
                    if self._stores[sibling][0].cached_bytes(object_id) >= size:
                        sibling_hit = True
                        break
            if not sibling_hit:
                best = covered
                for k in range(1, self._num_tiers):
                    consulted_top = k
                    tier_cached = stores[k].cached_bytes(object_id)
                    if tier_cached > size:
                        tier_cached = size
                    if tier_cached > best:
                        serves.append((k, tier_cached - best))
                        best = tier_cached
                    if best >= size:
                        break
                covered = best

        # Effective bandwidth of the non-edge-cached span: min over the
        # links actually traversed, each applied FP-safely.
        if edge_cached >= size:
            effective = observed
        elif sibling_hit:
            effective = self._sibling_bandwidth
            if lm_draw is not None and lm_draw < effective:
                effective = lm_draw
        elif covered < size:
            # Origin on the path: `observed` is already min(origin draw,
            # last mile); cap it by every uplink between edge and origin.
            effective = observed
            cap = self._chain_caps[0]
            if cap < effective:
                effective = cap
        else:
            # Absorbed at the deepest contributing tier: links up to it.
            deepest = serves[-1][0]
            effective = self._reach_caps[deepest]
            if lm_draw is not None and lm_draw < effective:
                effective = lm_draw

        if measuring:
            self._requests += 1
            self._client_bytes += size
            self._tier_requests[0] += 1
            if edge_cached > 0.0:
                self._tier_hits[0] += 1
                self._tier_bytes[0] += edge_cached
            if edge_cached >= size:
                pass
            elif sibling_hit:
                self._sibling_hits += 1
                self._sibling_bytes += size - edge_cached
            else:
                for k in range(1, consulted_top + 1):
                    self._tier_requests[k] += 1
                for k, contribution in serves:
                    self._tier_hits[k] += 1
                    self._tier_bytes[k] += contribution
                if covered < size:
                    self._origin_bytes += size - covered

        # Policy pass, after all residency reads: edge first, then up the
        # consulted chain.  A sibling hit stops escalation, so only the
        # edge policy runs (the sibling store stays read-only).
        policies = self._policies[pop]
        edge_believed = believed
        cap = self._chain_caps[0]
        if cap < edge_believed:
            edge_believed = cap
        policies[0].on_request(obj, edge_believed, now, edge_store)
        if edge_cached < size and not sibling_hit:
            for k in range(1, consulted_top + 1):
                tier_believed = prior_estimate
                cap = self._chain_caps[k]
                if cap < tier_believed:
                    tier_believed = cap
                policies[k].on_request(obj, tier_believed, now, stores[k])

        return edge_cached, effective

    @property
    def primary_edge_store(self) -> CacheStore:
        """Pop 0's edge store (what the metrics timeline tracks occupancy of)."""
        return self._stores[0][0]

    def edge_cached(self, pop: int, object_id: int) -> float:
        """Cached prefix (KB) at the client's edge pop, read-only.

        The fault path uses this for stale serves — a request that cannot
        reach deeper tiers is answered from whatever the edge holds,
        without consulting any policy.
        """
        return self._stores[pop][0].cached_bytes(object_id)

    # ------------------------------------------------------------------
    # Run finalization.
    # ------------------------------------------------------------------
    def report(self) -> HierarchyReport:
        """Freeze the measurement-phase counters into a report."""
        return HierarchyReport(
            tier_names=tuple(tier.name for tier in self.config.tiers),
            requests=self._requests,
            tier_requests=tuple(self._tier_requests),
            tier_hits=tuple(self._tier_hits),
            tier_bytes=tuple(self._tier_bytes),
            sibling_hits=self._sibling_hits,
            sibling_bytes=self._sibling_bytes,
            origin_bytes=self._origin_bytes,
            client_bytes=self._client_bytes,
        )

    def verify_consistency(self) -> bool:
        """Check the byte accounting of every tier store in every pop."""
        return all(
            store.verify_consistency()
            for stores in self._stores
            for store in stores
        )

    def final_occupancy(self) -> float:
        """Fleet-wide fraction of capacity in use at the end of the run."""
        capacity = sum(
            store.capacity_kb for stores in self._stores for store in stores
        )
        if capacity <= 0:
            return 0.0
        used = sum(store.used_kb for stores in self._stores for store in stores)
        return used / capacity

    def total_cached_objects(self) -> int:
        """Number of cached prefixes across every tier store in the fleet."""
        return sum(len(store) for stores in self._stores for store in stores)

    def tier_snapshots(self, pop: int = 0) -> List[Dict[int, float]]:
        """Per-tier ``{object_id: cached_kb}`` snapshots for one pop.

        Feed each entry to :func:`tier_prefix_function` to compose the
        hierarchy with the stream-sharing analysis
        (:mod:`repro.sim.sharing`).
        """
        return [store.snapshot() for store in self._stores[pop]]
