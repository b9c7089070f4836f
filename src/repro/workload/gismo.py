"""GISMO-style synthetic workload generator.

The paper generates its evaluation workloads with the GISMO toolset
[Jin & Bestavros 2001].  :class:`GismoWorkloadGenerator` reproduces the
combination of models Table 1 specifies:

* 5,000 unique objects,
* Zipf-like popularity (default ``alpha = 0.73``),
* 100,000 requests arriving according to a Poisson process,
* lognormal object durations (``mu = 3.85``, ``sigma = 0.56`` minutes),
* constant 48 KB/s bit-rate,
* total unique object size around 790 GB.

The generator also assigns each object to an origin server and draws a
per-object value ``V_i`` (uniform $1–$10) for the revenue experiments of
Section 4.4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from numbers import Integral, Real
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.exceptions import ConfigurationError, check_scalars
from repro.units import DEFAULT_BITRATE_KBPS
from repro.workload.arrivals import ArrivalProcess, PoissonArrivalProcess
from repro.workload.catalog import Catalog, MediaObject
from repro.workload.popularity import PopularityModel, ZipfPopularity
from repro.workload.sizes import (
    BitrateModel,
    ConstantBitrateModel,
    DurationModel,
    LognormalDurationModel,
)

if TYPE_CHECKING:
    from repro.trace.columnar import ColumnarTrace

#: The :class:`WorkloadConfig` fields the generator builds its models from.
_MODEL_FIELDS = ("zipf_alpha", "arrival_rate", "duration_mu", "duration_sigma", "bitrate")


@dataclass
class WorkloadConfig:
    """Parameters of a synthetic workload (defaults follow Table 1).

    Attributes
    ----------
    num_objects:
        Number of unique streaming media objects (paper: 5,000).
    num_requests:
        Number of requests in the trace (paper: 100,000).
    zipf_alpha:
        Skew of the Zipf-like popularity distribution (paper default 0.73;
        Figure 6 sweeps 0.5–1.2).
    arrival_rate:
        Poisson request arrival rate in requests/second.  The paper does not
        publish the absolute rate; the default of one request per 3 seconds
        spreads 100k requests over about 3.5 days, long relative to every
        object duration, which is all the metrics depend on.
    duration_mu, duration_sigma:
        Lognormal parameters of object duration (minutes).
    bitrate:
        CBR encoding rate of every object in KB/s (paper: 48).
    num_servers:
        How many distinct origin servers host the catalog; each object is
        assigned to one server uniformly at random and inherits that
        server's path bandwidth.
    value_min, value_max:
        Range of the per-object value ``V_i`` in dollars (paper: $1–$10).
    layers:
        Number of encoding layers used by the stream-quality metric.
    num_clients:
        How many distinct clients issue the requests.  The paper assumes a
        homogeneous client cloud, so the default of 1 leaves every
        request's ``client_id`` at 0 — and the generator's draws exactly as
        they have always been.  With more clients each request is assigned
        one uniformly at random (drawn *after* every other column, so
        catalogs and arrival/popularity draws are unchanged); the client
        column is what per-client last-mile modeling keys on
        (``docs/clients.md``).
    seed:
        Non-negative seed for the workload's random number generator
        (``None`` draws a fresh one from the operating system).
    """

    num_objects: int = 5_000
    num_requests: int = 100_000
    zipf_alpha: float = 0.73
    arrival_rate: float = 1.0 / 3.0
    duration_mu: float = 3.85
    duration_sigma: float = 0.56
    bitrate: float = DEFAULT_BITRATE_KBPS
    num_servers: int = 500
    value_min: float = 1.0
    value_max: float = 10.0
    layers: int = 4
    num_clients: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        check_scalars(
            self, Integral,
            "num_objects", "num_requests", "num_servers", "layers", "num_clients",
        )
        check_scalars(self, Real, *_MODEL_FIELDS, "value_min", "value_max")
        # None draws a fresh seed from the operating system, as numpy does.
        check_scalars(self, Integral, "seed", optional=True)
        # The generator's models check their own ranges; a non-finite value
        # is refused here too, so describe() and scaled() never carry one,
        # and no value bound reaches the per-object value draw infinite.
        for name in (*_MODEL_FIELDS, "value_min", "value_max"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
        if self.num_objects <= 0:
            raise ConfigurationError("num_objects must be positive")
        if self.num_requests <= 0:
            raise ConfigurationError("num_requests must be positive")
        if self.num_servers <= 0:
            raise ConfigurationError("num_servers must be positive")
        if self.num_clients <= 0:
            raise ConfigurationError("num_clients must be positive")
        if self.seed is not None and self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")
        if not 0 <= self.value_min <= self.value_max:
            raise ConfigurationError(
                f"invalid value range [{self.value_min}, {self.value_max}]"
            )

    def scaled(self, factor: float) -> "WorkloadConfig":
        """Return a copy with object and request counts scaled by ``factor``.

        Useful for quick smoke tests and CI runs that keep the workload's
        shape but shrink its volume.
        """
        if not 0 < factor < math.inf:
            raise ConfigurationError(
                f"factor must be positive and finite, got {factor}"
            )
        return replace(
            self,
            num_objects=max(1, int(self.num_objects * factor)),
            num_requests=max(1, int(self.num_requests * factor)),
            num_servers=max(1, int(self.num_servers * factor)),
        )


@dataclass
class Workload:
    """A generated workload: catalog, request trace, and provenance.

    ``trace`` is a :class:`~repro.trace.columnar.ColumnarTrace`, the one
    trace type the simulator replays; anything else raises
    :class:`~repro.exceptions.ConfigurationError`.
    """

    catalog: Catalog
    trace: ColumnarTrace
    config: WorkloadConfig
    expected_rates: np.ndarray = field(repr=False, default=None)

    def __post_init__(self) -> None:
        # Imported here: repro.trace imports this module (ingest builds
        # workloads), so a top-level import would cycle.
        from repro.trace.columnar import ColumnarTrace

        if not isinstance(self.trace, ColumnarTrace):
            raise ConfigurationError(
                "Workload.trace must be a ColumnarTrace, "
                f"got {type(self.trace).__name__}"
            )

    def describe(self) -> dict:
        """Summary statistics used by reports and the Table 1 experiment."""
        summary = dict(self.catalog.describe())
        summary.update(
            {
                "requests": float(len(self.trace)),
                "trace_duration_s": self.trace.duration,
                "zipf_alpha": self.config.zipf_alpha,
            }
        )
        return summary


class GismoWorkloadGenerator:
    """Generate catalogs and request traces in the style of GISMO.

    The generator is deterministic given ``config.seed``; two generators
    built from equal configs produce identical workloads, which is what lets
    experiments compare policies on the *same* trace.
    """

    def __init__(
        self,
        config: Optional[WorkloadConfig] = None,
        popularity: Optional[PopularityModel] = None,
        durations: Optional[DurationModel] = None,
        bitrates: Optional[BitrateModel] = None,
        arrivals: Optional[ArrivalProcess] = None,
    ):
        self.config = config or WorkloadConfig()
        self.popularity = popularity or ZipfPopularity(self.config.zipf_alpha)
        self.durations = durations or LognormalDurationModel(
            mu=self.config.duration_mu, sigma=self.config.duration_sigma
        )
        self.bitrates = bitrates or ConstantBitrateModel(self.config.bitrate)
        self.arrivals = arrivals or PoissonArrivalProcess(self.config.arrival_rate)

    def generate_catalog(self, rng: Optional[np.random.Generator] = None) -> Catalog:
        """Generate only the object catalog."""
        rng = rng or np.random.default_rng(self.config.seed)
        cfg = self.config
        # All four per-object attribute draws are single numpy batches; the
        # arrays are converted to native scalars once (``tolist``) instead of
        # boxing a numpy scalar per object.
        durations = np.asarray(self.durations.sample(cfg.num_objects, rng)).tolist()
        bitrates = np.asarray(self.bitrates.sample(cfg.num_objects, rng)).tolist()
        servers = rng.integers(0, cfg.num_servers, size=cfg.num_objects).tolist()
        values = rng.uniform(cfg.value_min, cfg.value_max, size=cfg.num_objects).tolist()
        layers = cfg.layers
        objects = [
            MediaObject(
                object_id=i,
                duration=duration,
                bitrate=bitrate,
                server_id=server_id,
                value=value,
                layers=layers,
            )
            for i, (duration, bitrate, server_id, value) in enumerate(
                zip(durations, bitrates, servers, values)
            )
        ]
        return Catalog(objects)

    def generate(self) -> Workload:
        """Generate the full workload: catalog plus request trace.

        The trace is a :class:`~repro.trace.columnar.ColumnarTrace` built
        directly from the sampled numpy arrays.
        """
        # Imported here for the same reason as in Workload.__post_init__.
        from repro.trace.columnar import ColumnarTrace

        rng = np.random.default_rng(self.config.seed)
        cfg = self.config
        catalog = self.generate_catalog(rng)
        times = self.arrivals.sample(cfg.num_requests, rng)
        ranks = self.popularity.sample_ranks(cfg.num_objects, cfg.num_requests, rng)
        # Client assignment draws last so that enabling a multi-client
        # population never perturbs the catalog/arrival/popularity draws
        # (single-client workloads skip the draw entirely and stay
        # byte-identical to previous releases).
        clients = None
        if cfg.num_clients > 1:
            clients = rng.integers(0, cfg.num_clients, size=cfg.num_requests)
        trace = ColumnarTrace(times, ranks, clients)
        expected = self.popularity.probabilities(cfg.num_objects) * cfg.num_requests
        return Workload(
            catalog=catalog, trace=trace, config=cfg, expected_rates=expected
        )
