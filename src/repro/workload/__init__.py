"""Synthetic streaming-media workload generation (GISMO-style substrate).

The paper drives its simulations with workloads produced by the GISMO
toolset [Jin & Bestavros 2001].  This package re-implements the pieces of
GISMO that the evaluation needs:

* :mod:`repro.workload.catalog` — the media-object catalog model,
* :mod:`repro.workload.popularity` — Zipf-like object popularity,
* :mod:`repro.workload.sizes` — lognormal object durations and bit-rates,
* :mod:`repro.workload.arrivals` — Poisson request arrival process,
* :mod:`repro.workload.trace` — the request row and the CSV trace format
  (the trace itself is :class:`repro.trace.columnar.ColumnarTrace`),
* :mod:`repro.workload.gismo` — the combined workload generator.
"""

from repro.workload.arrivals import PoissonArrivalProcess
from repro.workload.catalog import Catalog, MediaObject
from repro.workload.gismo import GismoWorkloadGenerator, Workload, WorkloadConfig
from repro.workload.popularity import ZipfPopularity
from repro.workload.sizes import ConstantBitrateModel, LognormalDurationModel
from repro.workload.trace import Request

__all__ = [
    "Catalog",
    "ConstantBitrateModel",
    "GismoWorkloadGenerator",
    "LognormalDurationModel",
    "MediaObject",
    "PoissonArrivalProcess",
    "Request",
    "Workload",
    "WorkloadConfig",
    "ZipfPopularity",
]
