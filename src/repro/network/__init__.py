"""Network bandwidth modelling substrate.

The caching algorithms of the paper are *network-aware*: they key caching
decisions on the available bandwidth between the proxy cache and each origin
server.  This package provides everything network-related the evaluation
requires:

* :mod:`repro.network.distributions` — distributions of the base (average)
  bandwidth across paths, including the empirical NLANR-log model of Fig 2,
* :mod:`repro.network.variability` — models of how a single path's bandwidth
  varies over time (Figs 3 and 4),
* :mod:`repro.network.path` — the :class:`~repro.network.path.NetworkPath`
  abstraction combining a base bandwidth with a variability model,
* :mod:`repro.network.measurement` — active and passive bandwidth
  measurement (Section 2.7), including the PFTK TCP-throughput model,
* :mod:`repro.network.loganalysis` — a synthetic proxy-log substrate that
  replaces the proprietary NLANR logs, plus the analysis pipeline of §3.1,
* :mod:`repro.network.topology` — origin servers, proxy cache, and client
  cloud wiring (Figure 1).
"""

from repro.network.distributions import (
    BandwidthDistribution,
    ConstantBandwidthDistribution,
    EmpiricalBandwidthDistribution,
    NLANRBandwidthDistribution,
)
from repro.network.measurement import (
    ActiveProber,
    BandwidthMeasurementLog,
    PassiveEstimator,
    PathConditions,
    pftk_throughput,
)
from repro.network.path import NetworkPath, PathRegistry
from repro.network.topology import ClientCloud, DeliveryTopology
from repro.network.variability import (
    BandwidthVariabilityModel,
    ConstantVariability,
    LognormalRatioVariability,
    MeasuredPathVariability,
    NLANRRatioVariability,
)

__all__ = [
    "ActiveProber",
    "BandwidthDistribution",
    "BandwidthMeasurementLog",
    "BandwidthVariabilityModel",
    "ClientCloud",
    "ConstantBandwidthDistribution",
    "ConstantVariability",
    "DeliveryTopology",
    "EmpiricalBandwidthDistribution",
    "LognormalRatioVariability",
    "MeasuredPathVariability",
    "NLANRBandwidthDistribution",
    "NLANRRatioVariability",
    "NetworkPath",
    "PassiveEstimator",
    "PathConditions",
    "PathRegistry",
    "pftk_throughput",
]
