"""Streaming-media substrate: encodings, smoothing, and delivery sessions.

This package models the streaming side of the system:

* :mod:`repro.streaming.media` — VBR frame schedules and layered encodings,
* :mod:`repro.streaming.smoothing` — the optimal work-ahead smoothing of
  Salehi et al. used to turn VBR schedules into low-variability ones
  (the paper assumes VBR objects are smoothed before caching decisions),
* :mod:`repro.streaming.session` — the joint cache + origin-server delivery
  model: startup delay, degraded-quality playout, and byte accounting,
* :mod:`repro.streaming.prefetch` — prefix prefetching schedules.
"""

from repro.streaming.media import LayeredEncoding, VBRStream
from repro.streaming.prefetch import PrefetchPlan, plan_prefix_prefetch
from repro.streaming.segmentation import Segment, SegmentationScheme, SegmentedPrefix
from repro.streaming.session import DeliveryOutcome, DeliverySession
from repro.streaming.smoothing import optimal_smoothing, peak_rate, rate_variability

__all__ = [
    "DeliveryOutcome",
    "DeliverySession",
    "LayeredEncoding",
    "PrefetchPlan",
    "Segment",
    "SegmentationScheme",
    "SegmentedPrefix",
    "VBRStream",
    "optimal_smoothing",
    "peak_rate",
    "plan_prefix_prefetch",
    "rate_variability",
]
