"""Streaming-media sessions as a first-class simulator workload.

This module wires the :mod:`repro.streaming` substrate (segmentation,
layered encodings, prefix prefetch, work-ahead smoothing) into the
trace-driven simulator.  A :class:`StreamingConfig` attached to
:class:`~repro.sim.config.SimulationConfig` marks a (deterministic)
fraction of the catalog as media streams; requests for those objects are
served as *segment-aware delivery sessions* instead of the plain
whole-object delivery arithmetic:

* **Partial residency** is backed by
  :class:`~repro.streaming.segmentation.SegmentedPrefix`: the policy's
  byte target is quantised up to a segment boundary on admission
  (:meth:`StreamingDeliveryEngine.admission_target`), and under cache
  pressure victims lose trailing *segments* down to a segment floor
  instead of being evicted wholesale
  (:meth:`StreamingDeliveryEngine.trim_victim`).
* **Sessions** model the paper's wait / degrade / abandon client choice
  against the delivered (last-mile-capped) bandwidth: a viewer waits out
  a short full-quality startup delay, falls back to the number of
  :class:`~repro.streaming.media.LayeredEncoding` layers the path
  sustains, and abandons when the path cannot sustain even the base
  ``layer_rate`` and waiting would exceed the abandonment budget.
* **Prefetch** of upcoming segments is driven by session position: a
  session that actually plays entitles its object to
  ``prefetch_segments`` extra segments on the admission that immediately
  follows; an abandoned session (position never advanced) entitles it to
  none.  Whether the suffix could stream during prefix playout with no
  extra delay is counted as
  :func:`~repro.streaming.prefetch.plan_prefix_prefetch` decides it.
* **VBR streams** (an optional fraction) derive their required sustained
  rate from the *smoothed* schedule — ``peak_rate(optimal_smoothing(...))``
  over a :func:`~repro.streaming.media.synthetic_vbr_stream` — matching
  the paper's assumption that VBR objects are smoothed before caching
  decisions are made.

All of the above happens inside engine methods the replay kernel invokes
at its *delivery* stage; with ``streaming=None`` the engine is never
constructed and the simulator's arithmetic (and RNG consumption) is
exactly the pre-streaming code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, check_scalars
from repro.streaming.media import LayeredEncoding, check_burstiness, synthetic_vbr_stream
from repro.streaming.segmentation import SegmentationScheme, SegmentedPrefix
from repro.streaming.smoothing import optimal_smoothing, peak_rate

#: Entropy tag mixed into the streaming generator's seed so stream-id
#: selection never collides with the request stream (bare config seed),
#: the client-cloud streams, or the re-measurement streams.
_STREAMING_STREAM_TAG = 0x535452  # "STR"

#: Frame-slot budget for the synthetic VBR model of one object.  Long
#: objects are modelled at a coarser frame rate so the O(frames) smoothing
#: pass stays bounded regardless of catalog durations.
_VBR_MAX_FRAMES = 512


@dataclass(frozen=True)
class StreamingConfig:
    """Configuration of the streaming-session workload.

    Attributes
    ----------
    fraction:
        Fraction of catalog objects served as media streams, in
        ``(0, 1]``.  Selection is a deterministic permutation drawn from a
        dedicated tagged RNG stream, so enabling streaming never perturbs
        the request-stream draws.
    prefix_caching:
        ``True`` (default) caches segment-aligned *prefixes*: admission
        targets are quantised to segment boundaries and victims are
        tail-trimmed segment by segment under pressure.  ``False`` is the
        ablation baseline: stream objects are admitted and evicted as
        whole objects only.
    base_segment_kb:
        First-segment size handed to
        :class:`~repro.streaming.segmentation.SegmentationScheme`.
    exponential_segments:
        Whether segment sizes double (the paper's exponential layout,
        O(log size) metadata) or stay uniform.
    prefetch_segments:
        Extra upcoming segments a *playing* session entitles its object
        to on the admission that follows it (0 disables prefetch).
    abandon_after_s:
        Viewer patience: a session whose full-quality startup delay
        exceeds this budget degrades if the path sustains at least one
        encoding layer, and abandons otherwise.
    vbr_fraction:
        Fraction of stream objects modelled as VBR (smoothed work-ahead
        schedules determine their required sustained rate).
    vbr_burstiness:
        Coefficient of variation of the synthetic VBR frame sizes,
        in ``[0, 1)``; a positive value must keep ``1 / vbr_burstiness**2``
        finite (about 1e-154 and up).
    smoothing_buffer_s:
        Client buffer used by the optimal-smoothing pass, in seconds of
        playout at the object's mean rate.
    seed:
        Dedicated seed for stream-id / VBR selection and the synthetic
        VBR frame-size draws.
    """

    fraction: float = 1.0
    prefix_caching: bool = True
    base_segment_kb: float = 256.0
    exponential_segments: bool = True
    prefetch_segments: int = 1
    abandon_after_s: float = 60.0
    vbr_fraction: float = 0.0
    vbr_burstiness: float = 0.5
    smoothing_buffer_s: float = 10.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_scalars(
            self, Real,
            "fraction", "base_segment_kb", "abandon_after_s", "vbr_fraction",
            "vbr_burstiness", "smoothing_buffer_s",
        )
        check_scalars(self, Integral, "prefetch_segments", "seed")
        check_scalars(self, bool, "prefix_caching", "exponential_segments")
        if not 0.0 < self.fraction <= 1.0:
            raise ConfigurationError(
                f"fraction must be in (0, 1], got {self.fraction}"
            )
        if not 0.0 < self.base_segment_kb < math.inf:
            raise ConfigurationError(
                f"base_segment_kb must be positive and finite, got {self.base_segment_kb}"
            )
        if self.prefetch_segments < 0:
            raise ConfigurationError(
                f"prefetch_segments must be non-negative, got {self.prefetch_segments}"
            )
        if not self.abandon_after_s > 0:
            raise ConfigurationError(
                f"abandon_after_s must be positive, got {self.abandon_after_s}"
            )
        if not 0.0 <= self.vbr_fraction <= 1.0:
            raise ConfigurationError(
                f"vbr_fraction must be in [0, 1], got {self.vbr_fraction}"
            )
        check_burstiness(self.vbr_burstiness, "vbr_burstiness")
        if not self.smoothing_buffer_s >= 0:
            raise ConfigurationError(
                f"smoothing_buffer_s must be non-negative, got {self.smoothing_buffer_s}"
            )

    def scheme(self) -> SegmentationScheme:
        """The segmentation layout shared by every stream object."""
        return SegmentationScheme(
            base_segment_kb=self.base_segment_kb,
            exponential=self.exponential_segments,
        )


@dataclass(frozen=True)
class StreamingReport:
    """Whole-run QoE accounting for the streaming sessions of one run.

    All session counters cover the measurement phase only (warm-up
    sessions mutate the cache but are not recorded), mirroring
    :class:`~repro.sim.metrics.SimulationMetrics`.
    """

    #: Number of catalog objects served as media streams.
    stream_objects: int
    #: Measured streaming sessions (one per request of a stream object).
    sessions: int
    #: Sessions that waited out a (non-zero) full-quality startup delay.
    waited_sessions: int
    #: Sessions that degraded to fewer layers for immediate playout.
    degraded_sessions: int
    #: Sessions abandoned before playout started.
    abandoned_sessions: int
    #: Mean startup delay (seconds) across sessions, abandonments included.
    mean_startup_delay_s: float
    #: Stall time over stall-plus-watch time (abandoned sessions are all
    #: stall), the windowed rebuffering headline.
    rebuffer_ratio: float
    #: Mean delivered quality (fraction of layers) across sessions.
    mean_quality: float
    #: Abandoned sessions over all sessions.
    abandonment_rate: float
    #: Sessions whose suffix prefetch was feasible with zero extra delay.
    feasible_suffix_sessions: int
    #: Admissions extended past the policy target by session prefetch.
    prefetch_extensions: int
    #: Mid-segment fragments trimmed back to a boundary at serve time.
    fragment_trims: int
    #: KB reclaimed by segment-aware victim trimming under pressure.
    pressure_trimmed_kb: float

    def as_dict(self) -> Dict[str, float]:
        """The report as a flat dictionary (for tables and JSON)."""
        return {
            "stream_objects": float(self.stream_objects),
            "sessions": float(self.sessions),
            "waited_sessions": float(self.waited_sessions),
            "degraded_sessions": float(self.degraded_sessions),
            "abandoned_sessions": float(self.abandoned_sessions),
            "mean_startup_delay_s": self.mean_startup_delay_s,
            "rebuffer_ratio": self.rebuffer_ratio,
            "mean_quality": self.mean_quality,
            "abandonment_rate": self.abandonment_rate,
            "feasible_suffix_sessions": float(self.feasible_suffix_sessions),
            "prefetch_extensions": float(self.prefetch_extensions),
            "fragment_trims": float(self.fragment_trims),
            "pressure_trimmed_kb": self.pressure_trimmed_kb,
        }


class _StreamEntry:
    """Per-object precomputed state of one media stream."""

    __slots__ = (
        "obj",
        "size",
        "duration",
        "required_rate",
        "vbr",
        "layers",
        "layer_rate",
        "prefix",
        "tolerance",
    )

    def __init__(self, obj, required_rate: float, scheme: SegmentationScheme):
        self.obj = obj
        self.size = obj.size
        self.duration = obj.duration
        self.required_rate = required_rate
        #: A smoothed VBR peak above the mean rate is what the path must
        #: sustain for full quality.
        self.vbr = required_rate != obj.bitrate
        # The encoding validates the rate and layer count; a session reads
        # its two numbers, not the object.
        encoding = LayeredEncoding(full_rate=required_rate, layers=obj.layers)
        self.layers = encoding.layers
        self.layer_rate = encoding.layer_rate
        #: The object's segment boundaries.  The engine reads only its
        #: stateless floor and ceiling of a store byte count; the store
        #: stays the one source of residency truth.
        self.prefix = SegmentedPrefix(self.size, scheme)
        self.tolerance = 1e-9 * max(self.size, 1.0)


def select_stream_ids(
    catalog, config: StreamingConfig, sim_seed: int
) -> Tuple[List[int], List[int]]:
    """Deterministically choose which objects stream (and which are VBR).

    Returns ``(stream_ids, vbr_ids)``.  The choice is a permutation of the
    sorted catalog ids drawn from a dedicated tagged RNG stream — seeded by
    ``(tag, config.seed, sim_seed)``, never by the bare simulation seed —
    so flipping streaming on cannot perturb any other random stream, and
    the same ``(config, seed)`` pair always marks the same objects.
    """
    all_ids = sorted(obj.object_id for obj in catalog)
    if config.fraction >= 1.0 and config.vbr_fraction <= 0.0:
        return all_ids, []
    rng = np.random.default_rng(
        (
            _STREAMING_STREAM_TAG,
            config.seed & 0xFFFFFFFF,
            sim_seed & 0xFFFFFFFF,
        )
    )
    permuted = [all_ids[i] for i in rng.permutation(len(all_ids))]
    n_stream = len(all_ids) if config.fraction >= 1.0 else max(
        1, int(config.fraction * len(all_ids) + 1e-9)
    )
    stream_ids = permuted[:n_stream]
    n_vbr = int(config.vbr_fraction * n_stream + 1e-9)
    return sorted(stream_ids), sorted(stream_ids[:n_vbr])


class StreamingDeliveryEngine:
    """Segment-aware session delivery for the replay kernel.

    One engine is constructed per run.  The kernel calls :meth:`serve` for
    every ``FETCH_OK`` request of a stream object (and
    :meth:`record_failed` for fetches that failed outright), at the exact
    sequence point where non-stream requests run the plain delivery
    arithmetic; the simulator additionally installs
    :meth:`admission_target` and :meth:`trim_victim` as the policy's
    streaming hooks.  :meth:`serve` and :meth:`trim_victim` index
    ``store``'s KB table, so the store must be sized to the catalog first
    (:meth:`~repro.core.store.CacheStore.reserve`), as every store a
    replay builds is.
    """

    def __init__(self, config: StreamingConfig, catalog, store, sim_seed: int = 0):
        self.config = config
        self.store = store
        stream_ids, vbr_ids = select_stream_ids(catalog, config, sim_seed)
        self.stream_ids = frozenset(stream_ids)
        self.vbr_ids = frozenset(vbr_ids)
        scheme = config.scheme()
        self._entries: Dict[int, _StreamEntry] = {}
        for object_id in stream_ids:
            obj = catalog.get(object_id)
            required_rate = obj.bitrate
            if object_id in self.vbr_ids:
                required_rate = max(
                    required_rate, self._smoothed_peak_rate(obj, config)
                )
            self._entries[object_id] = _StreamEntry(obj, required_rate, scheme)
        self._prefetch_segments = config.prefetch_segments
        self._abandon_after_s = config.abandon_after_s
        #: ``(object_id, allowed_segments)`` set by the session that just
        #: played; consumed by the admission that immediately follows it.
        self._pending_prefetch: Optional[Tuple[int, int]] = None

        # Cumulative QoE counters (measurement phase only).  The timeline
        # reads these at its snapshot points, exactly like the store /
        # rekeyer / injector counters.
        self.sessions = 0
        self.startup_sum = 0.0
        self.rebuffer_sum = 0.0
        self.watch_sum = 0.0
        self.quality_sum = 0.0
        self.abandoned = 0
        self.waited = 0
        self.degraded = 0
        self.feasible_suffix = 0
        self.prefetch_extensions = 0
        self.fragment_trims = 0
        self.pressure_trimmed_kb = 0.0

    @staticmethod
    def _smoothed_peak_rate(obj, config: StreamingConfig) -> float:
        """Required sustained rate of a VBR object: its smoothed peak.

        The synthetic VBR schedule is built at a frame rate coarse enough
        to bound the smoothing pass at :data:`_VBR_MAX_FRAMES` slots, then
        smoothed against ``smoothing_buffer_s`` seconds of client buffer;
        the peak of the smoothed schedule is what the delivery path must
        sustain for full-quality playout.
        """
        frame_rate = min(24.0, _VBR_MAX_FRAMES / obj.duration)
        stream = synthetic_vbr_stream(
            duration=obj.duration,
            mean_rate=obj.bitrate,
            burstiness=config.vbr_burstiness,
            frame_rate=frame_rate,
            seed=(config.seed & 0xFFFFFFFF) * 1_000_003 + obj.object_id,
        )
        buffer_kb = max(config.smoothing_buffer_s * obj.bitrate, stream.peak_rate)
        return peak_rate(optimal_smoothing(stream, buffer_kb))

    # ------------------------------------------------------------------
    # Session delivery (called from the kernel's delivery stage).
    # ------------------------------------------------------------------
    def serve(
        self,
        object_id: int,
        bandwidth: float,
        now: float,
        measuring: bool,
        waited: float = 0.0,
    ) -> Tuple[float, float, float, float, bool]:
        """Run one delivery session against the current cache state.

        Returns ``(bytes_from_cache, bytes_from_server, delay, quality,
        full_quality)`` in the units the metrics collector accumulates.
        The session model (deterministic client choice, Section 2.2/3.3
        style):

        * residency is floored to a segment boundary first — a mid-segment
          fragment left by a pressured partial admission is trimmed away,
        * a session whose full-quality startup delay fits the abandonment
          budget *waits* (quality 1, the delay counts as rebuffering),
        * otherwise it *degrades* to the layers the available rate
          (cached prefix spread over the duration, plus the delivered
          bandwidth) sustains, starting immediately,
        * otherwise it *abandons*: no playout, the server bytes streamed
          during the wait are wasted, and the budget counts as stall.

        Cache mutations (fragment trims) and the session-position prefetch
        entitlement happen regardless of ``measuring``; the QoE counters
        move only during the measurement phase.
        """
        entry = self._entries[object_id]
        size = entry.size
        duration = entry.duration
        cached = self.store.cached_kb[object_id]
        if cached > 0.0:
            # Floor residency to a segment boundary.
            floored = entry.prefix.floor(cached)
            if floored < cached - entry.tolerance:
                self.store.trim(object_id, cached - floored, now)
                self.fragment_trims += 1
                cached = floored
            elif cached > size:
                cached = size

        # The startup delay of plan_prefix_prefetch (the paper's
        # [T r - T b - x]+ / b over the prefix it serves), as
        # MediaObject.startup_delay writes it: the plan's suffix-free and
        # zero-bandwidth branches give the same 0.0 and inf.
        missing = size - duration * bandwidth - (
            cached if cached < size else size
        )
        if missing <= 0:
            delay_full = 0.0
        elif bandwidth <= 0:
            delay_full = float("inf")
        else:
            delay_full = missing / bandwidth
        feasible = delay_full <= 0.0
        if entry.vbr:
            # VBR: the smoothed peak rate, not the mean rate, must be
            # sustained; same [T r - T b - x]+ / b form at the higher rate.
            missing = (
                duration * entry.required_rate
                - duration * bandwidth
                - cached
            )
            if missing <= 0:
                delay_full = 0.0
            elif bandwidth <= 0:
                delay_full = float("inf")
            else:
                delay_full = missing / bandwidth

        abandoned = False
        if delay_full <= 0.0:
            stall, quality, watch = 0.0, 1.0, duration
        elif delay_full <= self._abandon_after_s:
            stall, quality, watch = delay_full, 1.0, duration
        else:
            # Too long to wait: play the layers the cached prefix spread
            # over the duration plus the delivered bandwidth sustain
            # (LayeredEncoding.supported_layers), or abandon.
            available = cached / duration + (
                bandwidth if bandwidth > 0.0 else 0.0
            )
            layers_ok = (
                0
                if available <= 0
                else min(entry.layers, int(available / entry.layer_rate + 1e-9))
            )
            if layers_ok >= 1:
                stall = 0.0
                quality = layers_ok / entry.layers
                watch = duration
            else:
                abandoned = True
                stall, quality, watch = self._abandon_after_s, 0.0, 0.0

        if abandoned:
            served = bandwidth * stall
            remaining = size - cached
            if served > remaining:
                served = remaining
            bytes_cache, bytes_server = 0.0, served
            self._pending_prefetch = (object_id, 0)
        else:
            fraction = quality
            bytes_cache = fraction * cached
            bytes_server = fraction * (size - cached)
            self._pending_prefetch = (object_id, self._prefetch_segments)

        delay = stall + waited
        if measuring:
            self.sessions += 1
            self.startup_sum += delay
            self.rebuffer_sum += delay
            self.watch_sum += watch
            self.quality_sum += quality
            if abandoned:
                self.abandoned += 1
            elif stall > 0.0:
                self.waited += 1
            elif quality < 1.0:
                self.degraded += 1
            if feasible:
                self.feasible_suffix += 1
        return bytes_cache, bytes_server, delay, quality, quality >= 1.0

    def record_failed(self, waited: float, quality: float) -> None:
        """Account a stream session whose fetch failed after every retry.

        The origin was unreachable: the viewer waited out the retry budget
        and got (at most) the stale cached prefix — the session counts as
        abandoned, its wait as both startup delay and rebuffering, and the
        stale-serve ``quality`` (zero when nothing was cached) as the
        delivered quality.  Called only during the measurement phase.
        """
        self.sessions += 1
        self.abandoned += 1
        self.startup_sum += waited
        self.rebuffer_sum += waited
        self.quality_sum += quality

    # ------------------------------------------------------------------
    # Policy hooks (installed on the policy for the duration of a run).
    # ------------------------------------------------------------------
    def admission_target(
        self, object_id: int, target_kb: float, size_kb: float
    ) -> float:
        """Quantise a policy's byte target for one stream object.

        Non-stream objects pass through untouched.  In whole-object mode
        any positive target becomes the full object (the ablation
        baseline).  In prefix mode the target is rounded *up* to the next
        segment boundary and extended by the pending session-position
        prefetch entitlement (set by :meth:`serve`; an abandoned session
        grants none), capped at the object size.
        """
        entry = self._entries.get(object_id)
        if entry is None:
            return target_kb
        if target_kb <= 1e-6:
            return target_kb
        if not self.config.prefix_caching:
            return size_kb
        ceil = entry.prefix.ceil
        quantized = ceil(target_kb)
        pending = self._pending_prefetch
        extra = (
            pending[1]
            if pending is not None and pending[0] == object_id
            else 0
        )
        extended = quantized
        for _ in range(extra):
            if extended >= entry.size:
                break
            extended = ceil(extended + entry.tolerance + 1e-9)
        if extended > quantized:
            self.prefetch_extensions += 1
        return min(extended, size_kb)

    def trim_victim(
        self, victim_id: int, needed_kb: float, now: float = 0.0
    ) -> Optional[Tuple[float, bool]]:
        """Reclaim space from a stream victim by dropping tail segments.

        Returns ``None`` for non-stream victims (the policy then runs its
        ordinary eviction arithmetic).  For a stream victim, residency is
        floored to a boundary and trailing segments are dropped until at
        least ``needed_kb`` KB are reclaimed, a store
        change at request time ``now``; the return value is
        ``(reclaimed_kb, emptied)`` so the policy can either retire the
        victim's heap entry (``emptied``) or restore it.
        """
        entry = self._entries.get(victim_id)
        if entry is None:
            return None
        store = self.store
        current = store.cached_kb[victim_id]
        if current <= 0.0:
            return 0.0, True
        keep = current - needed_kb
        if keep < 0.0:
            keep = 0.0
        remaining = entry.prefix.floor(keep)
        reclaimed = current - remaining
        if reclaimed > 0.0:
            store.trim(victim_id, reclaimed, now)
            self.pressure_trimmed_kb += reclaimed
        return reclaimed, remaining <= 1e-6

    # ------------------------------------------------------------------
    # Reporting.
    # ------------------------------------------------------------------
    def report(self) -> StreamingReport:
        """The whole-run QoE report (measurement-phase sessions only)."""
        sessions = self.sessions
        stall_plus_watch = self.rebuffer_sum + self.watch_sum
        return StreamingReport(
            stream_objects=len(self._entries),
            sessions=sessions,
            waited_sessions=self.waited,
            degraded_sessions=self.degraded,
            abandoned_sessions=self.abandoned,
            mean_startup_delay_s=(
                self.startup_sum / sessions if sessions > 0 else 0.0
            ),
            rebuffer_ratio=(
                self.rebuffer_sum / stall_plus_watch
                if stall_plus_watch > 0
                else 0.0
            ),
            mean_quality=(self.quality_sum / sessions if sessions > 0 else 1.0),
            abandonment_rate=(
                self.abandoned / sessions if sessions > 0 else 0.0
            ),
            feasible_suffix_sessions=self.feasible_suffix,
            prefetch_extensions=self.prefetch_extensions,
            fragment_trims=self.fragment_trims,
            pressure_trimmed_kb=self.pressure_trimmed_kb,
        )
