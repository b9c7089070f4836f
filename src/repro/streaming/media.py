"""Stream encodings: VBR frame schedules and layered quality.

The paper assumes constant bit-rate (CBR) objects, with variable bit-rate
(VBR) objects reduced to the CBR case by optimal smoothing (Section 2.2).
Stream quality is defined over a layered encoding: if only three of four
layers can be sustained, quality is 0.75 (Section 3.3).

:class:`VBRStream` provides the frame-level schedule the smoothing module
operates on, and :class:`LayeredEncoding` the quality arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exceptions import ConfigurationError


class VBRStream:
    """A variable bit-rate stream described by its per-frame sizes.

    Parameters
    ----------
    frame_sizes:
        Size in KB of each frame, in playback order.
    frame_rate:
        Frames per second (default 24, matching the paper's workload).
    """

    def __init__(self, frame_sizes: Sequence[float], frame_rate: float = 24.0):
        sizes = np.asarray(list(frame_sizes), dtype=float)
        if sizes.size == 0:
            raise ConfigurationError("frame_sizes must be non-empty")
        if not np.all(sizes >= 0):
            raise ConfigurationError("frame sizes must be non-negative")
        if not frame_rate > 0:
            raise ConfigurationError(f"frame_rate must be positive, got {frame_rate}")
        self.frame_sizes = sizes
        self.frame_rate = float(frame_rate)

    @property
    def num_frames(self) -> int:
        """Number of frames in the stream."""
        return int(self.frame_sizes.size)

    @property
    def duration(self) -> float:
        """Playback duration in seconds."""
        return self.num_frames / self.frame_rate

    @property
    def size(self) -> float:
        """Total stream size in KB."""
        return float(self.frame_sizes.sum())

    @property
    def mean_rate(self) -> float:
        """Average rate in KB/s."""
        return self.size / self.duration

    @property
    def peak_rate(self) -> float:
        """Peak per-frame rate expressed in KB/s."""
        return float(self.frame_sizes.max()) * self.frame_rate

    def cumulative_schedule(self) -> np.ndarray:
        """Cumulative KB that must be delivered by the end of each frame.

        Index ``k`` gives the data required to decode frames ``0..k``; this
        is the lower bound every feasible transmission schedule must stay
        above (the ``D(t)`` curve in the smoothing literature).
        """
        return np.cumsum(self.frame_sizes)


@dataclass(frozen=True)
class LayeredEncoding:
    """A layered (scalable) encoding of a stream.

    The paper's quality metric assumes layers of equal rate: playing ``k``
    of ``layers`` layers yields quality ``k / layers`` and requires rate
    ``k / layers * full_rate``.
    """

    full_rate: float
    layers: int = 4

    def __post_init__(self) -> None:
        if not self.full_rate > 0:
            raise ConfigurationError(f"full_rate must be positive, got {self.full_rate}")
        if self.layers < 1:
            raise ConfigurationError(f"layers must be >= 1, got {self.layers}")

    @property
    def layer_rate(self) -> float:
        """Rate of a single layer in KB/s."""
        return self.full_rate / self.layers

    def supported_layers(self, available_rate: float) -> int:
        """Largest number of layers sustainable at ``available_rate`` KB/s."""
        if available_rate <= 0:
            return 0
        return min(self.layers, int(available_rate / self.layer_rate + 1e-9))

    def quality(self, available_rate: float) -> float:
        """Quality (fraction of layers playable) at ``available_rate`` KB/s."""
        return self.supported_layers(available_rate) / self.layers


def check_burstiness(burstiness: float, name: str = "burstiness") -> None:
    """Raise :class:`ConfigurationError` naming ``name`` unless ``burstiness``
    is in ``[0, 1)`` and, when positive, keeps the gamma shape
    ``1 / burstiness**2`` finite (below about 1e-154 the square underflows
    and every frame size would come out NaN, or the shape divide by zero)."""
    if not 0.0 <= burstiness < 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1), got {burstiness}")
    square = float(burstiness) ** 2
    if burstiness > 0 and not (square > 0.0 and math.isfinite(1.0 / square)):
        raise ConfigurationError(
            f"{name} must be 0 or large enough that 1 / {name}**2 is finite, "
            f"got {burstiness!r}"
        )


def synthetic_vbr_stream(
    duration: float,
    mean_rate: float,
    burstiness: float = 0.5,
    frame_rate: float = 24.0,
    seed: int = 0,
) -> VBRStream:
    """Generate a synthetic VBR stream with a target mean rate.

    Frame sizes follow a gamma distribution around the mean frame size with
    a scene-level modulation (slowly varying sinusoidal component) so the
    stream exhibits both short-term and long-term rate variability, which is
    what makes smoothing interesting.  ``burstiness`` in ``[0, 1)`` controls
    the coefficient of variation of frame sizes (see
    :func:`check_burstiness`).
    """
    if not (duration > 0 and mean_rate > 0):
        raise ConfigurationError("duration and mean_rate must be positive")
    check_burstiness(burstiness)
    rng = np.random.default_rng(seed)
    num_frames = max(int(duration * frame_rate), 1)
    mean_frame = mean_rate / frame_rate
    # Scene modulation: +-40% swings over ~30-second scenes.
    scene_period_frames = 30.0 * frame_rate
    phase = rng.uniform(0, 2 * np.pi)
    modulation = 1.0 + 0.4 * np.sin(
        2 * np.pi * np.arange(num_frames) / scene_period_frames + phase
    )
    if burstiness > 0:
        cov = burstiness
        shape = 1.0 / cov**2
        noise = rng.gamma(shape, 1.0 / shape, size=num_frames)
    else:
        noise = np.ones(num_frames)
    sizes = mean_frame * modulation * noise
    # Re-normalise so the realised mean rate matches the request.
    sizes *= (mean_frame * num_frames) / sizes.sum()
    return VBRStream(sizes, frame_rate=frame_rate)
