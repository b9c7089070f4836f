"""Optimal work-ahead smoothing of VBR streams (Salehi et al., SIGMETRICS 96).

The paper assumes that variable bit-rate objects are reduced to (nearly)
constant bit-rate transmission by "the optimal smoothing technique [29]"
before any caching decision is made.  This module implements that technique:
given a VBR stream and a client buffer of ``B`` KB, compute the transmission
schedule that is feasible (never underflows the playback requirement, never
overflows the client buffer) and has the minimum possible peak rate and rate
variability.

The classical algorithm computes the *shortest path* (in the geometric
sense) between the lower cumulative-consumption curve ``D(t)`` and the upper
curve ``D(t) + B``: the schedule is a sequence of constant-rate runs, each
run ending where the string touches one of the two curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.streaming.media import VBRStream


@dataclass(frozen=True)
class SmoothedSchedule:
    """A piecewise-constant-rate transmission schedule.

    Attributes
    ----------
    run_boundaries:
        Frame indices at which the rate changes; ``run_boundaries[0] == 0``
        and ``run_boundaries[-1] == num_frames``.
    run_rates:
        Transmission rate (KB per frame slot) during each run; one entry per
        pair of consecutive boundaries.
    frame_rate:
        Frames per second, kept so rates can be converted to KB/s.
    """

    run_boundaries: Tuple[int, ...]
    run_rates: Tuple[float, ...]
    frame_rate: float

    def cumulative_transmission(self) -> np.ndarray:
        """Cumulative KB transmitted by the end of each frame slot."""
        num_frames = self.run_boundaries[-1]
        schedule = np.empty(num_frames)
        total = 0.0
        position = 0
        for (start, end), rate in zip(
            zip(self.run_boundaries[:-1], self.run_boundaries[1:]), self.run_rates
        ):
            for _ in range(start, end):
                total += rate
                schedule[position] = total
                position += 1
        return schedule

    def rates_kbps(self) -> np.ndarray:
        """Per-run transmission rates in KB/s."""
        return np.asarray(self.run_rates) * self.frame_rate

    @property
    def num_runs(self) -> int:
        """Number of constant-rate runs in the schedule."""
        return len(self.run_rates)


def optimal_smoothing(stream: VBRStream, buffer_kb: float) -> SmoothedSchedule:
    """Compute the minimum-peak-rate feasible schedule for ``stream``.

    Implements the shortest-path (string-tightening) construction: starting
    from the last run's end point, repeatedly find the longest constant-rate
    segment that stays between the underflow curve ``D`` and the overflow
    curve ``D + B``.  When the segment is limited by the underflow curve the
    next run starts there with a (weakly) larger rate; when limited by the
    overflow curve it starts with a (weakly) smaller rate — which is what
    yields the minimum peak rate and, among such schedules, the maximum
    minimum rate.

    Parameters
    ----------
    stream:
        The VBR stream to smooth.
    buffer_kb:
        Client playout buffer size in KB.  A zero buffer forces the schedule
        to follow the per-frame sizes exactly.
    """
    if not buffer_kb >= 0:
        raise ConfigurationError(f"buffer_kb must be non-negative, got {buffer_kb}")

    demand = stream.cumulative_schedule()
    num_frames = demand.size
    # Lower curve: data needed by end of slot k (underflow bound).
    # Upper curve: demand + buffer, but never more than the total size.
    lower = demand
    upper = np.minimum(demand + buffer_kb, demand[-1])

    boundaries: List[int] = [0]
    rates: List[float] = []

    start = 0
    start_value = 0.0
    while start < num_frames:
        # Find the longest feasible constant-rate run beginning at
        # (start, start_value).  Track the tightest rate interval
        # [min_rate, max_rate] over prefixes of increasing length.
        min_rate = 0.0
        max_rate = float("inf")
        best_end = start + 1
        best_rate = None
        limited_by_lower = True
        end = start
        while end < num_frames:
            slots = end - start + 1
            needed = (lower[end] - start_value) / slots
            allowed = (upper[end] - start_value) / slots
            new_min = max(min_rate, needed)
            new_max = min(max_rate, allowed)
            if new_min > new_max + 1e-12:
                break
            min_rate, max_rate = new_min, new_max
            best_end = end + 1
            # Choose the rate for this run when it terminates: if the run is
            # about to become infeasible because the lower bound rises, the
            # run must end on the lower curve at the minimal feasible rate
            # increase; the canonical choice is min_rate when the binding
            # constraint is underflow and max_rate when it is overflow.
            limited_by_lower = needed >= allowed - 1e-12
            best_rate = min_rate if limited_by_lower else max_rate
            end += 1
        if best_rate is None:
            # A single slot was infeasible, which can only happen if the
            # buffer is smaller than one frame; fall back to per-frame rate.
            best_rate = lower[start] - start_value
            best_end = start + 1
        rates.append(float(best_rate))
        boundaries.append(best_end)
        start_value = start_value + best_rate * (best_end - start)
        # Snap to the curve we terminated on to avoid floating-point drift.
        start_value = min(max(start_value, lower[best_end - 1]), upper[best_end - 1])
        start = best_end

    return SmoothedSchedule(
        run_boundaries=tuple(boundaries),
        run_rates=tuple(rates),
        frame_rate=stream.frame_rate,
    )


def peak_rate(schedule: SmoothedSchedule) -> float:
    """Peak transmission rate of a schedule in KB/s."""
    return float(schedule.rates_kbps().max())


def rate_variability(schedule: SmoothedSchedule) -> float:
    """Coefficient of variation of the per-slot transmission rate."""
    per_slot = np.empty(schedule.run_boundaries[-1])
    for (start, end), rate in zip(
        zip(schedule.run_boundaries[:-1], schedule.run_boundaries[1:]),
        schedule.run_rates,
    ):
        per_slot[start:end] = rate
    mean = per_slot.mean()
    if mean <= 0:
        return 0.0
    return float(per_slot.std() / mean)


def verify_feasible(stream: VBRStream, schedule: SmoothedSchedule, buffer_kb: float) -> bool:
    """Check that a schedule neither underflows playback nor overflows the buffer."""
    demand = stream.cumulative_schedule()
    transmitted = schedule.cumulative_transmission()
    if transmitted.size != demand.size:
        return False
    tolerance = 1e-6 * max(float(demand[-1]), 1.0)
    no_underflow = bool(np.all(transmitted >= demand - tolerance))
    no_overflow = bool(np.all(transmitted <= demand + buffer_kb + tolerance))
    return no_underflow and no_overflow
