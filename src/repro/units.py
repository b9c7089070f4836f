"""Unit conventions and conversion helpers used throughout :mod:`repro`.

The paper (Jin, Bestavros & Iyengar, 2002) expresses quantities in a small
set of natural units, and the whole library follows the same conventions so
that numbers read directly against the figures:

========================  =======================================
Quantity                  Unit
========================  =======================================
Data size                 kilobytes (KB)
Bandwidth / bit-rate      kilobytes per second (KB/s)
Time / duration / delay   seconds
Monetary value            dollars
========================  =======================================

A "kilobyte" here is 1000 bytes; the distinction from KiB is immaterial for
reproducing the paper's results but the constants below make the convention
explicit and keep magic numbers out of the rest of the code base.
"""

from __future__ import annotations

#: Kilobytes per gigabyte.
KB_PER_GB: float = 1_000_000.0

#: Seconds per minute.
SECONDS_PER_MINUTE: float = 60.0

#: Frames per second assumed by the paper's workload (Table 1).
FRAMES_PER_SECOND: float = 24.0

#: Kilobytes per frame assumed by the paper's workload (Table 1).
KB_PER_FRAME: float = 2.0

#: The paper's constant object bit-rate, 2 KB/frame * 24 frame/s = 48 KB/s.
DEFAULT_BITRATE_KBPS: float = KB_PER_FRAME * FRAMES_PER_SECOND


def gb_to_kb(gigabytes: float) -> float:
    """Convert gigabytes to kilobytes."""
    return gigabytes * KB_PER_GB


def kb_to_gb(kilobytes: float) -> float:
    """Convert kilobytes to gigabytes."""
    return kilobytes / KB_PER_GB


def positive_part(value: float) -> float:
    """Return ``value`` if positive, otherwise ``0.0``.

    This is the ``[y]+`` operator used throughout the paper's formulas, e.g.
    the service delay ``[T_i r_i - T_i b_i - x_i]+ / b_i``.
    """
    return value if value > 0.0 else 0.0
