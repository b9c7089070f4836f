"""Tests for unit conversions and the positive-part helper."""

import pytest

from repro import units


def test_gb_kb_roundtrip():
    assert units.gb_to_kb(1.0) == pytest.approx(1_000_000.0)
    assert units.kb_to_gb(units.gb_to_kb(7.25)) == pytest.approx(7.25)


def test_default_bitrate_matches_table1():
    # 2 KB per frame at 24 frames per second is the paper's 48 KB/s.
    assert units.DEFAULT_BITRATE_KBPS == pytest.approx(48.0)
    assert units.KB_PER_FRAME * units.FRAMES_PER_SECOND == pytest.approx(
        units.DEFAULT_BITRATE_KBPS
    )


def test_positive_part_positive_and_negative():
    assert units.positive_part(3.5) == 3.5
    assert units.positive_part(0.0) == 0.0
    assert units.positive_part(-2.0) == 0.0
