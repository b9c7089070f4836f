"""Tests for fine-grain segment maintenance of partially cached objects."""

import pytest

from repro.exceptions import ConfigurationError
from repro.streaming.segmentation import Segment, SegmentationScheme, SegmentedPrefix


class TestSegment:
    def test_size(self):
        assert Segment(index=0, start=0.0, end=256.0).size == 256.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Segment(index=0, start=-1.0, end=10.0)
        with pytest.raises(ConfigurationError):
            Segment(index=0, start=10.0, end=10.0)


class TestSegmentationScheme:
    def test_fixed_size_segments_cover_object(self):
        scheme = SegmentationScheme(base_segment_kb=100.0, exponential=False)
        segments = scheme.segments(350.0)
        assert [s.size for s in segments] == [100.0, 100.0, 100.0, 50.0]
        assert segments[0].start == 0.0
        assert segments[-1].end == 350.0

    def test_exponential_segments_double(self):
        scheme = SegmentationScheme(base_segment_kb=64.0, exponential=True)
        segments = scheme.segments(64.0 + 128.0 + 256.0)
        assert [s.size for s in segments] == [64.0, 128.0, 256.0]

    def test_exponential_needs_logarithmic_count(self):
        scheme = SegmentationScheme(base_segment_kb=1.0, exponential=True)
        # A ~1 GB object divides into only ~20 exponential segments.
        assert len(scheme.segments(1_000_000.0)) <= 21

    def test_segments_for_prefix(self):
        scheme = SegmentationScheme(base_segment_kb=100.0, exponential=False)
        covered = scheme.segments_for_prefix(400.0, 150.0)
        assert [s.index for s in covered] == [0, 1]
        assert scheme.segments_for_prefix(400.0, 0.0) == []

    def test_zero_size_object(self):
        assert SegmentationScheme().segments(0.0) == []

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SegmentationScheme(base_segment_kb=0.0)
        with pytest.raises(ConfigurationError):
            SegmentationScheme().segments(-1.0)

    @pytest.mark.parametrize("base", [float("nan"), float("inf")])
    def test_non_finite_base_rejected(self, base):
        with pytest.raises(ConfigurationError):
            SegmentationScheme(base_segment_kb=base)

    @pytest.mark.parametrize("exponential", [False, True])
    @pytest.mark.parametrize("size", [float("nan"), float("inf")])
    def test_non_finite_object_size_rejected(self, size, exponential):
        with pytest.raises(ConfigurationError):
            SegmentationScheme(exponential=exponential).segments(size)


class TestSegmentedPrefix:
    def make(self, size=1_000.0, base=100.0, exponential=False):
        return SegmentedPrefix(
            size, SegmentationScheme(base_segment_kb=base, exponential=exponential)
        )

    def test_starts_empty(self):
        prefix = self.make()
        assert prefix.cached_bytes == 0.0
        assert prefix.resident_segments == []
        assert prefix.missing_ranges() == [(0.0, 1_000.0)]

    def test_grow_to_rounds_up_to_segment_boundary(self):
        prefix = self.make()
        cached = prefix.grow_to(250.0)
        assert cached == pytest.approx(300.0)  # three 100 KB segments
        assert len(prefix.resident_segments) == 3

    def test_grow_beyond_object_caps_at_size(self):
        prefix = self.make(size=250.0)
        assert prefix.grow_to(1e9) == pytest.approx(250.0)
        assert prefix.missing_ranges() == []

    def test_trim_to_drops_trailing_segments(self):
        prefix = self.make()
        prefix.grow_to(500.0)
        remaining = prefix.trim_to(250.0)
        assert remaining == pytest.approx(200.0)
        assert prefix.missing_ranges() == [(200.0, 1_000.0)]

    def test_holds_prefix(self):
        prefix = self.make()
        prefix.grow_to(300.0)
        assert prefix.holds_prefix(250.0)
        assert prefix.holds_prefix(300.0)
        assert not prefix.holds_prefix(301.0)

    def test_metadata_entries_counts_all_segments(self):
        assert self.make(size=1_000.0, base=100.0).metadata_entries() == 10

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SegmentedPrefix(0.0)
        prefix = self.make()
        with pytest.raises(ConfigurationError):
            prefix.grow_to(-1.0)
        with pytest.raises(ConfigurationError):
            prefix.trim_to(-1.0)

    @pytest.mark.parametrize("size", [float("nan"), float("inf")])
    def test_non_finite_object_size_rejected(self, size):
        with pytest.raises(ConfigurationError):
            SegmentedPrefix(size)


# ----------------------------------------------------------------------
# Randomized property tests (seeded; hypothesis shrinks on failure)
# ----------------------------------------------------------------------
import hypothesis.strategies as st
from hypothesis import given, settings

# Keep size/base ratios small enough that uniform layouts stay at a few
# hundred segments per object — SegmentedPrefix builds its boundary table
# with one sum() per prefix, so unbounded ratios turn each example
# quadratic.
_sizes = st.floats(min_value=1.0, max_value=32_768.0, allow_nan=False)
_bases = st.floats(min_value=256.0, max_value=4096.0, allow_nan=False)
_targets = st.floats(min_value=0.0, max_value=65_536.0, allow_nan=False)


class TestSegmentedPrefixProperties:
    @given(size=_sizes, base=_bases, exponential=st.booleans(), target=_targets)
    @settings(max_examples=200, deadline=None)
    def test_grow_to_meets_target_at_segment_granularity(
        self, size, base, exponential, target
    ):
        prefix = SegmentedPrefix(size, SegmentationScheme(base, exponential))
        cached = prefix.grow_to(target)
        # Residency never exceeds the object and is exactly the resident
        # segment total.
        assert 0.0 <= cached <= size + 1e-6
        assert cached == sum(s.size for s in prefix.resident_segments)
        # The target is met whenever it fits inside the object.
        if target <= size:
            assert cached >= target - 1e-6
        # Overshoot is bounded by the last admitted segment.
        if prefix.resident_segments:
            last = prefix.resident_segments[-1]
            assert cached - min(target, size) <= last.size + 1e-6
        # grow_to is idempotent at its own result.
        assert prefix.grow_to(target) == cached

    @given(size=_sizes, base=_bases, exponential=st.booleans(), target=_targets)
    @settings(max_examples=200, deadline=None)
    def test_trim_to_respects_target_at_segment_granularity(
        self, size, base, exponential, target
    ):
        prefix = SegmentedPrefix(size, SegmentationScheme(base, exponential))
        prefix.grow_to(size)
        remaining = prefix.trim_to(target)
        assert 0.0 <= remaining <= target + 1e-6 or remaining == 0.0
        assert remaining == sum(s.size for s in prefix.resident_segments)
        # trim_to is idempotent at its own result.
        assert prefix.trim_to(target) == remaining
        # Nothing more could have been kept: admitting one more segment
        # would break the target.
        total = prefix.total_segments
        if len(prefix.resident_segments) < total:
            next_seg = prefix.grow_to(remaining + 1e-9)
            if next_seg > remaining:
                assert next_seg > target

    @given(
        size=_sizes,
        base=_bases,
        exponential=st.booleans(),
        targets=st.lists(_targets, min_size=1, max_size=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_interleaved_grow_trim_keeps_prefix_invariant(
        self, size, base, exponential, targets
    ):
        prefix = SegmentedPrefix(size, SegmentationScheme(base, exponential))
        for i, target in enumerate(targets):
            cached = prefix.grow_to(target) if i % 2 == 0 else prefix.trim_to(target)
            resident = prefix.resident_segments
            assert cached == sum(s.size for s in resident)
            # Resident segments are always the leading segments, contiguous
            # from offset zero — the prefix invariant.
            for j, segment in enumerate(resident):
                assert segment.index == j
            if resident:
                assert resident[0].start == 0.0
                for prev, nxt in zip(resident, resident[1:]):
                    assert prev.end == nxt.start
            # missing_ranges is the exact complement of the prefix.
            missing = prefix.missing_ranges()
            if cached >= size:
                assert missing == []
            else:
                assert missing == [(cached, size)]

    @given(size=_sizes, base=_bases, exponential=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_segments_tile_the_object_exactly(self, size, base, exponential):
        segments = SegmentationScheme(base, exponential).segments(size)
        assert segments[0].start == 0.0
        assert segments[-1].end == size
        for prev, nxt in zip(segments, segments[1:]):
            assert prev.end == nxt.start
            if exponential:
                # Sizes double except for the final (clipped) segment.
                assert nxt.size <= 2.0 * prev.size + 1e-9
