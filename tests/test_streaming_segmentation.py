"""Tests for fine-grain segment maintenance of partially cached objects."""

import math

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

    @pytest.mark.parametrize(
        "start, end", [(math.nan, 10.0), (0.0, math.nan)], ids=["start", "end"]
    )
    def test_nan_bound_rejected(self, start, end):
        with pytest.raises(ConfigurationError):
            Segment(index=0, start=start, end=end)


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

    @pytest.mark.parametrize("method", ["grow_to", "trim_to", "floor", "ceil"])
    def test_nan_rejected_by_every_boundary_method(self, method):
        """NaN used to pass the ``target_kb < 0`` check: ``grow_to(nan)``
        on an empty prefix returned 0.0, and ``trim_to(nan)`` dropped
        nothing."""
        prefix = SegmentedPrefix(1_000.0)
        assert prefix.grow_to(600.0) == 768.0
        with pytest.raises(ConfigurationError):
            getattr(prefix, method)(float("nan"))
        assert prefix.cached_bytes == 768.0

    def test_floor_and_ceil_read_no_residency(self):
        prefix = self.make()
        assert (prefix.floor(250.0), prefix.ceil(250.0)) == (200.0, 300.0)
        assert (prefix.floor(300.0), prefix.ceil(300.0)) == (300.0, 300.0)
        assert (prefix.floor(0.0), prefix.ceil(0.0)) == (0.0, 0.0)
        assert (prefix.floor(5e3), prefix.ceil(5e3)) == (1_000.0, 1_000.0)
        assert prefix.ceil(float("inf")) == 1_000.0
        assert prefix.cached_bytes == 0.0


# ----------------------------------------------------------------------
# Randomized property tests (seeded; hypothesis shrinks on failure)
# ----------------------------------------------------------------------
import hypothesis.strategies as st
from hypothesis import example, given, settings

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


# ----------------------------------------------------------------------
# Differential: the boundary searches against the walking loops
# ----------------------------------------------------------------------
class _WalkingPrefix:
    """``grow_to`` / ``trim_to`` as they were before the binary searches:
    the resident count moves along the boundary table one entry per step.
    The table is built the way ``SegmentedPrefix`` documents it."""

    def __init__(self, size, scheme):
        sizes = [end - start for start, end in scheme._bounds(size)]
        self.cum = tuple(sum(sizes[:k]) for k in range(len(sizes) + 1))
        self.size = size
        self.resident = 0

    def copy(self, resident):
        walker = object.__new__(_WalkingPrefix)
        walker.cum, walker.size, walker.resident = self.cum, self.size, resident
        return walker

    def grow_to(self, target_kb):
        target_kb = min(target_kb, self.size)
        cum = self.cum
        last = len(cum) - 1
        resident = self.resident
        while cum[resident] < target_kb and resident < last:
            resident += 1
        self.resident = resident
        return cum[resident]

    def trim_to(self, target_kb):
        cum = self.cum
        resident = self.resident
        while resident > 0 and cum[resident] > target_kb:
            resident -= 1
        self.resident = resident
        return cum[resident]


class _TailBelowUlp(SegmentationScheme):
    """Appends a last segment below half an ulp of the running sum, so the
    table's last two entries are equal.  The layouts of
    ``SegmentationScheme`` itself never do this: their sizes telescope
    exactly, so every entry is the end of a segment."""

    def _bounds(self, object_size_kb):
        return super()._bounds(object_size_kb) + [(0.0, math.ulp(object_size_kb) / 4)]


class _ShortSum(SegmentationScheme):
    """Ends the last segment an ulp short of the object size, so the
    table's last entry is below the size and only the cap on the last
    index keeps a ceiling inside the table."""

    def _bounds(self, object_size_kb):
        bounds = super()._bounds(object_size_kb)
        start, end = bounds[-1]
        return bounds[:-1] + [(start, math.nextafter(end, 0.0))]


_LAYOUTS = {"plain": SegmentationScheme, "tail": _TailBelowUlp, "short": _ShortSum}

_target_specs = st.tuples(
    st.sampled_from(
        ["boundary", "ulp-below", "ulp-above", "zero", "over", "inf", "inside"]
    ),
    st.integers(min_value=0, max_value=1_000),
    st.floats(min_value=0.0, max_value=1.0),
)


def _target(spec, cum, size):
    kind, index, fraction = spec
    boundary = cum[index % len(cum)]
    return {
        "boundary": boundary,
        "ulp-below": max(math.nextafter(boundary, 0.0), 0.0),
        "ulp-above": math.nextafter(boundary, math.inf),
        "zero": 0.0,
        "over": math.nextafter(size, math.inf) + fraction * size,
        "inf": math.inf,
        "inside": fraction * size,
    }[kind]


class TestBoundarySearchesMatchWalking:
    @settings(max_examples=300, deadline=None)
    @given(
        layout=st.sampled_from(sorted(_LAYOUTS)),
        exponential=st.booleans(),
        base=st.floats(min_value=0.3, max_value=4096.0),
        segments=st.floats(min_value=0.01, max_value=150.0),
        calls=st.lists(
            st.tuples(st.sampled_from(["grow_to", "trim_to"]), _target_specs),
            min_size=1,
            max_size=20,
        ),
    )
    @example(
        layout="short", exponential=False, base=100.0, segments=10.0,
        calls=[("grow_to", ("inf", 0, 0.0)), ("grow_to", ("boundary", 3, 0.0)),
               ("trim_to", ("boundary", 3, 0.0))],
    )
    @example(
        layout="tail", exponential=True, base=300.3, segments=5.0,
        calls=[("grow_to", ("over", 0, 0.5)), ("trim_to", ("boundary", 0, 0.0))],
    )
    def test_calls_match_the_walking_loops(
        self, layout, exponential, base, segments, calls
    ):
        """After every ``grow_to`` / ``trim_to`` the KB and the resident
        count match the walking loops.  ``floor`` and ``ceil`` match a
        walk from full and from empty residency, and the engine's old
        re-synced sequences from the current residency give the same
        values."""
        # Uniform layouts stay at a few hundred segments (the table is
        # built with one sum() per prefix); exponential ones stay short.
        size = base * (segments if not exponential else segments ** 2)
        scheme = _LAYOUTS[layout](base, exponential)
        prefix = SegmentedPrefix(size, scheme)
        walker = _WalkingPrefix(size, scheme)
        cum = walker.cum
        last = len(cum) - 1
        assert prefix._cum == cum
        for method, spec in calls:
            target = _target(spec, cum, size)
            assert getattr(prefix, method)(target) == getattr(walker, method)(target)
            assert prefix._resident == walker.resident
            assert prefix.cached_bytes == cum[walker.resident]

            floor, ceil = prefix.floor(target), prefix.ceil(target)
            assert floor == walker.copy(last).trim_to(target)
            assert ceil == walker.copy(0).grow_to(target)
            # The engine's old sequences from the current residency:
            # serve's grow_to, trim_to; admission_target's trim_to,
            # grow_to; trim_victim's grow_to, trim_to, trim_to(keep).
            synced = walker.copy(walker.resident)
            synced.grow_to(target)
            assert synced.trim_to(target) == floor
            synced = walker.copy(walker.resident)
            synced.trim_to(target)
            assert synced.grow_to(target) == ceil
            keep = min(target, size) * spec[2]
            synced = walker.copy(walker.resident)
            synced.grow_to(target)
            synced.trim_to(target)
            assert synced.trim_to(keep) == prefix.floor(keep)
