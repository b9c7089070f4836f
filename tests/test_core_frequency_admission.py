"""Tests for frequency tracking."""

from repro.core.frequency import FrequencyTracker
from repro.workload.catalog import Catalog, MediaObject


class TestFrequencyTracker:
    def test_counts_accumulate(self):
        tracker = FrequencyTracker()
        assert tracker.frequency(1) == 0.0
        tracker.record(1)
        tracker.record(1)
        tracker.record(2)
        assert tracker.frequency(1) == 2.0
        assert tracker.frequency(2) == 1.0
        assert tracker.total_requests == 3

    def test_record_returns_updated_count(self):
        tracker = FrequencyTracker()
        assert tracker.record(5) == 1.0
        assert tracker.record(5) == 2.0

    def test_top(self):
        tracker = FrequencyTracker()
        for _ in range(3):
            tracker.record(1)
        tracker.record(2)
        assert tracker.top(1) == [(1, 3.0)]
        assert tracker.known_objects() == [1, 2]

    def test_reset(self):
        tracker = FrequencyTracker()
        tracker.record(1)
        tracker.reset()
        assert tracker.total_requests == 0
        assert tracker.frequency(1) == 0.0

    def test_no_decay_by_default(self):
        tracker = FrequencyTracker()
        tracker.record(1)
        assert tracker.frequency(1) == 1.0

    def test_reserve_installs_a_fresh_list_for_dense_ids(self):
        catalog = Catalog(
            [MediaObject(object_id=i, duration=10.0, bitrate=48.0) for i in range(4)]
        )
        tracker = FrequencyTracker()
        tracker.reserve(catalog)
        assert tracker.counts == [0.0, 0.0, 0.0, 0.0]
        assert tracker.record(2) == 1.0
        assert tracker.counts == [0.0, 0.0, 1.0, 0.0]
        # Ids without a slot still read as unseen.
        assert tracker.frequency(-1) == 0.0 and tracker.frequency(99) == 0.0
        assert tracker.total_requests == 1

    def test_reserve_keys_a_dict_for_sparse_ids(self):
        catalog = Catalog(
            [
                MediaObject(object_id=object_id, duration=10.0, bitrate=48.0)
                for object_id in (3, 30_000_000)
            ]
        )
        tracker = FrequencyTracker()
        tracker.reserve(catalog)
        assert tracker.counts == {3: 0.0, 30_000_000: 0.0}
        tracker.record(30_000_000)
        assert tracker.top(1) == [(30_000_000, 1.0)]
