"""Tests for the synthetic proxy-log substrate and the Section 3.1 analysis."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, TraceFormatError
from repro.network.loganalysis import (
    ProxyLogAnalyzer,
    SyntheticProxyLog,
    TransferRecord,
)


class TestTransferRecord:
    def test_throughput(self):
        record = TransferRecord(
            timestamp=0.0, server_id=1, size_kb=500.0, duration_s=10.0, cache_hit=False
        )
        assert record.throughput == pytest.approx(50.0)

    def test_zero_duration_throughput(self):
        record = TransferRecord(
            timestamp=0.0, server_id=1, size_kb=500.0, duration_s=0.0, cache_hit=False
        )
        assert record.throughput == 0.0


class TestSyntheticProxyLog:
    def test_generates_requested_number_of_records(self):
        records = SyntheticProxyLog(num_servers=20, num_records=500, seed=1).generate()
        assert len(records) == 500
        assert all(record.size_kb > 0 for record in records)

    def test_timestamps_increasing(self):
        records = SyntheticProxyLog(num_servers=10, num_records=200, seed=2).generate()
        times = [record.timestamp for record in records]
        assert times == sorted(times)

    def test_hit_fraction_approximately_respected(self):
        records = SyntheticProxyLog(
            num_servers=20, num_records=5_000, hit_fraction=0.4, seed=3
        ).generate()
        hit_rate = np.mean([record.cache_hit for record in records])
        assert hit_rate == pytest.approx(0.4, abs=0.03)

    def test_deterministic_given_seed(self):
        first = SyntheticProxyLog(num_servers=5, num_records=100, seed=9).generate()
        second = SyntheticProxyLog(num_servers=5, num_records=100, seed=9).generate()
        assert [r.size_kb for r in first] == [r.size_kb for r in second]

    def test_csv_roundtrip(self, tmp_path):
        records = SyntheticProxyLog(num_servers=5, num_records=50, seed=4).generate()
        path = tmp_path / "log.csv"
        SyntheticProxyLog.to_csv(records, path)
        loaded = SyntheticProxyLog.from_csv(path)
        assert len(loaded) == len(records)
        assert loaded[0].server_id == records[0].server_id
        assert loaded[-1].size_kb == pytest.approx(records[-1].size_kb)

    def test_csv_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(TraceFormatError):
            SyntheticProxyLog.from_csv(path)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SyntheticProxyLog(num_servers=0)
        with pytest.raises(ConfigurationError):
            SyntheticProxyLog(hit_fraction=1.0)
        with pytest.raises(ConfigurationError):
            SyntheticProxyLog(large_object_fraction=0.0)


class TestProxyLogAnalyzer:
    def test_filters_hits_and_small_objects(self):
        records = [
            TransferRecord(0.0, 0, 500.0, 10.0, cache_hit=True),   # hit: dropped
            TransferRecord(1.0, 0, 100.0, 2.0, cache_hit=False),   # small: dropped
            TransferRecord(2.0, 0, 400.0, 10.0, cache_hit=False),  # kept (40 KB/s)
            TransferRecord(3.0, 0, 800.0, 10.0, cache_hit=False),  # kept (80 KB/s)
        ]
        analysis = ProxyLogAnalyzer().analyze(records)
        assert analysis.samples.size == 2
        assert sorted(analysis.samples.tolist()) == pytest.approx([40.0, 80.0])

    def test_no_surviving_records_raises(self):
        records = [TransferRecord(0.0, 0, 10.0, 1.0, cache_hit=False)]
        with pytest.raises(ConfigurationError):
            ProxyLogAnalyzer(min_object_kb=200.0).analyze(records)

    def test_reproduces_nlanr_fractions(self):
        # End-to-end: synthetic log -> analysis -> Figure 2 anchor fractions.
        log = SyntheticProxyLog(num_servers=200, num_records=30_000, seed=0)
        analysis = ProxyLogAnalyzer().analyze(log.generate())
        assert analysis.fraction_below(50.0) == pytest.approx(0.37, abs=0.07)
        assert analysis.fraction_below(100.0) == pytest.approx(0.56, abs=0.07)

    def test_cdf_monotone_and_normalised(self):
        log = SyntheticProxyLog(num_servers=50, num_records=5_000, seed=1)
        analysis = ProxyLogAnalyzer().analyze(log.generate())
        _, cdf = analysis.cdf()
        assert np.all(np.diff(cdf) >= -1e-12)
        assert cdf[-1] == pytest.approx(1.0)

    def test_ratio_statistics_reflect_variability_model(self):
        log = SyntheticProxyLog(num_servers=100, num_records=20_000, seed=2)
        analysis = ProxyLogAnalyzer().analyze(log.generate())
        stats = analysis.ratio_statistics()
        assert stats["mean"] == pytest.approx(1.0, abs=0.1)
        assert 0.4 < stats["coefficient_of_variation"] < 1.1

    def test_to_distribution_is_sampleable(self, rng):
        log = SyntheticProxyLog(num_servers=50, num_records=10_000, seed=3)
        analysis = ProxyLogAnalyzer().analyze(log.generate())
        distribution = analysis.to_distribution()
        samples = distribution.sample(1_000, rng)
        assert samples.min() >= 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ProxyLogAnalyzer(min_object_kb=-1.0)
        with pytest.raises(ConfigurationError):
            ProxyLogAnalyzer(bin_width=0.0)

    @pytest.mark.parametrize("field", ["min_object_kb", "bin_width"])
    def test_nan_parameter_rejected(self, field):
        with pytest.raises(ConfigurationError):
            ProxyLogAnalyzer(**{field: float("nan")})

    def test_nan_duration_record_is_skipped(self):
        # Its throughput is NaN; like a zero-duration record it measures
        # nothing, and it must not turn the histogram's upper edge to NaN.
        records = [
            TransferRecord(0.0, 0, 400.0, float("nan"), cache_hit=False),
            TransferRecord(1.0, 0, 400.0, 10.0, cache_hit=False),
        ]
        analysis = ProxyLogAnalyzer().analyze(records)
        assert analysis.samples.tolist() == [40.0]
