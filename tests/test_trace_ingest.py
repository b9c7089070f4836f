"""Access-log ingestion: Squid/CLF parsing, filtering, and end-to-end use.

Covers the satellite fixtures the issue asks for — well-formed and
malformed Squid and CLF lines — plus the acceptance path: a sample log
ingests into a columnar trace that runs through ``compare_policies``.
"""

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.policies import PolicySpec
from repro.exceptions import ConfigurationError, TraceFormatError
from repro.network.loganalysis import ProxyLogAnalyzer, analyze_access_log
from repro.sim.config import SimulationConfig
from repro.sim.runner import compare_policies
from repro.trace.columnar import ColumnarTrace
from repro.trace.ingest import (
    detect_log_format,
    ingest_access_log,
    parse_clf_line,
    parse_squid_line,
)

SQUID_LINES = [
    "987654321.100  52000 10.0.0.2 TCP_MISS/200 2457600 GET http://media.bu.edu/a.rm - DIRECT/media.bu.edu video/x",
    "987654322.500    300 10.0.0.3 TCP_HIT/200 2457600 GET http://media.bu.edu/a.rm - NONE/- video/x",
    # completes *before* the previous line: exercises the stable sort
    "987654322.000  41000 10.0.0.2 TCP_MISS/200 1228800 GET http://cdn.example.net/b.rm - DIRECT/cdn.example.net video/x",
    "987654330.000  60000 10.0.0.4 TCP_MISS/200 2457000 GET http://media.bu.edu/a.rm - DIRECT/media.bu.edu video/x",
    "987654333.000  30000 10.0.0.4 TCP_MISS/200 1228000 GET http://cdn.example.net/b.rm - DIRECT/cdn.example.net video/x",
    # filtered: POST and 404
    "987654335.000    100 10.0.0.5 TCP_MISS/200 512 POST http://cdn.example.net/upload - DIRECT/cdn.example.net text/html",
    "987654336.000     80 10.0.0.5 TCP_MISS/404 300 GET http://media.bu.edu/gone.rm - DIRECT/media.bu.edu text/html",
    # malformed
    "utterly corrupt line",
    "987654337.000 notanint 10.0.0.6 TCP_MISS/200 100 GET http://media.bu.edu/a.rm - DIRECT/media.bu.edu video/x",
]

CLF_LINES = [
    '192.168.7.2 - - [17/Apr/2001:09:00:01 -0500] "GET /v/one.rm HTTP/1.0" 200 1048576',
    '192.168.7.3 - - [17/Apr/2001:09:00:31 -0500] "GET /v/two.rm HTTP/1.0" 200 2097152 "http://ref.example/" "Mozilla/4.0"',
    '192.168.7.2 - - [17/Apr/2001:09:01:12 -0500] "GET /v/one.rm HTTP/1.0" 304 -',
    '192.168.7.4 - - [17/Apr/2001:09:02:00 -0500] "HEAD /v/one.rm HTTP/1.0" 200 0',
    '192.168.7.5 - - [17/Apr/2001:09:02:30 -0500] "GET /v/three.rm HTTP/1.0" 500 99',
    "not a clf line at all",
]


@pytest.fixture
def squid_log(tmp_path):
    path = tmp_path / "access.log"
    path.write_text("# comment\n" + "\n".join(SQUID_LINES) + "\n")
    return path


@pytest.fixture
def clf_log(tmp_path):
    path = tmp_path / "clf.log"
    path.write_text("\n".join(CLF_LINES) + "\n")
    return path


class TestLineParsers:
    def test_squid_well_formed(self):
        record = parse_squid_line(SQUID_LINES[0])
        assert record.timestamp == pytest.approx(987654321.1)
        assert record.elapsed_ms == pytest.approx(52000.0)
        assert record.client == "10.0.0.2"
        assert record.method == "GET"
        assert record.status == 200
        assert record.size_bytes == 2457600
        assert record.cache_code == "TCP_MISS"
        assert not record.cache_hit
        assert record.server_host == "media.bu.edu"

    def test_squid_hit_codes(self):
        assert parse_squid_line(SQUID_LINES[1]).cache_hit

    def test_squid_malformed(self):
        assert parse_squid_line("utterly corrupt line") is None
        assert parse_squid_line(SQUID_LINES[-1]) is None
        assert parse_squid_line("") is None

    @pytest.mark.parametrize("value", ["nan", "inf", "NaN", "Infinity"])
    @pytest.mark.parametrize("field", [0, 1], ids=["timestamp", "elapsed"])
    def test_squid_non_finite_fields_are_malformed(self, field, value):
        parts = SQUID_LINES[0].split()
        parts[field] = value
        assert parse_squid_line(" ".join(parts)) is None

    def test_clf_well_formed(self):
        record = parse_clf_line(CLF_LINES[0])
        assert record.client == "192.168.7.2"
        assert record.method == "GET"
        assert record.url == "/v/one.rm"
        assert record.status == 200
        assert record.size_bytes == 1048576
        assert record.elapsed_ms is None
        assert not record.cache_hit
        assert record.server_host == ""

    def test_clf_combined_and_dash_size(self):
        assert parse_clf_line(CLF_LINES[1]).size_bytes == 2097152
        assert parse_clf_line(CLF_LINES[2]).size_bytes == 0

    def test_clf_timestamp_timezone(self):
        # 09:00:01 -0500 == 14:00:01 UTC
        record = parse_clf_line(CLF_LINES[0])
        assert int(record.timestamp) % 86400 == 14 * 3600 + 1

    def test_clf_malformed(self):
        assert parse_clf_line("not a clf line at all") is None
        assert parse_clf_line(SQUID_LINES[0]) is None


class TestDetection:
    def test_detects_squid(self, squid_log):
        assert detect_log_format(squid_log) == "squid"

    def test_detects_clf(self, clf_log):
        assert detect_log_format(clf_log) == "clf"

    def test_undetectable_raises(self, tmp_path):
        path = tmp_path / "noise.log"
        path.write_text("nothing\nparseable\nhere\n")
        with pytest.raises(TraceFormatError):
            detect_log_format(path)

    def test_unknown_format_rejected(self, squid_log):
        with pytest.raises(ConfigurationError):
            ingest_access_log(squid_log, log_format="w3c")


class TestIngestSquid:
    def test_summary_and_filtering(self, squid_log):
        result = ingest_access_log(squid_log)
        summary = result.summary
        assert summary.log_format == "squid"
        assert summary.lines_malformed == 2
        assert summary.records_parsed == 7
        assert summary.records_filtered == 2  # POST + 404
        assert summary.requests == 5
        assert summary.unique_objects == 2
        assert summary.unique_servers == 2
        assert summary.unique_clients == 3
        assert summary.out_of_order == 1

    def test_trace_is_sorted_columnar_starting_at_zero(self, squid_log):
        result = ingest_access_log(squid_log)
        trace = result.trace
        assert isinstance(trace, ColumnarTrace)
        assert trace.start_time == 0.0
        assert np.all(np.diff(trace.times_array) >= 0)
        # the out-of-order completion was sorted into place
        assert trace.object_ids_array.tolist()[:2] == [0, 1]

    def test_object_sizes_track_largest_transfer(self, squid_log):
        result = ingest_access_log(squid_log)
        object_id = result.url_ids["http://media.bu.edu/a.rm"]
        assert result.object_sizes_kb[object_id] == pytest.approx(2457600 / 1024.0)

    def test_hits_can_be_excluded(self, squid_log):
        result = ingest_access_log(squid_log, include_hits=False)
        assert result.summary.requests == 4
        assert not result.request_hits.any()

    def test_catalog_and_workload(self, squid_log):
        result = ingest_access_log(squid_log)
        workload = result.to_workload(bitrate=48.0)
        assert len(workload.catalog) == 2
        obj = workload.catalog.get(result.url_ids["http://media.bu.edu/a.rm"])
        assert obj.bitrate == 48.0
        assert obj.duration == pytest.approx(2457600 / 1024.0 / 48.0)
        assert workload.trace is result.trace

    def test_transfer_records_feed_the_analyzer(self, squid_log):
        result = ingest_access_log(squid_log)
        records = result.to_transfer_records()
        assert len(records) == len(result.trace)
        analysis = ProxyLogAnalyzer(min_object_kb=200.0).analyze(records)
        # 4 misses above 200 KB with known durations
        assert analysis.samples.size == 4
        assert float(analysis.samples.max()) > 0

    def test_analyze_access_log_bridge(self, squid_log):
        analysis = analyze_access_log(squid_log)
        distribution = analysis.to_distribution()
        rng = np.random.default_rng(0)
        assert distribution.sample(8, rng).shape == (8,)


class TestIngestClf:
    def test_summary(self, clf_log):
        result = ingest_access_log(clf_log)
        summary = result.summary
        assert summary.log_format == "clf"
        assert summary.lines_malformed == 1
        # HEAD (method) and 500 (status) filtered
        assert summary.records_filtered == 2
        assert summary.requests == 3
        assert summary.unique_servers == 1  # path-only URLs share one origin
        assert summary.out_of_order == 0

    def test_clf_records_carry_no_duration(self, clf_log):
        result = ingest_access_log(clf_log)
        assert np.all(result.request_durations_s == 0.0)
        with pytest.raises(ConfigurationError):
            # No record survives the analyzer's throughput filter.
            ProxyLogAnalyzer().analyze(result.to_transfer_records())


class TestEndToEnd:
    def test_ingested_workload_runs_through_compare_policies(self, squid_log):
        result = ingest_access_log(squid_log)
        workload = result.to_workload()
        config = SimulationConfig(
            cache_size_gb=0.5 * workload.catalog.total_size_gb, seed=0
        )
        comparison = compare_policies(
            workload,
            {name: PolicySpec(name) for name in ("PB", "IB")},
            config,
            num_runs=1,
        )
        assert set(comparison.policies()) == {"PB", "IB"}
        for metrics in comparison.metrics_by_policy.values():
            assert metrics.requests > 0

    def test_empty_after_filters_is_usable_but_not_simulatable(self, tmp_path):
        path = tmp_path / "posts.log"
        path.write_text(SQUID_LINES[5] + "\n")
        result = ingest_access_log(path)
        assert len(result.trace) == 0
        with pytest.raises(ConfigurationError):
            result.build_catalog()

    def test_nothing_parseable_raises(self, tmp_path):
        path = tmp_path / "junk.log"
        path.write_text("junk\nmore junk\n")
        with pytest.raises(TraceFormatError):
            ingest_access_log(path, log_format="squid")


class TestCli:
    def test_ingest_prints_summary_and_writes_npz(self, squid_log, tmp_path, capsys):
        out = tmp_path / "trace.npz"
        exit_code = cli_main(
            ["ingest", str(squid_log), "--out", str(out)]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "requests: 5" in captured
        assert out.exists()
        assert len(ColumnarTrace.from_npz(out)) == 5

    def test_non_finite_line_counts_against_max_errors(self, tmp_path, capsys):
        lines = list(SQUID_LINES[:5])
        lines[2] = "nan" + lines[2][len("987654322.000"):]
        log = tmp_path / "access.log"
        log.write_text("\n".join(lines) + "\n")
        out = tmp_path / "trace.npz"
        exit_code = cli_main(
            ["ingest", str(log), "--out", str(out), "--max-errors", "0"]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.startswith("error: ") and "line 3: nan" in captured.err
        assert not out.exists()
        assert list(tmp_path.iterdir()) == [log]

    def test_ingest_compare_runs_policies(self, squid_log, capsys):
        exit_code = cli_main(
            ["ingest", str(squid_log), "--compare", "--policies", "PB,IB", "--runs", "1"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "compare_policies on ingested workload" in captured
        assert "PB" in captured and "IB" in captured

    def test_bundled_sample_logs_ingest(self, capsys):
        from pathlib import Path

        repo_root = Path(__file__).resolve().parent.parent
        for sample in ("sample_squid.log", "sample_clf.log"):
            exit_code = cli_main(["ingest", str(repo_root / "examples/data" / sample)])
            assert exit_code == 0
        assert "requests:" in capsys.readouterr().out
