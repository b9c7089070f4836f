"""Access-log ingestion: Squid/CLF parsing, filtering, and end-to-end use.

Covers the satellite fixtures the issue asks for — well-formed and
malformed Squid and CLF lines — plus the acceptance path: a sample log
ingests into a columnar trace that runs through ``compare_policies``.
"""

import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

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

#: Size tokens a log line can carry that are not a plain byte count:
#: each line holding one is malformed.
GARBLED_SIZES = ["12abc", "1e400", "5.5", "0x10", "100garbage", "1_000", "+5", "٣٣"]


def _with_size(parser, token: str) -> str:
    """A well-formed line of ``parser``'s format with its size token replaced."""
    if parser is parse_squid_line:
        parts = SQUID_LINES[0].split()
        parts[4] = token
        return " ".join(parts)
    # The combined line: the size is followed by the referer and agent.
    return CLF_LINES[1].replace(" 2097152 ", f" {token} ")


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
        for token in GARBLED_SIZES:
            assert parse_squid_line(_with_size(parse_squid_line, token)) is None, token

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
        for token in GARBLED_SIZES + ["-abc"]:
            assert parse_clf_line(_with_size(parse_clf_line, token)) is None, token
        assert parse_clf_line(CLF_LINES[0] + "garbage") is None

    @settings(max_examples=200, deadline=None)
    @given(
        token=st.one_of(
            st.from_regex(r"[0-9]{1,30}", fullmatch=True),
            st.just("-"),
            st.text(st.characters().filter(lambda c: not c.isspace()), min_size=1),
        ),
        parser=st.sampled_from([parse_squid_line, parse_clf_line]),
    )
    def test_size_token_is_read_only_when_ascii_digits(self, token, parser):
        record = parser(_with_size(parser, token))
        if token.isascii() and token.isdigit():
            assert record.size_bytes == int(token)
        elif token == "-" and parser is parse_clf_line:
            assert record.size_bytes == 0
        else:
            assert record is None


#: Tokens ``float()`` or ``int()`` would read that a numeric log field must
#: not hold: digit separators, signs, exponents, non-finite words, other
#: scripts' digits, and padding.
NUMERIC_TRAPS = [
    "1_0", "+7", "-7", "١٧", "٥٢", "²", "1e3", "nan", "inf", "0x1", "1..2", ".",
    " 7", "7 ", "+200", "2_01", "٢٠٠١", "+05_0", "-٠٥٠٠", "-0500 x", "9" * 400,
]

#: A numeric token: plain digits (with an optional fraction), a trap, or
#: any text without whitespace.
NUMERIC_TOKENS = st.one_of(
    st.from_regex(r"[+-]?[0-9]{1,12}(\.[0-9]{0,4})?", fullmatch=True),
    st.sampled_from(NUMERIC_TRAPS),
    st.text(st.characters().filter(lambda c: not c.isspace()), min_size=1, max_size=6),
)

#: The fields of :data:`CLF_LINES` [0] that hold numbers, with their text.
CLF_NUMBERS = {
    "day": "17", "year": "2001", "hour": "09", "minute": "00", "second": "01",
    "offset": "-0500", "status": "200",
}


def _ascii_digits(token: str, width: int = 0) -> bool:
    return token.isascii() and token.isdigit() and (not width or len(token) == width)


def _clf_line(fields: dict) -> str:
    return (
        f"192.168.7.2 - - [{fields['day']}/Apr/{fields['year']}:{fields['hour']}:"
        f"{fields['minute']}:{fields['second']} {fields['offset']}] "
        f'"GET /v/one.rm HTTP/1.0" {fields["status"]} 1048576'
    )


def _clf_expected_time(fields: dict):
    """The Unix time of ``fields``, or ``None`` where a line holding them
    must be malformed."""
    widths = {"day": 2, "year": 4, "hour": 2, "minute": 2, "second": 2}
    offset = fields["offset"]
    if not (
        all(_ascii_digits(fields[name], width) for name, width in widths.items())
        and offset[:1] in ("+", "-")
        and _ascii_digits(offset[1:], 4)
    ):
        return None
    sign = -1 if offset[0] == "-" else 1
    try:
        zone = timezone(
            sign * timedelta(hours=int(offset[1:3]), minutes=int(offset[3:5]))
        )
        return datetime(
            int(fields["year"]), 4, int(fields["day"]), int(fields["hour"]),
            int(fields["minute"]), int(fields["second"]), tzinfo=zone,
        ).timestamp()
    except ValueError:
        return None


class TestNumericFields:
    """Every numeric field of both formats is read only when it is ASCII
    digits (sizes: ``TestLineParsers``)."""

    def test_clf_sample_line_is_the_numbers_template(self):
        assert _clf_line(CLF_NUMBERS) == CLF_LINES[0]

    @settings(max_examples=300, deadline=None)
    @given(
        field=st.sampled_from(["timestamp", "elapsed", "status"]),
        token=NUMERIC_TOKENS,
    )
    def test_squid_numbers_are_read_only_when_ascii_digits(self, field, token):
        assume(token.split() == [token])  # whitespace separates Squid fields
        parts = SQUID_LINES[0].split()
        if field == "status":
            parts[3] = f"TCP_MISS/{token}"
        else:
            parts[0 if field == "timestamp" else 1] = token
        record = parse_squid_line(" ".join(parts))
        if field == "status":
            if _ascii_digits(token):
                assert record.status == int(token)
            else:
                assert record is None
            return
        # Digits with at most one ".", and short enough to be finite.
        if _ascii_digits(token.replace(".", "", 1)) and float(token) < float("inf"):
            value = record.timestamp if field == "timestamp" else record.elapsed_ms
            assert value == float(token)
        else:
            assert record is None

    @settings(max_examples=300, deadline=None)
    @given(field=st.sampled_from(sorted(CLF_NUMBERS)), token=NUMERIC_TOKENS)
    def test_clf_numbers_are_read_only_when_ascii_digits(self, field, token):
        fields = {**CLF_NUMBERS, field: token}
        record = parse_clf_line(_clf_line(fields))
        if field == "status":
            if _ascii_digits(token, 3):
                assert record.status == int(token)
            else:
                assert record is None
            return
        expected = _clf_expected_time(fields)
        if expected is None:
            assert record is None
        else:
            assert record.timestamp == expected


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

    def test_max_errors_leaves_every_file_as_it_was(self, squid_log, tmp_path, capsys):
        # squid_log holds two malformed lines, so --max-errors 1 trips on
        # the second, after the first good rows were parsed.
        archive = tmp_path / "rolling.npz"
        fresh = tmp_path / "fresh.npz"
        assert cli_main(["ingest", str(squid_log), "--out", str(archive)]) == 0
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        assert sorted(before) == ["access.log", "rolling.npz", "rolling.urls.json"]
        for argv in (
            ["--out", str(fresh)],
            ["--out", str(archive), "--append"],
        ):
            capsys.readouterr()
            exit_code = cli_main(["ingest", str(squid_log), "--max-errors", "1", *argv])
            assert exit_code == 2
            assert "more than 1 malformed" in capsys.readouterr().err
            after = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
            assert after == before

    def test_missing_log_fails_cleanly(self, tmp_path, capsys):
        missing = tmp_path / "missing.log"
        assert cli_main(["ingest", str(missing)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: [Errno 2] No such file or directory: '{missing}'\n"
        )
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_out_in_missing_directory_fails_before_parsing(
        self, squid_log, tmp_path, capsys
    ):
        out = tmp_path / "missing" / "trace.npz"
        assert cli_main(["ingest", str(squid_log), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: --out {out}: directory {out.parent} does not exist\n"
        )
        assert captured.out == ""  # no summary: the log was never parsed
        assert list(tmp_path.iterdir()) == [squid_log]

    def test_non_finite_bitrate_fails_cleanly(self, squid_log, tmp_path, capsys):
        exit_code = cli_main(
            ["ingest", str(squid_log), "--bitrate", "nan", "--compare", "--runs", "1"]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err == (
            "error: object 0: bitrate must be positive and finite, got nan\n"
        )
        assert list(tmp_path.iterdir()) == [squid_log]

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


# ----------------------------------------------------------------------
# The ingest loop against a reference loop over the public line parsers.
# ----------------------------------------------------------------------
_HOSTS = ["media.bu.edu", "CDN.example.net", "stream.uni.edu"]
_PATHS = ["/a.rm", "/b.rm", "/c.mpg", "/d.rm"]


@st.composite
def _squid_log_line(draw):
    kind = draw(st.sampled_from(
        ["ok", "ok", "ok", "hit", "post", "4xx", "malformed", "comment", "blank"]
    ))
    if kind == "comment":
        return "# " + draw(st.text(max_size=8))
    if kind == "blank":
        return draw(st.sampled_from(["", "   "]))
    stamp = f"{draw(st.integers(987654300, 987654400))}.{draw(st.integers(0, 999)):03d}"
    elapsed = str(draw(st.integers(0, 90000)))
    client = f"10.0.0.{draw(st.integers(1, 6))}"
    method = {"post": "POST"}.get(kind, draw(st.sampled_from(["GET", "get", "HEAD"])))
    status = draw(st.sampled_from(["404", "500"])) if kind == "4xx" else "200"
    code = draw(st.sampled_from(["TCP_HIT", "TCP_MEM_HIT"])) if kind == "hit" else "TCP_MISS"
    url = f"http://{draw(st.sampled_from(_HOSTS))}{draw(st.sampled_from(_PATHS))}"
    size = str(draw(st.integers(0, 5_000_000)))
    fields = [stamp, elapsed, client, f"{code}/{status}", size, method, url, "-", "DIRECT/-"]
    if kind == "malformed":
        index = draw(st.sampled_from([0, 1, 3, 4]))
        # A 130-character token makes a line the samples must truncate.
        fields[index] = draw(st.sampled_from(["+5", "1_0", "nan", "x" * 130, "٥"]))
        fields = fields[: draw(st.sampled_from([3, 9]))]
    return " ".join(fields)


@st.composite
def _clf_log_line(draw):
    kind = draw(st.sampled_from(
        ["ok", "ok", "ok", "post", "4xx", "malformed", "comment", "blank"]
    ))
    if kind == "comment":
        return "#" + draw(st.text(max_size=8))
    if kind == "blank":
        return ""
    day = f"{draw(st.integers(16, 18)):02d}"
    clock = ":".join(f"{draw(st.integers(0, 59)):02d}" for _ in range(3))
    stamp = f"{day}/Apr/2001:{clock} {draw(st.sampled_from(['-0500', '+0000', '+0130']))}"
    if kind == "malformed":
        stamp = draw(st.sampled_from(["+7/Apr/2001:09:00:01 -0500", stamp + " x", "garbled"]))
    host = f"192.168.7.{draw(st.integers(1, 6))}"
    method = "POST" if kind == "post" else draw(st.sampled_from(["GET", "HEAD"]))
    url = draw(st.sampled_from(_PATHS + [f"http://{_HOSTS[0]}/e.rm"]))
    status = draw(st.sampled_from(["404", "503"])) if kind == "4xx" else draw(
        st.sampled_from(["200", "304"])
    )
    size = draw(st.sampled_from(["-", str(draw(st.integers(0, 3_000_000)))]))
    return f'{host} - - [{stamp}] "{method} {url} HTTP/1.0" {status} {size}'


def _reference_ingest(path, log_format, methods, include_hits):
    """What :func:`ingest_access_log` must return, from the public line
    parsers' records and plain Python."""
    parse = {"squid": parse_squid_line, "clf": parse_clf_line}[log_format]
    keep = None if methods is None else {method.upper() for method in methods}
    counts = {"lines_total": 0, "lines_malformed": 0, "records_parsed": 0,
              "records_filtered": 0}
    samples, rows = [], []
    url_ids, client_ids, server_ids = {}, {}, {}
    sizes, servers = [], []
    with open(path, errors="replace") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            counts["lines_total"] += 1
            record = parse(line)
            if record is None:
                counts["lines_malformed"] += 1
                if len(samples) < 5:
                    samples.append(f"line {number}: {line[:117] + '...' if len(line) > 120 else line}")
                continue
            counts["records_parsed"] += 1
            if (
                (keep is not None and record.method not in keep)
                or not 100 <= record.status <= 399
                or (not include_hits and record.cache_hit)
            ):
                counts["records_filtered"] += 1
                continue
            if record.url not in url_ids:
                url_ids[record.url] = len(url_ids)
                sizes.append(0.0)
                servers.append(server_ids.setdefault(record.server_host, len(server_ids)))
            object_id = url_ids[record.url]
            size_kb = record.size_bytes / 1024.0
            sizes[object_id] = max(sizes[object_id], size_kb)
            client_id = client_ids.setdefault(record.client, len(client_ids))
            duration = 0.0 if record.elapsed_ms is None else record.elapsed_ms / 1000.0
            rows.append((record.timestamp, object_id, client_id, size_kb, duration,
                         record.cache_hit))
    out_of_order = sum(b[0] < a[0] for a, b in zip(rows, rows[1:]))
    rows.sort(key=lambda row: row[0])  # stable, like the ingest sort
    return {
        "counts": counts,
        "samples": tuple(samples),
        "out_of_order": out_of_order,
        "rows": rows,
        "url_ids": list(url_ids.items()),
        "client_ids": list(client_ids.items()),
        "server_ids": list(server_ids.items()),
        "object_sizes_kb": sizes,
        "object_servers": servers,
        # Summed by numpy in trace order, as the ingest sums its column.
        "total_kb": float(np.array([row[3] for row in rows], dtype=float).sum()),
        "unique_kb": float(sum(sizes)),
    }


class TestIngestMatchesReference:
    @settings(max_examples=120, deadline=None)
    @given(
        log_format=st.sampled_from(["squid", "clf"]),
        data=st.data(),
        methods=st.sampled_from([("GET",), None, ("get", "HEAD")]),
        include_hits=st.booleans(),
    )
    def test_ingest_equals_the_reference_loop(
        self, log_format, data, methods, include_hits
    ):
        line = _squid_log_line() if log_format == "squid" else _clf_log_line()
        lines = data.draw(st.lists(line, max_size=40))
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "access.log"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            expected = _reference_ingest(path, log_format, methods, include_hits)
            try:
                result = ingest_access_log(
                    path, log_format=log_format, methods=methods,
                    include_hits=include_hits,
                )
            except TraceFormatError:
                counts = expected["counts"]
                assert counts["lines_total"] and not counts["records_parsed"]
                return

        summary = result.summary
        assert {name: getattr(summary, name) for name in expected["counts"]} == (
            expected["counts"]
        )
        assert summary.malformed_samples == expected["samples"]
        assert summary.out_of_order == expected["out_of_order"]
        assert list(result.url_ids.items()) == expected["url_ids"]
        assert list(result.client_ids.items()) == expected["client_ids"]
        assert list(result.server_ids.items()) == expected["server_ids"]
        assert result.object_sizes_kb.tolist() == expected["object_sizes_kb"]
        assert result.object_servers.tolist() == expected["object_servers"]

        rows = expected["rows"]
        start = rows[0][0] if rows else 0.0
        trace = result.trace
        assert trace.times_array.tolist() == [row[0] - start for row in rows]
        assert trace.object_ids_array.tolist() == [row[1] for row in rows]
        assert trace.client_ids_array.tolist() == [row[2] for row in rows]
        assert result.request_sizes_kb.tolist() == [row[3] for row in rows]
        assert result.request_durations_s.tolist() == [row[4] for row in rows]
        assert result.request_hits.tolist() == [row[5] for row in rows]
        assert result.request_hits.dtype == bool

        assert summary.requests == len(rows)
        assert summary.unique_objects == len(expected["url_ids"])
        assert summary.unique_clients == len(expected["client_ids"])
        assert summary.unique_servers == len(expected["server_ids"])
        assert summary.total_kb == expected["total_kb"]
        assert summary.unique_kb == expected["unique_kb"]
        assert summary.start_timestamp == start
        assert summary.end_timestamp == (rows[-1][0] if rows else 0.0)
        assert summary.trace_duration_s == (rows[-1][0] - start if rows else 0.0)
