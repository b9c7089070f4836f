"""Access-log ingestion: real proxy logs in, columnar traces out.

The paper evaluates its policies on synthetic GISMO workloads; this module
opens the complementary path of driving the simulator from **real** proxy
access logs.  Two formats are supported, streaming line-by-line (the whole
file is never held in memory — only the accumulated columns are):

* **Squid native** ``access.log`` —
  ``time elapsed client code/status bytes method URL user hierarchy type``,
* **Common/Combined Log Format (CLF)** —
  ``host ident user [timestamp] "METHOD url PROTO" status bytes ...``
  (trailing referrer/user-agent fields of the combined format are ignored).

:func:`ingest_access_log` parses a log, filters by HTTP method and status,
maps URLs / clients / origin hosts to dense integer ids (first-seen order),
stably sorts the surviving requests by timestamp (real logs record
*completion* times, which interleave), and returns an :class:`IngestResult`
holding a :class:`~repro.trace.columnar.ColumnarTrace`, a catalog-sizing
summary, and enough per-request detail to either

* build a simulation-ready :class:`~repro.workload.gismo.Workload`
  (:meth:`IngestResult.to_workload` — object sizes from the largest
  observed transfer, durations derived from a CBR bitrate), or
* feed the Section 3.1 bandwidth analysis
  (:meth:`IngestResult.to_transfer_records` →
  :class:`~repro.network.loganalysis.ProxyLogAnalyzer`) as an alternative
  substrate to :class:`~repro.network.loganalysis.SyntheticProxyLog`.
"""

from __future__ import annotations

import re
from array import array
from contextlib import closing
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from itertools import islice
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ConfigurationError, TraceFormatError
from repro.network.loganalysis import TransferRecord
from repro.trace.columnar import ColumnarTrace
from repro.units import DEFAULT_BITRATE_KBPS
from repro.workload.catalog import Catalog, MediaObject

#: Formats understood by the ingest pipeline ("auto" probes the file).
LOG_FORMATS = ("squid", "clf")

#: Smallest object size (KB) assumed when a log only shows tiny/zero
#: transfers for a URL; keeps derived durations strictly positive.
MIN_OBJECT_KB = 1.0


@dataclass(frozen=True)
class AccessLogRecord:
    """One parsed access-log line, normalised across formats.

    Attributes
    ----------
    timestamp:
        Completion time in seconds since the Unix epoch.
    client:
        Requesting client address (as logged).
    method:
        HTTP method, upper-cased.
    url:
        Requested URL (absolute for proxy logs, path-only for CLF).
    status:
        HTTP status code.
    size_bytes:
        Bytes transferred to the client.
    elapsed_ms:
        Transfer duration in milliseconds (Squid only; ``None`` for CLF).
    cache_code:
        Squid cache result code, e.g. ``TCP_MISS`` (``None`` for CLF).
    """

    timestamp: float
    client: str
    method: str
    url: str
    status: int
    size_bytes: int
    elapsed_ms: Optional[float] = None
    cache_code: Optional[str] = None

    @property
    def cache_hit(self) -> bool:
        """Whether the proxy served the object itself (Squid ``*_HIT`` codes)."""
        return self.cache_code is not None and "HIT" in self.cache_code

    @property
    def server_host(self) -> str:
        """Origin host of the URL ('' for path-only CLF requests)."""
        return _url_host(self.url)


_URL_HOST_RE = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*://(?P<host>[^/?#:]+)")


def _url_host(url: str) -> str:
    """Lower-cased origin host of ``url`` ('' for a path-only URL)."""
    match = _URL_HOST_RE.match(url)
    return match.group("host").lower() if match else ""


_INF = float("inf")

#: One parsed line as a plain tuple, in :class:`AccessLogRecord` field
#: order: ``(timestamp, client, method, url, status, size_bytes,
#: elapsed_ms, cache_code)``.  Each format has one row parser returning
#: these; :func:`ingest_access_log` unpacks them, and only the public
#: wrappers build an :class:`AccessLogRecord` from one.
_Row = Tuple[float, str, str, str, int, int, Optional[float], Optional[str]]

#: CLF / Combined Log Format; trailing combined fields are ignored.  Every
#: numeric field is ASCII digits, of fixed width but for the size (``\d``
#: would also match other scripts' digits, which ``int()`` then reads), and
#: the bracketed timestamp is exactly ``dd/Mon/yyyy:hh:mm:ss +zzzz``.
_CLF_RE = re.compile(
    r"^(?P<host>\S+)\s+(?P<ident>\S+)\s+(?P<user>\S+)\s+"
    r"\[(?P<day>[0-9]{2})/(?P<month>[A-Za-z]{3})/(?P<year>[0-9]{4})"
    r":(?P<hour>[0-9]{2}):(?P<minute>[0-9]{2}):(?P<second>[0-9]{2})"
    r" (?P<sign>[+-])(?P<offset_hours>[0-9]{2})(?P<offset_minutes>[0-9]{2})\]\s+"
    r'"(?P<method>[A-Za-z]+)\s+(?P<url>\S+)(?:\s+(?P<protocol>[^"]*))?"\s+'
    r"(?P<status>[0-9]{3})\s+(?P<size>[0-9]+|-)(?:\s|$)"
)

#: CLF month abbreviations, mapped explicitly so parsing is independent of
#: the process locale (strptime's ``%b`` is locale-dependent).
_CLF_MONTHS = {
    "Jan": 1, "Feb": 2, "Mar": 3, "Apr": 4, "May": 5, "Jun": 6,
    "Jul": 7, "Aug": 8, "Sep": 9, "Oct": 10, "Nov": 11, "Dec": 12,
}


def _squid_row(line: str) -> Optional[_Row]:
    """Parse one Squid native line into a row tuple; ``None`` if malformed."""
    # Only the first seven fields are read, so the rest stays unsplit.
    parts = line.split(None, 7)
    if len(parts) < 7:
        return None
    stamp, elapsed, client, code_status, size, method, url = parts[:7]
    code, _, status = code_status.partition("/")
    # float() and int() would also read "1_000", "+5", "1e3", "nan" and
    # other scripts' digits: each number must be ASCII digits, the two
    # times with at most one ".".
    if not (
        stamp.isascii() and stamp.replace(".", "", 1).isdigit()
        and elapsed.isascii() and elapsed.replace(".", "", 1).isdigit()
        and status.isascii() and status.isdigit()
        and size.isascii() and size.isdigit()
    ):
        return None
    timestamp = float(stamp)
    elapsed_ms = float(elapsed)
    # Only a digit string too long for a double reads as infinity.
    if timestamp == _INF or elapsed_ms == _INF:
        return None
    return (
        timestamp, client, method.upper(), url, int(status), int(size),
        elapsed_ms, code,
    )


def _clf_row(line: str) -> Optional[_Row]:
    """Parse one Common/Combined Log Format line into a row tuple;
    ``None`` if malformed."""
    match = _CLF_RE.match(line)
    if match is None:
        return None
    month = _CLF_MONTHS.get(match["month"])
    if month is None:
        return None
    offset = timedelta(
        hours=int(match["offset_hours"]), minutes=int(match["offset_minutes"])
    )
    try:
        moment = datetime(
            int(match["year"]), month, int(match["day"]),
            int(match["hour"]), int(match["minute"]), int(match["second"]),
            tzinfo=timezone(-offset if match["sign"] == "-" else offset),
        )
    except ValueError:  # a day, hour or offset out of range
        return None
    size = match["size"]
    return (
        moment.timestamp(), match["host"], match["method"].upper(), match["url"],
        int(match["status"]), 0 if size == "-" else int(size), None, None,
    )


#: The row parser of each log format.
_ROW_PARSERS = {"squid": _squid_row, "clf": _clf_row}


def parse_squid_line(line: str) -> Optional[AccessLogRecord]:
    """Parse one Squid native ``access.log`` line; ``None`` if malformed."""
    row = _squid_row(line)
    return None if row is None else AccessLogRecord(*row)


def parse_clf_line(line: str) -> Optional[AccessLogRecord]:
    """Parse one Common/Combined Log Format line; ``None`` if malformed."""
    row = _clf_row(line)
    return None if row is None else AccessLogRecord(*row)


def _log_lines(path: Union[str, Path]) -> Iterator[Tuple[int, str]]:
    """Yield ``(line_number, stripped line)`` for each line of a log that is
    neither blank nor a ``#`` comment.

    The one line-reading loop of this module: detection, record iteration
    and ingestion all read through it, so they number and skip lines alike.
    """
    with Path(path).open("r", errors="replace") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if line and line[0] != "#":
                yield line_number, line


def _row_parser(path: Union[str, Path], log_format: str):
    """Resolve ``log_format`` (probing ``path`` for ``"auto"``) to its name
    and row parser."""
    if log_format == "auto":
        log_format = detect_log_format(path)
    try:
        return log_format, _ROW_PARSERS[log_format]
    except KeyError:
        raise ConfigurationError(
            f"unknown log format {log_format!r}; expected 'auto' or one of {LOG_FORMATS}"
        ) from None


def detect_log_format(path: Union[str, Path], probe_lines: int = 50) -> str:
    """Guess the log format by parsing the first ``probe_lines`` lines.

    The format whose parser accepts the most probed lines wins; a file no
    parser accepts at all raises :class:`~repro.exceptions.TraceFormatError`.
    """
    scores = {name: 0 for name in LOG_FORMATS}
    probed = 0
    with closing(_log_lines(path)) as lines:
        for _, line in islice(lines, probe_lines):
            probed += 1
            for name, parse_row in _ROW_PARSERS.items():
                if parse_row(line) is not None:
                    scores[name] += 1
    best = max(LOG_FORMATS, key=scores.__getitem__)
    if probed == 0 or scores[best] == 0:
        raise TraceFormatError(
            f"{path}: could not detect log format "
            f"(no line parsed as any of {LOG_FORMATS})"
        )
    return best


def iter_access_records(
    path: Union[str, Path], log_format: str = "auto", include_text: bool = False
) -> Iterator[Tuple]:
    """Stream ``(line_number, record-or-None)`` pairs from an access log.

    ``None`` marks a malformed line so callers can count (rather than crash
    on) the occasional corrupt entry real logs contain.  Blank lines and
    ``#`` comments are skipped entirely.  With ``include_text`` the pairs
    become ``(line_number, record-or-None, stripped_line)`` triples, so a
    caller reporting malformed lines can quote the offending text without
    re-reading the file.
    """
    _, parse_row = _row_parser(path, log_format)
    with closing(_log_lines(path)) as lines:
        for line_number, line in lines:
            row = parse_row(line)
            record = None if row is None else AccessLogRecord(*row)
            if include_text:
                yield line_number, record, line
            else:
                yield line_number, record


#: How many malformed lines :func:`ingest_access_log` quotes verbatim in the
#: summary (and in the ``max_errors`` abort message) before just counting.
MALFORMED_SAMPLE_LIMIT = 5


@dataclass
class IngestSummary:
    """Catalog-sizing and hygiene statistics of one ingested log."""

    log_format: str
    lines_total: int = 0
    lines_malformed: int = 0
    records_parsed: int = 0
    records_filtered: int = 0
    requests: int = 0
    out_of_order: int = 0
    unique_objects: int = 0
    unique_clients: int = 0
    unique_servers: int = 0
    total_kb: float = 0.0
    unique_kb: float = 0.0
    trace_duration_s: float = 0.0
    start_timestamp: float = 0.0
    end_timestamp: float = 0.0
    #: First few malformed lines, as ``"line N: <text>"`` (text truncated) —
    #: enough to diagnose a bad log without grepping it.
    malformed_samples: Tuple[str, ...] = ()

    def as_dict(self) -> Dict[str, float]:
        """Flatten into a printable/serialisable dictionary."""
        return {
            "log_format": self.log_format,
            "lines_total": self.lines_total,
            "lines_malformed": self.lines_malformed,
            "malformed_samples": list(self.malformed_samples),
            "records_parsed": self.records_parsed,
            "records_filtered": self.records_filtered,
            "requests": self.requests,
            "out_of_order": self.out_of_order,
            "unique_objects": self.unique_objects,
            "unique_clients": self.unique_clients,
            "unique_servers": self.unique_servers,
            "total_gb": self.total_kb / 1024.0 / 1024.0,
            "unique_gb": self.unique_kb / 1024.0 / 1024.0,
            "trace_duration_s": self.trace_duration_s,
        }


@dataclass
class IngestResult:
    """Everything produced by :func:`ingest_access_log`."""

    trace: ColumnarTrace
    summary: IngestSummary
    #: URL → object id, in first-seen order.
    url_ids: Dict[str, int]
    #: Client address → client id, in first-seen order.
    client_ids: Dict[str, int]
    #: Origin host → server id, in first-seen order ('' for host-less CLF).
    server_ids: Dict[str, int]
    #: Largest observed transfer size per object id (KB).
    object_sizes_kb: np.ndarray
    #: Origin server id per object id.
    object_servers: np.ndarray
    #: Per-request transfer size (KB), aligned with the trace.
    request_sizes_kb: np.ndarray = field(repr=False, default=None)
    #: Per-request duration (s; 0 when the format does not record it).
    request_durations_s: np.ndarray = field(repr=False, default=None)
    #: Per-request cache-hit flag (always False for CLF).
    request_hits: np.ndarray = field(repr=False, default=None)

    def build_catalog(
        self,
        bitrate: float = DEFAULT_BITRATE_KBPS,
        value: float = 1.0,
        layers: int = 4,
    ) -> Catalog:
        """Derive a media catalog from the observed objects.

        Each URL becomes one CBR object whose size is the largest transfer
        observed for it (floored at ``MIN_OBJECT_KB``) and whose duration is
        ``size / bitrate`` — the same ``T_i * r_i`` identity the synthetic
        catalog uses, so the policies' size/bandwidth arithmetic carries
        over unchanged.
        """
        if not self.url_ids:
            raise ConfigurationError("ingested log contains no usable requests")
        objects = []
        for object_id in range(len(self.url_ids)):
            size_kb = max(float(self.object_sizes_kb[object_id]), MIN_OBJECT_KB)
            objects.append(
                MediaObject(
                    object_id=object_id,
                    duration=size_kb / bitrate,
                    bitrate=bitrate,
                    server_id=int(self.object_servers[object_id]),
                    value=value,
                    layers=layers,
                )
            )
        return Catalog(objects)

    def to_workload(
        self,
        bitrate: float = DEFAULT_BITRATE_KBPS,
        value: float = 1.0,
        layers: int = 4,
    ):
        """Package the trace + derived catalog as a simulation-ready workload."""
        # Imported lazily: repro.workload.gismo is a consumer of this
        # package (columnar generation), so a top-level import would cycle.
        from repro.workload.gismo import Workload, WorkloadConfig

        catalog = self.build_catalog(bitrate=bitrate, value=value, layers=layers)
        config = WorkloadConfig(
            num_objects=len(catalog),
            num_requests=max(len(self.trace), 1),
            num_servers=max(self.summary.unique_servers, 1),
            bitrate=bitrate,
        )
        return Workload(catalog=catalog, trace=self.trace, config=config)

    def to_transfer_records(self) -> List[TransferRecord]:
        """Adapt the ingested requests for the Section 3.1 bandwidth analysis.

        Returns records consumable by
        :class:`~repro.network.loganalysis.ProxyLogAnalyzer` — an
        alternative substrate to
        :class:`~repro.network.loganalysis.SyntheticProxyLog`.  CLF logs
        carry no transfer duration, so their records have ``duration_s=0``
        and are discarded by the analyzer's throughput filter.
        """
        times = self.trace.times_array.tolist()
        object_ids = self.trace.object_ids_array.tolist()
        sizes = self.request_sizes_kb.tolist()
        durations = self.request_durations_s.tolist()
        hits = self.request_hits.tolist()
        return [
            TransferRecord(
                timestamp=times[i],
                server_id=int(self.object_servers[object_ids[i]]),
                size_kb=sizes[i],
                duration_s=durations[i],
                cache_hit=hits[i],
            )
            for i in range(len(times))
        ]


def ingest_access_log(
    path: Union[str, Path],
    log_format: str = "auto",
    methods: Optional[Sequence[str]] = ("GET",),
    status_range: Tuple[int, int] = (100, 399),
    include_hits: bool = True,
    max_errors: Optional[int] = None,
) -> IngestResult:
    """Stream an access log into a columnar trace plus sizing summary.

    Parameters
    ----------
    path:
        The log file.  Read line-by-line; never loaded whole.
    log_format:
        ``"squid"``, ``"clf"``, or ``"auto"`` to probe the first lines.
    methods:
        HTTP methods to keep (upper-cased); ``None`` keeps every method.
    status_range:
        Inclusive ``(low, high)`` range of HTTP status codes to keep — the
        default drops errors (4xx/5xx) which carry no object payload.
    include_hits:
        When False, Squid ``*_HIT`` records are filtered out, leaving the
        miss stream (what the origin servers actually saw).
    max_errors:
        Abort with :class:`~repro.exceptions.TraceFormatError` as soon as
        more than this many lines fail to parse (``None`` tolerates any
        number).  Either way malformed lines are counted, and the first
        few are quoted in ``summary.malformed_samples``, so a slightly
        corrupt multi-gigabyte log ingests with a warning rather than a
        crash while a wrong ``log_format`` still fails fast.
    """
    if max_errors is not None and max_errors < 0:
        raise ConfigurationError(f"max_errors must be non-negative, got {max_errors}")
    log_format, parse_row = _row_parser(path, log_format)
    method_set = None if methods is None else {m.upper() for m in methods}
    low_status, high_status = status_range

    timestamps = array("d")
    object_column = array("q")
    client_column = array("l")
    size_column = array("d")
    duration_column = array("d")
    hit_flags = array("b")

    url_ids: Dict[str, int] = {}
    client_ids: Dict[str, int] = {}
    server_ids: Dict[str, int] = {}
    object_sizes: List[float] = []
    object_servers: List[int] = []

    malformed = 0
    filtered = 0
    malformed_samples: List[str] = []
    with closing(_log_lines(path)) as lines:
        for line_number, line in lines:
            row = parse_row(line)
            if row is None:
                malformed += 1
                if len(malformed_samples) < MALFORMED_SAMPLE_LIMIT:
                    text = line if len(line) <= 120 else line[:117] + "..."
                    malformed_samples.append(f"line {line_number}: {text}")
                if max_errors is not None and malformed > max_errors:
                    raise TraceFormatError(
                        f"{path}: more than {max_errors} malformed {log_format} "
                        f"line(s); first offenders: "
                        + "; ".join(malformed_samples)
                    )
                continue
            timestamp, client, method, url, status, size_bytes, elapsed_ms, code = row
            hit = code is not None and "HIT" in code
            if (
                (method_set is not None and method not in method_set)
                or not low_status <= status <= high_status
                or (hit and not include_hits)
            ):
                filtered += 1
                continue

            size_kb = size_bytes / 1024.0
            object_id = url_ids.get(url)
            if object_id is None:
                object_id = len(url_ids)
                url_ids[url] = object_id
                host = _url_host(url)
                object_servers.append(server_ids.setdefault(host, len(server_ids)))
                object_sizes.append(size_kb)
            elif size_kb > object_sizes[object_id]:
                object_sizes[object_id] = size_kb
            client_id = client_ids.get(client)
            if client_id is None:
                client_id = client_ids[client] = len(client_ids)

            timestamps.append(timestamp)
            object_column.append(object_id)
            client_column.append(client_id)
            size_column.append(size_kb)
            duration_column.append(0.0 if elapsed_ms is None else elapsed_ms / 1000.0)
            hit_flags.append(hit)

    requests = len(timestamps)
    summary = IngestSummary(
        log_format=log_format,
        lines_total=malformed + filtered + requests,
        lines_malformed=malformed,
        records_parsed=filtered + requests,
        records_filtered=filtered,
        malformed_samples=tuple(malformed_samples),
    )
    if summary.lines_total and not summary.records_parsed:
        raise TraceFormatError(
            f"{path}: no line parsed as {log_format} format "
            f"({summary.lines_malformed} malformed)"
        )

    times = np.asarray(timestamps, dtype=np.float64)
    object_arr = np.asarray(object_column, dtype=np.int64)
    client_arr = np.asarray(client_column, dtype=np.int32)
    sizes_arr = np.asarray(size_column, dtype=np.float64)
    durations_arr = np.asarray(duration_column, dtype=np.float64)
    hits_arr = np.asarray(hit_flags, dtype=bool)

    # Real logs record completion times, which interleave across concurrent
    # transfers; a stable sort restores request order without disturbing
    # ties.
    if times.size:
        summary.out_of_order = int(np.sum(np.diff(times) < 0))
        if summary.out_of_order:
            order = np.argsort(times, kind="stable")
            times = times[order]
            object_arr = object_arr[order]
            client_arr = client_arr[order]
            sizes_arr = sizes_arr[order]
            durations_arr = durations_arr[order]
            hits_arr = hits_arr[order]
        summary.start_timestamp = float(times[0])
        summary.end_timestamp = float(times[-1])
        times = times - times[0]

    trace = ColumnarTrace(times, object_arr, client_arr)
    summary.requests = len(trace)
    summary.unique_objects = len(url_ids)
    summary.unique_clients = len(client_ids)
    summary.unique_servers = len(server_ids)
    summary.total_kb = float(sizes_arr.sum()) if sizes_arr.size else 0.0
    summary.unique_kb = float(sum(object_sizes))
    summary.trace_duration_s = trace.duration

    return IngestResult(
        trace=trace,
        summary=summary,
        url_ids=url_ids,
        client_ids=client_ids,
        server_ids=server_ids,
        object_sizes_kb=np.asarray(object_sizes, dtype=np.float64),
        object_servers=np.asarray(object_servers, dtype=np.int64),
        request_sizes_kb=sizes_arr,
        request_durations_s=durations_arr,
        request_hits=hits_arr,
    )
