"""Columnar trace subsystem: numpy-native traces and real access-log
ingestion.

Two modules:

* :mod:`repro.trace.columnar` — :class:`ColumnarTrace`, the one trace
  type every workload carries: a request trace stored as parallel numpy
  arrays, with zero-copy slicing, CSV/``.npz`` round-trips, and multi-day
  segment stitching (:meth:`ColumnarTrace.concat`, ``repro ingest
  --append``),
* :mod:`repro.trace.ingest` — streaming Squid / Common-Log-Format access
  log adapters that emit columnar traces, simulation-ready workloads, and
  :class:`~repro.network.loganalysis.ProxyLogAnalyzer` substrates.

See ``docs/traces.md`` for the formats and how traces reach worker
processes.
"""

from repro.trace.columnar import COLUMN_DTYPES, ColumnarTrace
from repro.trace.ingest import (
    LOG_FORMATS,
    AccessLogRecord,
    IngestResult,
    IngestSummary,
    detect_log_format,
    ingest_access_log,
    iter_access_records,
    parse_clf_line,
    parse_squid_line,
)

__all__ = [
    "COLUMN_DTYPES",
    "AccessLogRecord",
    "ColumnarTrace",
    "IngestResult",
    "IngestSummary",
    "LOG_FORMATS",
    "detect_log_format",
    "ingest_access_log",
    "iter_access_records",
    "parse_clf_line",
    "parse_squid_line",
]
