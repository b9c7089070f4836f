"""The request row and the CSV trace format.

A :class:`Request` is one client request for one streaming media object at a
point in time: the row a :class:`~repro.trace.columnar.ColumnarTrace` yields
when iterated or indexed.  :data:`TRACE_CSV_FIELDS` and
:func:`iter_csv_rows` define the CSV format traces are archived in
alongside experiment results.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Tuple, Union

from repro.exceptions import ConfigurationError, TraceFormatError

#: Column order of the CSV trace format of
#: :class:`repro.trace.columnar.ColumnarTrace`.
TRACE_CSV_FIELDS: Tuple[str, str, str] = ("time", "object_id", "client_id")

#: Bounds of the id columns' dtypes: ``int64`` object ids, ``int32`` client ids.
_INT64_MAX = 2**63 - 1
_INT32_MAX = 2**31 - 1


def iter_csv_rows(path: Union[str, Path]) -> Iterator[Tuple[float, int, int]]:
    """Stream validated ``(time, object_id, client_id)`` rows from a CSV trace.

    Rows are parsed and validated one at a time — malformed numeric fields,
    ids outside their column's integer range, non-finite or negative times,
    and out-of-order timestamps all raise
    :class:`~repro.exceptions.TraceFormatError` carrying the offending line
    number, *without* first materializing the rest of the file.
    """
    path = Path(path)
    with path.open("r", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(header) != TRACE_CSV_FIELDS:
            raise TraceFormatError(
                f"{path}: expected header {TRACE_CSV_FIELDS}, got {header}"
            )
        previous_time: float = -math.inf
        for line_number, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                time = float(row[0])
                object_id = int(row[1])
                client_id = int(row[2])
            except (ValueError, IndexError) as exc:
                raise TraceFormatError(f"{path}:{line_number}: bad row {row!r}") from exc
            if not -_INT64_MAX - 1 <= object_id <= _INT64_MAX:
                raise TraceFormatError(
                    f"{path}:{line_number}: object_id {object_id} does not fit int64"
                )
            if not -_INT32_MAX - 1 <= client_id <= _INT32_MAX:
                raise TraceFormatError(
                    f"{path}:{line_number}: client_id {client_id} does not fit int32"
                )
            if not math.isfinite(time) or time < 0:
                raise TraceFormatError(
                    f"{path}:{line_number}: time must be finite and non-negative, "
                    f"got {row[0]!r}"
                )
            if time < previous_time:
                raise TraceFormatError(
                    f"{path}:{line_number}: time {time} decreases "
                    f"(previous request at {previous_time})"
                )
            previous_time = time
            yield time, object_id, client_id


@dataclass(frozen=True)
class Request:
    """A single request in a workload trace.

    Attributes
    ----------
    time:
        Arrival time in seconds from the start of the trace.
    object_id:
        Id of the requested media object (must exist in the catalog).
    client_id:
        Identifier of the requesting client; the paper assumes a homogeneous
        client cloud behind the proxy, so most experiments use a single id.
    """

    time: float
    object_id: int
    client_id: int = 0

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigurationError(f"request time must be non-negative, got {self.time}")
