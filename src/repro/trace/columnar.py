"""Columnar request traces backed by parallel numpy arrays.

:class:`ColumnarTrace` is the one trace type: every workload carries one,
and the simulator's replay driver and the parallel sharded replay
(:mod:`repro.analysis.parallel`) consume its arrays directly.  It stores a
request trace as three parallel arrays — ``times`` (float64),
``object_ids`` (int64), ``client_ids`` (int32) — 20 bytes per request,
with zero-copy slicing (slices are numpy views on the parent's buffers).

Iteration and indexing yield :class:`~repro.workload.trace.Request` rows
built from native Python scalars.  The class also provides the
warm-up/measurement ``split``, ``object_ids()`` / ``request_counts()``,
multi-day stitching (:meth:`ColumnarTrace.concat`), and CSV and binary
``.npz`` round-trips.
"""

from __future__ import annotations

import csv
import zipfile
from array import array
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ConfigurationError, TraceFormatError
from repro.workload.trace import TRACE_CSV_FIELDS, Request, iter_csv_rows

#: zlib level of :meth:`ColumnarTrace.to_npz`.  On a 145,656-row trace,
#: level 1 wrote 1,123 kB in 0.07-0.11 s where ``np.savez_compressed``'s
#: level 6 wrote 1,098 kB in 0.35-0.47 s: 2.3% more bytes for about a
#: fifth of the time (``docs/traces.md``).
NPZ_DEFLATE_LEVEL = 1

#: dtypes of the three trace columns, in canonical column order.
COLUMN_DTYPES: Tuple[Tuple[str, np.dtype], ...] = (
    ("times", np.dtype(np.float64)),
    ("object_ids", np.dtype(np.int64)),
    ("client_ids", np.dtype(np.int32)),
)


def _id_column(name: str, values, dtype: np.dtype) -> np.ndarray:
    """``values`` as a ``dtype`` array, refusing any value the cast would change.

    A wrapped or truncated id would silently replay another object or
    client, so an id outside ``dtype``'s range, a fractional or non-finite
    id, and a Python int too large for numpy all raise
    :class:`~repro.exceptions.ConfigurationError` naming the column.
    """
    try:
        raw = np.asarray(values)
        with np.errstate(invalid="ignore"):
            column = raw.astype(dtype, copy=False)
    except (OverflowError, TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"{name}: ids must be {dtype} integers ({exc})"
        ) from exc
    if column is not raw:
        changed = np.flatnonzero(column != raw)
        if changed.size:
            row = int(changed[0])
            raise ConfigurationError(
                f"{name}: row {row} holds {raw.flat[row]}, not an {dtype} id"
            )
    return column


class ColumnarTrace:
    """An ordered request trace stored as parallel numpy arrays.

    Construction validates the columns: times must be finite and
    non-negative and never decrease, and ids must be integers that fit
    their column's dtype, else :class:`~repro.exceptions.ConfigurationError`
    is raised.  ``validate=False`` skips these checks; slices,
    :meth:`client_shard` and :meth:`concat` use it for columns that were
    checked already.
    """

    __slots__ = ("_times", "_object_ids", "_client_ids")

    def __init__(
        self,
        times,
        object_ids,
        client_ids=None,
        *,
        validate: bool = True,
    ):
        times_arr = np.asarray(times, dtype=np.float64)
        if validate:
            ids_arr = _id_column("object_ids", object_ids, np.dtype(np.int64))
        else:
            ids_arr = np.asarray(object_ids, dtype=np.int64)
        if client_ids is None:
            clients_arr = np.zeros(times_arr.size, dtype=np.int32)
        elif validate:
            clients_arr = _id_column("client_ids", client_ids, np.dtype(np.int32))
        else:
            clients_arr = np.asarray(client_ids, dtype=np.int32)
        if times_arr.ndim != 1 or ids_arr.ndim != 1 or clients_arr.ndim != 1:
            raise ConfigurationError("trace columns must be one-dimensional arrays")
        if not (times_arr.size == ids_arr.size == clients_arr.size):
            raise ConfigurationError(
                "trace columns differ in length: "
                f"times={times_arr.size}, object_ids={ids_arr.size}, "
                f"client_ids={clients_arr.size}"
            )
        if validate and times_arr.size:
            # NaN compares False both ways, so finiteness is checked on
            # every time before the order check can be trusted.
            bad = ~np.isfinite(times_arr) | (times_arr < 0)
            if bad.any():
                row = int(np.argmax(bad))
                raise ConfigurationError(
                    f"times: row {row} holds {times_arr[row]}, not a finite "
                    "non-negative request time"
                )
            if times_arr.size > 1 and np.any(np.diff(times_arr) < 0):
                bad = int(np.argmax(np.diff(times_arr) < 0)) + 1
                raise ConfigurationError(
                    "requests must be ordered by non-decreasing time "
                    f"({times_arr[bad]} follows {times_arr[bad - 1]})"
                )
        self._times = times_arr
        self._object_ids = ids_arr
        self._client_ids = clients_arr

    # ------------------------------------------------------------------
    # Raw column access (the simulator replay and the fleet shards).
    # ------------------------------------------------------------------
    @property
    def times_array(self) -> np.ndarray:
        """Arrival times as a float64 array (a view, not a copy)."""
        return self._times

    @property
    def object_ids_array(self) -> np.ndarray:
        """Requested object ids as an int64 array (a view, not a copy)."""
        return self._object_ids

    @property
    def client_ids_array(self) -> np.ndarray:
        """Client ids as an int32 array (a view, not a copy)."""
        return self._client_ids

    # ------------------------------------------------------------------
    # The row protocol: len, iteration and indexing yield Request rows.
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._times.size

    def __iter__(self) -> Iterator[Request]:
        # One batch tolist per column yields native scalars.
        return (
            Request(time=t, object_id=o, client_id=c)
            for t, o, c in zip(
                self._times.tolist(),
                self._object_ids.tolist(),
                self._client_ids.tolist(),
            )
        )

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[Request, "ColumnarTrace"]:
        if isinstance(index, slice):
            # Basic slicing of 1-D arrays is zero-copy: the child trace's
            # columns are views on this trace's buffers.
            return ColumnarTrace(
                self._times[index],
                self._object_ids[index],
                self._client_ids[index],
                validate=False,
            )
        return Request(
            time=self._times[index].item(),
            object_id=self._object_ids[index].item(),
            client_id=self._client_ids[index].item(),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnarTrace):
            return NotImplemented
        return (
            np.array_equal(self._times, other._times)
            and np.array_equal(self._object_ids, other._object_ids)
            and np.array_equal(self._client_ids, other._client_ids)
        )

    def __repr__(self) -> str:
        return f"ColumnarTrace(requests={len(self)}, span={self.duration:.1f}s)"

    @property
    def duration(self) -> float:
        """Time span covered by the trace in seconds."""
        if not self._times.size:
            return 0.0
        return (self._times[-1] - self._times[0]).item()

    @property
    def start_time(self) -> float:
        """Timestamp of the first request (0.0 for an empty trace)."""
        return self._times[0].item() if self._times.size else 0.0

    @property
    def end_time(self) -> float:
        """Timestamp of the last request (0.0 for an empty trace)."""
        return self._times[-1].item() if self._times.size else 0.0

    def object_ids(self) -> List[int]:
        """Distinct object ids referenced by the trace, in first-seen order."""
        return list(dict.fromkeys(self._object_ids.tolist()))

    def request_counts(self) -> Dict[int, int]:
        """Map of object id to number of requests, in first-seen order."""
        counts: Dict[int, int] = {}
        for object_id in self._object_ids.tolist():
            counts[object_id] = counts.get(object_id, 0) + 1
        return counts

    def split(self, fraction: float = 0.5) -> Tuple["ColumnarTrace", "ColumnarTrace"]:
        """Split into (warm-up, measurement) zero-copy views by request count."""
        if not 0.0 <= fraction <= 1.0:
            raise ConfigurationError(f"fraction must be in [0, 1], got {fraction}")
        cut = int(round(fraction * len(self)))
        return self[:cut], self[cut:]

    def client_shard(self, shard: int, num_shards: int) -> "ColumnarTrace":
        """Select the sub-trace of clients with ``client_id % num_shards == shard``.

        Partitions the trace by client affinity — the same modulo rule the
        simulator uses to pin clients to last-mile replicas and hierarchy
        pops — so the union of the ``num_shards`` shards is exactly this
        trace and each client's requests land in exactly one shard.  The
        selection is a boolean-mask fancy index (a compact copy, not a
        view); relative request order within the shard is preserved, so
        the result is still time-ordered.
        """
        if num_shards <= 0:
            raise ConfigurationError(
                f"num_shards must be positive, got {num_shards}"
            )
        if not 0 <= shard < num_shards:
            raise ConfigurationError(
                f"shard must be in [0, {num_shards}), got {shard}"
            )
        mask = (self._client_ids.astype(np.int64, copy=False) % num_shards) == shard
        return ColumnarTrace(
            self._times[mask],
            self._object_ids[mask],
            self._client_ids[mask],
            validate=False,
        )

    @classmethod
    def concat(
        cls,
        segments: Sequence["ColumnarTrace"],
        *,
        rebase: bool = False,
        gap: float = 0.0,
    ) -> "ColumnarTrace":
        """Stitch trace segments into one trace (multi-day log studies).

        Parameters
        ----------
        segments:
            The traces to concatenate, in chronological order; each must
            itself be time-ordered.  An empty sequence yields an empty
            trace.
        rebase:
            With ``False`` (default) the segments' timestamps are taken as
            a shared clock (e.g. epoch seconds) and concatenation requires
            each segment to start no earlier than its predecessor ends —
            violations raise :class:`~repro.exceptions.ConfigurationError`
            naming the offending boundary.  With ``True`` each segment
            after the first is shifted so it begins ``gap`` seconds after
            its predecessor's last request (intra-segment spacing is
            preserved exactly); use this to stitch rolling logs whose
            timestamps were re-based to zero per segment, as
            ``repro ingest --append`` does.
        gap:
            Idle seconds inserted between segments when ``rebase=True``
            (must be non-negative; ignored otherwise).

        Returns a new heap-backed trace (the result never aliases the
        inputs' buffers).  ``concat`` then ``split``/slicing round-trips
        losslessly; see ``docs/traces.md`` for a worked multi-day example.
        """
        if not gap >= 0:
            raise ConfigurationError(f"gap must be non-negative, got {gap}")
        if not any(len(segment) for segment in segments):
            return cls(
                np.empty(0, np.float64), np.empty(0, np.int64), np.empty(0, np.int32)
            )
        times_parts: List[np.ndarray] = []
        kept: List["ColumnarTrace"] = []
        previous_end: Optional[float] = None
        for index, segment in enumerate(segments):
            if not len(segment):
                continue  # empty segments contribute nothing, shift nothing
            times = segment.times_array
            if rebase and previous_end is not None:
                # Two steps so the boundary is exact: (t - t[0]) is 0.0 for
                # the first element, and adding the target start keeps the
                # stitched clock non-decreasing to the last ulp.
                times = (times - times[0]) + (previous_end + gap)
            elif previous_end is not None and times[0] < previous_end:
                raise ConfigurationError(
                    f"segment {index} starts at {times[0]:g}, before the "
                    f"previous segment ends at {previous_end:g}; pass "
                    "rebase=True to shift segments into sequence"
                )
            times_parts.append(times)
            kept.append(segment)
            previous_end = float(times[-1])
        return cls(
            np.concatenate(times_parts),
            np.concatenate([segment.object_ids_array for segment in kept]),
            np.concatenate([segment.client_ids_array for segment in kept]),
            validate=False,
        )

    # ------------------------------------------------------------------
    # Serialisation: CSV and binary .npz.
    # ------------------------------------------------------------------
    def to_csv(self, path: Union[str, Path]) -> None:
        """Write the trace as CSV: a ``time,object_id,client_id`` header,
        then one row per request."""
        path = Path(path)
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(TRACE_CSV_FIELDS)
            writer.writerows(
                zip(
                    self._times.tolist(),
                    self._object_ids.tolist(),
                    self._client_ids.tolist(),
                )
            )

    @classmethod
    def from_csv(cls, path: Union[str, Path]) -> "ColumnarTrace":
        """Read a CSV trace written by :meth:`to_csv`, streaming.

        Rows are validated as they are parsed (:func:`iter_csv_rows`) and
        accumulated in compact typed buffers, never as per-row objects.
        """
        times = array("d")
        object_ids = array("q")
        client_ids = array("l")
        for time, object_id, client_id in iter_csv_rows(path):
            times.append(time)
            object_ids.append(object_id)
            client_ids.append(client_id)
        return cls(
            np.frombuffer(times, dtype=np.float64) if len(times) else np.empty(0),
            np.frombuffer(object_ids, dtype=np.int64) if len(times) else np.empty(0, np.int64),
            np.array(client_ids, dtype=np.int32),
            validate=False,
        )

    def to_npz(self, path: Union[str, Path]) -> None:
        """Write the three columns to a deflated ``.npz`` archive at ``path``.

        Schema: members ``times.npy`` (float64), ``object_ids.npy`` (int64)
        and ``client_ids.npy`` (int32) of equal length, deflated at level
        :data:`NPZ_DEFLATE_LEVEL` (see ``docs/traces.md``); ``np.load``
        reads it like any ``.npz``.
        """
        with zipfile.ZipFile(
            path, "w", compression=zipfile.ZIP_DEFLATED,
            compresslevel=NPZ_DEFLATE_LEVEL,
        ) as archive:
            for name, column in (
                ("times", self._times),
                ("object_ids", self._object_ids),
                ("client_ids", self._client_ids),
            ):
                with archive.open(name + ".npy", "w", force_zip64=True) as member:
                    np.lib.format.write_array(member, column, allow_pickle=False)

    @classmethod
    def from_npz(cls, path: Union[str, Path]) -> "ColumnarTrace":
        """Read a trace previously written by :meth:`to_npz`.

        A missing column, or a column the constructor rejects (an id that
        does not fit its dtype, a non-finite or out-of-order time), raises
        :class:`~repro.exceptions.TraceFormatError` naming it.
        """
        path = Path(path)
        try:
            with np.load(path) as archive:
                columns = {}
                for name, _ in COLUMN_DTYPES:
                    if name not in archive:
                        raise TraceFormatError(
                            f"{path}: missing trace column {name!r} "
                            f"(found {sorted(archive.files)})"
                        )
                    columns[name] = archive[name]
        except (OSError, ValueError) as exc:
            raise TraceFormatError(f"{path}: not a readable .npz trace: {exc}") from exc
        try:
            return cls(
                columns["times"], columns["object_ids"], columns["client_ids"]
            )
        except ConfigurationError as exc:
            raise TraceFormatError(f"{path}: {exc}") from exc
