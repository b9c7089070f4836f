"""Multi-day trace stitching: ``ColumnarTrace.concat`` and ``ingest --append``.

The columnar format makes concatenation a pure array operation; these tests
pin the semantics (shared-clock vs re-based stitching, boundary validation)
and the property that splitting and re-concatenating any trace is lossless.
"""

import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.exceptions import ConfigurationError
from repro.trace.columnar import ColumnarTrace

REPO_ROOT = Path(__file__).resolve().parent.parent
SAMPLE_SQUID = REPO_ROOT / "examples" / "data" / "sample_squid.log"


def _trace(times, ids=None, clients=None):
    times = np.asarray(times, dtype=np.float64)
    if ids is None:
        ids = np.arange(times.size, dtype=np.int64)
    if clients is None:
        clients = np.zeros(times.size, dtype=np.int32)
    return ColumnarTrace(times, ids, clients)


class TestConcatSemantics:
    def test_shared_clock_concatenation(self):
        day1 = _trace([0.0, 10.0, 20.0], ids=[1, 2, 3])
        day2 = _trace([20.0, 30.0], ids=[4, 5])
        stitched = ColumnarTrace.concat([day1, day2])
        assert len(stitched) == 5
        assert stitched.times_array.tolist() == [0.0, 10.0, 20.0, 20.0, 30.0]
        assert stitched.object_ids_array.tolist() == [1, 2, 3, 4, 5]

    def test_overlapping_boundary_rejected_without_rebase(self):
        day1 = _trace([0.0, 100.0])
        day2 = _trace([50.0, 120.0])
        with pytest.raises(ConfigurationError):
            ColumnarTrace.concat([day1, day2])

    def test_rebase_shifts_segments_preserving_spacing(self):
        day1 = _trace([0.0, 100.0])
        day2 = _trace([0.0, 7.0, 9.0])  # per-day logs re-based to zero
        stitched = ColumnarTrace.concat([day1, day2], rebase=True, gap=50.0)
        assert stitched.times_array.tolist() == [0.0, 100.0, 150.0, 157.0, 159.0]

    def test_rebase_default_gap_is_contiguous(self):
        day1 = _trace([5.0, 10.0])
        day2 = _trace([3.0, 4.0])
        stitched = ColumnarTrace.concat([day1, day2], rebase=True)
        assert stitched.times_array.tolist() == [5.0, 10.0, 10.0, 11.0]

    def test_negative_gap_rejected(self):
        with pytest.raises(ConfigurationError):
            ColumnarTrace.concat([_trace([0.0])], rebase=True, gap=-1.0)

    def test_nan_gap_rejected(self):
        with pytest.raises(ConfigurationError):
            ColumnarTrace.concat([_trace([0.0])], rebase=True, gap=float("nan"))

    def test_empty_inputs(self):
        assert len(ColumnarTrace.concat([])) == 0
        only = _trace([1.0, 2.0])
        stitched = ColumnarTrace.concat([_trace([]), only, _trace([])])
        assert stitched == only

    def test_result_never_aliases_inputs(self):
        day1 = _trace([0.0, 1.0])
        stitched = ColumnarTrace.concat([day1])
        stitched.times_array[0] = 99.0
        assert day1.times_array[0] == 0.0


# ----------------------------------------------------------------------
# Property: split / concat round-trips are lossless.
# ----------------------------------------------------------------------
@given(
    deltas=st.lists(
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False), max_size=60
    ),
    ids=st.lists(st.integers(min_value=0, max_value=2**40), max_size=60),
    cut=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=100, deadline=None)
def test_split_then_concat_round_trips(deltas, ids, cut):
    count = min(len(deltas), len(ids))
    times = np.cumsum(np.asarray(deltas[:count], dtype=np.float64))
    trace = _trace(times, ids=ids[:count], clients=np.arange(count, dtype=np.int32))
    head, tail = trace.split(cut)
    stitched = ColumnarTrace.concat([head, tail])
    assert stitched == trace
    assert np.array_equal(stitched.client_ids_array, trace.client_ids_array)


@given(
    deltas=st.lists(
        st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
        min_size=1,
        max_size=40,
    ),
    pieces=st.integers(min_value=1, max_value=5),
    gap=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_rebased_concat_preserves_intra_segment_spacing(deltas, pieces, gap):
    times = np.cumsum(np.asarray(deltas, dtype=np.float64))
    trace = _trace(times)
    bounds = np.linspace(0, len(trace), pieces + 1).astype(int)
    segments = [trace[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]
    stitched = ColumnarTrace.concat(segments, rebase=True, gap=gap)
    assert len(stitched) == len(trace)
    # Within each segment the request spacing is exactly preserved.
    offset = 0
    for segment in segments:
        part = stitched.times_array[offset : offset + len(segment)]
        assert np.allclose(np.diff(part), np.diff(segment.times_array))
        offset += len(segment)
    # And the stitched clock never runs backwards.
    if len(stitched) > 1:
        assert np.all(np.diff(stitched.times_array) >= 0)


def test_npz_round_trip_of_concatenated_trace(tmp_path):
    day1 = _trace([0.0, 1.0, 5.0], ids=[3, 1, 4])
    day2 = _trace([2.0, 8.0], ids=[1, 5])
    stitched = ColumnarTrace.concat([day1, day2], rebase=True)
    path = tmp_path / "stitched.npz"
    stitched.to_npz(path)
    assert ColumnarTrace.from_npz(path) == stitched


# ----------------------------------------------------------------------
# CLI: repro ingest --append over rolling segments.
# ----------------------------------------------------------------------
def test_cli_ingest_append_stitches_segments(tmp_path):
    out = tmp_path / "rolling.npz"
    env_cmd = [sys.executable, "-m", "repro", "ingest", str(SAMPLE_SQUID), "--out", str(out)]

    def run(extra=()):
        return subprocess.run(
            env_cmd + list(extra),
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )

    first = run()
    assert first.returncode == 0, first.stderr
    day1 = ColumnarTrace.from_npz(out)
    sidecar = out.with_suffix(".urls.json")
    assert sidecar.exists()  # the URL -> object id map rides along

    second = run(["--append"])
    assert second.returncode == 0, second.stderr
    assert "appended" in second.stdout
    assert "0 new" in second.stdout  # same log: every URL already mapped
    stitched = ColumnarTrace.from_npz(out)
    assert len(stitched) == 2 * len(day1)
    # The archived prefix is untouched; the new segment follows in time and
    # was remapped through the sidecar, so the same URLs got the same ids.
    assert stitched[: len(day1)] == day1
    assert np.all(np.diff(stitched.times_array) >= 0)
    assert set(stitched.object_ids_array[len(day1):].tolist()) == set(
        day1.object_ids_array.tolist()
    )

    # --append without --out is an error.
    bad = subprocess.run(
        [sys.executable, "-m", "repro", "ingest", str(SAMPLE_SQUID), "--append"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert bad.returncode == 2


# ----------------------------------------------------------------------
# CLI: --append when segments disagree on client-id spaces.
# ----------------------------------------------------------------------
def _squid_line(time, client, url):
    return (f"{time:.3f}    500 {client} TCP_MISS/200 2048 GET {url} "
            "- DIRECT/media.bu.edu video/x-pn-realvideo")


def _ingest(tmp_path, log_path, extra=()):
    command = [
        sys.executable, "-m", "repro", "ingest", str(log_path),
        "--out", str(tmp_path / "rolling.npz"),
    ] + list(extra)
    return subprocess.run(
        command,
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )


def test_cli_append_remaps_disagreeing_client_id_spaces(tmp_path):
    """First-seen client ids differ per segment; the sidecar aligns them.

    Day 1 sees carol then alice; day 2 sees alice, then a brand-new bob,
    then carol.  Without the client map, alice would collide with carol's
    archived id 0.  With it, each address keeps one id across segments and
    new addresses extend the space.
    """
    url = "http://media.bu.edu/media/clip00.rm"
    day1 = tmp_path / "day1.log"
    day1.write_text("\n".join([
        _squid_line(100.0, "10.0.0.3", url),   # carol  -> day-1 id 0
        _squid_line(110.0, "10.0.0.1", url),   # alice  -> day-1 id 1
    ]) + "\n")
    day2 = tmp_path / "day2.log"
    day2.write_text("\n".join([
        _squid_line(200.0, "10.0.0.1", url),   # alice  -> day-2 id 0 (!)
        _squid_line(210.0, "10.0.0.9", url),   # bob    -> day-2 id 1 (new)
        _squid_line(220.0, "10.0.0.3", url),   # carol  -> day-2 id 2 (!)
    ]) + "\n")

    first = _ingest(tmp_path, day1)
    assert first.returncode == 0, first.stderr
    second = _ingest(tmp_path, day2, ["--append"])
    assert second.returncode == 0, second.stderr
    assert "client map: 2 archived clients, 1 new" in second.stdout

    stitched = ColumnarTrace.from_npz(tmp_path / "rolling.npz")
    # carol=0 and alice=1 from day 1; day 2's rows remapped to
    # alice=1, bob=2 (fresh), carol=0 — not day 2's first-seen 0/1/2.
    assert stitched.client_ids_array.tolist() == [0, 1, 1, 2, 0]

    import json

    sidecar = json.loads((tmp_path / "rolling.urls.json").read_text())
    assert sidecar["clients"] == {"10.0.0.3": 0, "10.0.0.1": 1, "10.0.0.9": 2}
    assert set(sidecar["urls"]) == {url}


def test_cli_append_survives_legacy_url_only_sidecar(tmp_path):
    """A pre-client-map sidecar (flat url dict) appends with a warning."""
    import json

    url = "http://media.bu.edu/media/clip00.rm"
    day1 = tmp_path / "day1.log"
    day1.write_text(_squid_line(100.0, "10.0.0.3", url) + "\n")
    first = _ingest(tmp_path, day1)
    assert first.returncode == 0, first.stderr

    sidecar_path = tmp_path / "rolling.urls.json"
    stored = json.loads(sidecar_path.read_text())
    sidecar_path.write_text(json.dumps(stored["urls"]))  # strip to legacy form

    day2 = tmp_path / "day2.log"
    day2.write_text(_squid_line(200.0, "10.0.0.1", url) + "\n")
    second = _ingest(tmp_path, day2, ["--append"])
    assert second.returncode == 0, second.stderr
    assert "no client map" in second.stderr  # warned, did not crash

    stitched = ColumnarTrace.from_npz(tmp_path / "rolling.npz")
    # URLs still remap through the legacy map; the new segment's client is
    # renumbered past the archive's observed ids instead of colliding.
    assert stitched.object_ids_array.tolist() == [0, 0]
    assert stitched.client_ids_array.tolist() == [0, 1]
    upgraded = json.loads(sidecar_path.read_text())
    assert "clients" in upgraded and upgraded["clients"]["10.0.0.1"] == 1


def test_cli_append_failure_leaves_archive_and_sidecar_untouched(
    tmp_path, monkeypatch, capsys
):
    """A crash partway through rewriting the archive loses no archived day:
    both files are written to temporaries and renamed into place only once
    every write succeeded.  The CLI reports the failure as one error line."""
    from repro.cli import main

    url = "http://media.bu.edu/media/clip00.rm"
    archive = tmp_path / "rolling.npz"
    sidecar = tmp_path / "rolling.urls.json"
    day1 = tmp_path / "day1.log"
    day1.write_text(_squid_line(100.0, "10.0.0.3", url) + "\n")
    assert main(["ingest", str(day1), "--out", str(archive)]) == 0
    before = {path: path.read_bytes() for path in (archive, sidecar)}

    def crash_midway(self, path):
        Path(path).write_bytes(b"PK\x03\x04 half an archive")
        raise OSError("disk full")

    monkeypatch.setattr(ColumnarTrace, "to_npz", crash_midway)
    day2 = tmp_path / "day2.log"
    day2.write_text(_squid_line(200.0, "10.0.0.1", url) + "\n")
    capsys.readouterr()
    assert main(["ingest", str(day2), "--out", str(archive), "--append"]) == 2
    assert capsys.readouterr().err == "error: disk full\n"
    assert {path: path.read_bytes() for path in before} == before
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "day1.log", "day2.log", "rolling.npz", "rolling.urls.json"
    ]

