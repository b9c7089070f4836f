"""ColumnarTrace: the row protocol, validation, serialisation and replay.

Three promises are pinned here:

* a :class:`ColumnarTrace` yields exactly the :class:`Request` rows it was
  built from — same values, native Python scalars — and writes the CSV
  format byte for byte (checked against literal rows and literal text,
  including a hypothesis round-trip property),
* slicing is zero-copy (views share the parent's buffers), and ids that
  do not fit their column's dtype are rejected instead of wrapped,
* the simulator replays a trace to the recorded golden for every
  registered policy and under the estimator/warm-up edge configurations.
"""

import functools
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from repro.core.policies import PolicySpec
from repro.exceptions import ConfigurationError, TraceFormatError
from repro.network.variability import NLANRRatioVariability
from repro.sim.config import SimulationConfig
from repro.trace.columnar import ColumnarTrace
from repro.workload.gismo import GismoWorkloadGenerator, Workload, WorkloadConfig
from repro.workload.trace import Request

from conftest import GOLDEN_POLICIES, replay_golden, result_record

#: The rows of :func:`make_pair`'s trace, as literal requests.
ROWS = [
    Request(time=0.5, object_id=3, client_id=0),
    Request(time=1.0, object_id=1, client_id=1),
    Request(time=1.0, object_id=3, client_id=0),
    Request(time=2.25, object_id=2, client_id=2),
    Request(time=7.5, object_id=1, client_id=1),
]

#: :data:`ROWS` in the CSV format :meth:`ColumnarTrace.to_csv` writes.
CSV_TEXT = (
    "time,object_id,client_id\r\n"
    "0.5,3,0\r\n"
    "1.0,1,1\r\n"
    "1.0,3,0\r\n"
    "2.25,2,2\r\n"
    "7.5,1,1\r\n"
)


def make_pair():
    times = [0.5, 1.0, 1.0, 2.25, 7.5]
    object_ids = [3, 1, 3, 2, 1]
    client_ids = [0, 1, 0, 2, 1]
    return ColumnarTrace(times, object_ids, client_ids), list(ROWS)


class TestProtocolParity:
    def test_len_iter_and_values(self):
        columnar, rows = make_pair()
        assert len(columnar) == len(rows)
        assert list(columnar) == rows
        for request in columnar:
            assert type(request.time) is float
            assert type(request.object_id) is int

    def test_equality_both_directions(self):
        columnar, rows = make_pair()
        rebuilt = ColumnarTrace(
            [r.time for r in rows],
            [r.object_id for r in rows],
            [r.client_id for r in rows],
        )
        assert columnar == rebuilt
        assert rebuilt == columnar
        assert columnar != columnar[1:]
        assert (columnar == rows) is False

    def test_indexing(self):
        columnar, rows = make_pair()
        assert columnar[0] == rows[0]
        assert columnar[-1] == rows[-1]
        with pytest.raises(IndexError):
            columnar[99]

    def test_slicing_matches_and_is_zero_copy(self):
        columnar, rows = make_pair()
        sliced = columnar[1:4]
        assert isinstance(sliced, ColumnarTrace)
        assert list(sliced) == rows[1:4]
        assert np.shares_memory(sliced.times_array, columnar.times_array)

    def test_bounds_and_counts(self):
        columnar, _ = make_pair()
        assert columnar.duration == 7.0
        assert columnar.start_time == 0.5
        assert columnar.end_time == 7.5
        assert columnar.object_ids() == [3, 1, 2]
        assert columnar.request_counts() == {3: 2, 1: 2, 2: 1}

    def test_split(self):
        columnar, rows = make_pair()
        c_warm, c_measure = columnar.split(0.5)
        # round(0.5 * 5) == 2: Python rounds half to even.
        assert list(c_warm) == rows[:2]
        assert list(c_measure) == rows[2:]
        with pytest.raises(ConfigurationError):
            columnar.split(1.5)

    def test_empty_trace(self):
        empty = ColumnarTrace([], [])
        assert len(empty) == 0
        assert empty.duration == 0.0
        assert empty.object_ids() == []
        assert list(empty) == []


class TestValidation:
    def test_out_of_order_rejected(self):
        with pytest.raises(ConfigurationError):
            ColumnarTrace([2.0, 1.0], [0, 1])

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            ColumnarTrace([-1.0, 1.0], [0, 1])

    @pytest.mark.parametrize(
        "times",
        [
            [0.0, np.nan, 1.0],
            [0.0, 5.0, np.inf],
            [0.0, -np.inf, 1.0],
            [0.0, 1.0, np.nan],
        ],
        ids=["nan-between", "inf-last", "minus-inf-between", "nan-last"],
    )
    def test_non_finite_time_past_the_first_rejected(self, times):
        with pytest.raises(ConfigurationError, match="times: row"):
            ColumnarTrace(times, [1, 2, 3])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            ColumnarTrace([1.0, 2.0], [1])
        with pytest.raises(ConfigurationError):
            ColumnarTrace([1.0], [1], [1, 2])

    def test_dtypes_are_canonical(self):
        columnar, _ = make_pair()
        assert columnar.times_array.dtype == np.float64
        assert columnar.object_ids_array.dtype == np.int64
        assert columnar.client_ids_array.dtype == np.int32
        # Ids at their dtype's bounds, and whole floats, convert losslessly.
        bounds = ColumnarTrace(
            [0.0, 1.0],
            np.array([-(2**63), 2**63 - 1]),
            np.array([-(2**31), 2**31 - 1]),
        )
        assert bounds.object_ids_array.tolist() == [-(2**63), 2**63 - 1]
        assert bounds.client_ids_array.tolist() == [-(2**31), 2**31 - 1]
        whole = ColumnarTrace([0.0], np.array([4.0]), np.array([5], dtype=np.int64))
        assert whole.object_ids_array.tolist() == [4]
        assert whole.client_ids_array.tolist() == [5]

    @pytest.mark.parametrize(
        "object_ids, client_ids, column",
        [
            ([1], np.array([3_000_000_000]), "client_ids"),
            ([1], [3_000_000_000], "client_ids"),
            ([1], np.array([-(2**31) - 1]), "client_ids"),
            ([2**63], None, "object_ids"),
            (np.array([2**63], dtype=np.uint64), None, "object_ids"),
            ([2**64], None, "object_ids"),
            (np.array([1.7]), None, "object_ids"),
            (np.array([np.nan]), None, "object_ids"),
        ],
        ids=[
            "client-int64-past-int32",
            "client-list-past-int32",
            "client-below-int32",
            "object-list-past-int64",
            "object-uint64-past-int64",
            "object-list-past-uint64",
            "object-fractional",
            "object-nan",
        ],
    )
    def test_ids_that_do_not_fit_their_column_rejected(
        self, object_ids, client_ids, column
    ):
        with pytest.raises(ConfigurationError, match=column):
            ColumnarTrace([0.0], object_ids, client_ids)


class TestSerialisation:
    def test_csv_is_byte_identical_to_request_trace(self, tmp_path):
        """The CSV bytes are the trace format: a header, then one
        ``time,object_id,client_id`` row per request."""
        columnar, _ = make_pair()
        columnar.to_csv(tmp_path / "col.csv")
        assert (tmp_path / "col.csv").read_bytes() == CSV_TEXT.encode()

    def test_csv_cross_reader_roundtrip(self, tmp_path):
        columnar, rows = make_pair()
        columnar.to_csv(tmp_path / "t.csv")
        assert ColumnarTrace.from_csv(tmp_path / "t.csv") == columnar
        (tmp_path / "literal.csv").write_bytes(CSV_TEXT.encode())
        assert list(ColumnarTrace.from_csv(tmp_path / "literal.csv")) == rows

    def test_csv_malformed_numeric_raises_trace_format_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,object_id,client_id\n1.0,zap,0\n")
        with pytest.raises(TraceFormatError):
            ColumnarTrace.from_csv(path)

    def test_csv_out_of_order_raises_trace_format_error_with_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,object_id,client_id\n5.0,1,0\n2.0,2,0\n")
        with pytest.raises(TraceFormatError, match=":3"):
            ColumnarTrace.from_csv(path)

    def test_csv_non_finite_time_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,object_id,client_id\nnan,1,0\n")
        with pytest.raises(TraceFormatError):
            ColumnarTrace.from_csv(path)

    @pytest.mark.parametrize(
        "row, field",
        [
            ("0.0,1,3000000000", "client_id"),
            ("0.0,1,-2147483649", "client_id"),
            (f"0.0,{2**63},0", "object_id"),
            (f"0.0,{-(2**63) - 1},0", "object_id"),
        ],
        ids=[
            "client-past-int32",
            "client-below-int32",
            "object-past-int64",
            "object-below-int64",
        ],
    )
    def test_csv_id_out_of_range_raises_trace_format_error_with_line(
        self, tmp_path, row, field
    ):
        path = tmp_path / "bad.csv"
        path.write_text(f"time,object_id,client_id\n0.0,1,0\n{row}\n")
        with pytest.raises(TraceFormatError, match=f":3: {field}"):
            ColumnarTrace.from_csv(path)

    def test_npz_roundtrip(self, tmp_path):
        columnar, _ = make_pair()
        columnar.to_npz(tmp_path / "t.npz")
        assert ColumnarTrace.from_npz(tmp_path / "t.npz") == columnar

    @pytest.mark.parametrize("empty", [False, True], ids=["rows", "empty"])
    def test_npz_members_are_deflated_and_round_trip_exactly(self, tmp_path, empty):
        columnar, _ = make_pair()
        if empty:
            columnar = columnar[:0]
        path = tmp_path / "t.npz"
        columnar.to_npz(path)
        with zipfile.ZipFile(path) as archive:
            members = archive.infolist()
        assert [member.filename for member in members] == [
            "times.npy", "object_ids.npy", "client_ids.npy"
        ]
        assert {member.compress_type for member in members} == {zipfile.ZIP_DEFLATED}
        stored = ColumnarTrace.from_npz(path)
        assert stored == columnar and len(stored) == len(columnar)
        for column in ("times_array", "object_ids_array", "client_ids_array"):
            assert getattr(stored, column).dtype == getattr(columnar, column).dtype

    @pytest.mark.parametrize("save", [np.savez_compressed, np.savez])
    def test_npz_written_by_numpy_still_loads(self, tmp_path, save):
        columnar, _ = make_pair()
        path = tmp_path / "numpy.npz"
        save(
            path,
            times=columnar.times_array,
            object_ids=columnar.object_ids_array,
            client_ids=columnar.client_ids_array,
        )
        assert ColumnarTrace.from_npz(path) == columnar

    def test_npz_missing_column_rejected(self, tmp_path):
        np.savez(tmp_path / "bad.npz", times=np.zeros(2))
        with pytest.raises(TraceFormatError):
            ColumnarTrace.from_npz(tmp_path / "bad.npz")

    def test_npz_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"not an archive")
        with pytest.raises(TraceFormatError):
            ColumnarTrace.from_npz(path)

    @pytest.mark.parametrize(
        "times", [[0.0, np.nan, 1.0], [0.0, 5.0, np.inf]], ids=["nan", "inf"]
    )
    def test_npz_non_finite_time_rejected(self, tmp_path, times):
        path = tmp_path / "bad.npz"
        np.savez(
            path,
            times=np.array(times),
            object_ids=np.array([1, 2, 3]),
            client_ids=np.zeros(3, dtype=np.int32),
        )
        with pytest.raises(TraceFormatError, match="times: row"):
            ColumnarTrace.from_npz(path)

    @pytest.mark.parametrize(
        "object_ids, client_ids, column",
        [
            (np.array([1]), np.array([3_000_000_000], dtype=np.int64), "client_ids"),
            (np.array([1.7]), np.array([0], dtype=np.int32), "object_ids"),
            (
                np.array([2**63], dtype=np.uint64),
                np.array([0], dtype=np.int32),
                "object_ids",
            ),
        ],
        ids=[
            "client-int64-past-int32",
            "object-fractional",
            "object-uint64-past-int64",
        ],
    )
    def test_npz_id_column_that_does_not_fit_rejected(
        self, tmp_path, object_ids, client_ids, column
    ):
        path = tmp_path / "bad.npz"
        np.savez(path, times=np.zeros(1), object_ids=object_ids, client_ids=client_ids)
        with pytest.raises(TraceFormatError, match=column):
            ColumnarTrace.from_npz(path)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            st.integers(min_value=0, max_value=50),
            st.integers(min_value=0, max_value=5),
        ),
        max_size=40,
    )
)
def test_roundtrip_property(tmp_path_factory, rows):
    """Rows -> columns -> rows, and columns -> CSV -> columns, are lossless."""
    rows.sort(key=lambda row: row[0])
    requests = [Request(time=t, object_id=o, client_id=c) for t, o, c in rows]
    columnar = ColumnarTrace(
        [r.time for r in requests],
        [r.object_id for r in requests],
        [r.client_id for r in requests],
    )
    assert list(columnar) == requests
    assert [columnar[i] for i in range(len(columnar))] == requests
    path = tmp_path_factory.mktemp("traces") / "t.csv"
    columnar.to_csv(path)
    assert ColumnarTrace.from_csv(path) == columnar


class TestGismoColumnarMode:
    def test_describe_works_on_columnar_workloads(self):
        config = WorkloadConfig(seed=5).scaled(0.02)
        workload = GismoWorkloadGenerator(config).generate()
        assert isinstance(workload.trace, ColumnarTrace)
        summary = workload.describe()
        assert summary["requests"] == float(len(workload.trace))


@pytest.fixture(scope="module")
def golden_workload():
    config = WorkloadConfig(seed=7).scaled(0.02)  # 100 objects, 2000 requests
    return GismoWorkloadGenerator(config).generate()


@pytest.mark.parametrize("policy_name", sorted(GOLDEN_POLICIES))
def test_columnar_replay_bit_identical_per_policy(golden_workload, policy_name):
    """Every policy replays the trace to the recorded golden."""
    config = SimulationConfig(
        cache_size_gb=0.5, variability=NLANRRatioVariability(), seed=11
    )
    replay_golden(
        f"columnar/{policy_name}", golden_workload, config, GOLDEN_POLICIES[policy_name]
    )


@pytest.mark.parametrize(
    "config_kwargs",
    [
        {"bandwidth_knowledge": "passive"},
        {"warmup_fraction": 0.0},
        {"warmup_fraction": 0.9},
        {"variability": "measured"},
        {"verify_store": True},
    ],
    ids=["passive-estimator", "zero-warmup", "late-warmup", "measured-paths", "verify"],
)
def test_columnar_replay_bit_identical_edge_configs(golden_workload, config_kwargs):
    """The trace replays to its golden under estimator/warmup variants."""
    from repro.network.variability import MeasuredPathVariability
    from repro.sim.config import BandwidthKnowledge

    kwargs = dict(cache_size_gb=0.5, seed=3, variability=NLANRRatioVariability())
    for key, value in config_kwargs.items():
        if value == "passive":
            value = BandwidthKnowledge.PASSIVE
        elif value == "measured":
            value = MeasuredPathVariability("average")
        kwargs[key] = value
    config = SimulationConfig(**kwargs)
    key = "columnar/edge/" + "-".join(f"{k}={v}" for k, v in config_kwargs.items())
    replay_golden(key, golden_workload, config)


def test_columnar_replay_bit_identical_sparse_ids():
    """Sparse object ids get a dict entry table, still bit-identical."""
    from repro.workload.catalog import Catalog, MediaObject

    sparse_ids = [10_000_000, 20_000_000, 30_000_000]
    catalog = Catalog(
        MediaObject(object_id=oid, duration=120.0, bitrate=48.0, server_id=i)
        for i, oid in enumerate(sparse_ids)
    )
    times = np.arange(60, dtype=float)
    object_ids = np.array([sparse_ids[i % 3] for i in range(60)], dtype=np.int64)
    workload = Workload(
        catalog=catalog,
        trace=ColumnarTrace(times, object_ids),
        config=WorkloadConfig(num_objects=3, num_requests=60, num_servers=3),
    )
    config = SimulationConfig(
        cache_size_gb=0.01, variability=NLANRRatioVariability(), seed=2
    )
    replay_golden("columnar/sparse-ids", workload, config)


@functools.lru_cache(maxsize=4)
def _relabelling_workloads(seed):
    """A small GISMO workload and the same workload with every object id
    relabelled, in the catalog and the trace: to ``id * 3 + 7``, below
    the dense id table's cut-off (``4 * count + 1024``) but with gaps and
    no id 0, so the replay finds its objects with a presence mask that
    has holes, and to ``id * 7919 + 50_000_000``, far above the cut-off,
    so the replay runs on the dict table.

    Both maps are monotone, so every id-ordered walk (stream selection,
    catalog iteration) visits the objects in the same order.
    """
    from repro.workload.catalog import Catalog, MediaObject

    workload = GismoWorkloadGenerator(
        WorkloadConfig(
            num_objects=40, num_requests=400, num_servers=8, num_clients=8,
            seed=seed,
        )
    ).generate()

    def relabelled(relabel):
        catalog = Catalog(
            MediaObject(
                object_id=relabel(obj.object_id),
                duration=obj.duration,
                bitrate=obj.bitrate,
                server_id=obj.server_id,
                value=obj.value,
                layers=obj.layers,
            )
            for obj in workload.catalog
        )
        trace = workload.trace
        return Workload(
            catalog=catalog,
            trace=ColumnarTrace(
                trace.times_array,
                relabel(trace.object_ids_array),
                trace.client_ids_array,
            ),
            config=workload.config,
            expected_rates=workload.expected_rates,
        )

    return (
        workload,
        relabelled(lambda ids: ids * 3 + 7),
        relabelled(lambda ids: ids * 7919 + 50_000_000),
    )


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=3),
    policy=st.sampled_from(["PB", "IB", "LRU", "GDS"]),
    streaming=st.booleans(),
    passive=st.booleans(),
    reactive=st.booleans(),
    clouds=st.booleans(),
    faults=st.booleans(),
    variability=st.booleans(),
    hierarchy=st.booleans(),
)
def test_replay_is_invariant_under_sparse_id_relabelling(
    seed, policy, streaming, passive, reactive, clouds, faults, variability,
    hierarchy,
):
    """Relabelling every object id into a gapped dense range or a sparse
    one leaves every result, counter and report bit-identical, whatever
    subsystems run.

    Streaming runs with ``vbr_fraction=0``: a VBR object's frame sizes are
    seeded with its object id by design, so relabelling a VBR stream
    changes what it carries.  A hierarchy excludes streaming and
    re-keying, so those two are off whenever it is drawn; re-keying
    needs passive knowledge, so it switches that on.
    """
    from repro.network.distributions import NLANRBandwidthDistribution
    from repro.sim.config import BandwidthKnowledge, ClientCloudConfig
    from repro.sim.faults import FaultConfig
    from repro.sim.hierarchy import CacheTier, HierarchyConfig
    from repro.sim.simulator import ProxyCacheSimulator
    from repro.sim.streaming import StreamingConfig

    if hierarchy:
        streaming = reactive = False
    kwargs = dict(cache_size_gb=0.5, seed=seed)
    if passive or reactive:
        kwargs["bandwidth_knowledge"] = BandwidthKnowledge.PASSIVE
    if variability:
        kwargs["variability"] = NLANRRatioVariability()
    if streaming:
        kwargs["streaming"] = StreamingConfig(vbr_fraction=0.0)
    if reactive:
        kwargs.update(reactive_threshold=0.15, reactive_passive=True)
    if clouds:
        kwargs["client_clouds"] = ClientCloudConfig(
            groups=4, distribution=NLANRBandwidthDistribution()
        )
    if faults:
        kwargs["faults"] = FaultConfig(
            random_origin_outages=2, random_bandwidth_flaps=2
        )
    if hierarchy:
        kwargs["hierarchy"] = HierarchyConfig(
            tiers=(
                CacheTier(name="edge", cache_kb=200_000.0, uplink_bandwidth=50.0),
                CacheTier(name="parent", cache_kb=800_000.0, uplink_bandwidth=40.0),
            ),
            num_pops=2,
        )
    config = SimulationConfig(**kwargs)
    records = [
        result_record(
            ProxyCacheSimulator(workload, config).run(PolicySpec(policy)())
        )
        for workload in _relabelling_workloads(seed)
    ]
    assert records[1:] == [records[0]] * 2
