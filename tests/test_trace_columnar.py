"""ColumnarTrace: protocol parity with RequestTrace and replay equivalence.

Three promises are pinned here:

* a :class:`ColumnarTrace` is a drop-in for :class:`RequestTrace` — same
  protocol, same values, lossless conversion in both directions (including
  a hypothesis round-trip property),
* slicing is zero-copy (views share the parent's buffers),
* the simulator produces **bit-identical** metrics whether a workload's
  trace is object-per-request or columnar (it converts to columns at run
  start), matching the recorded replay goldens for every registered
  policy.
"""

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from repro.exceptions import ConfigurationError, TraceFormatError
from repro.network.variability import NLANRRatioVariability
from repro.sim.config import SimulationConfig
from repro.trace.columnar import ColumnarTrace
from repro.workload.gismo import GismoWorkloadGenerator, Workload, WorkloadConfig
from repro.workload.trace import Request, RequestTrace

from conftest import GOLDEN_POLICIES, replay_golden


def make_pair():
    times = [0.5, 1.0, 1.0, 2.25, 7.5]
    object_ids = [3, 1, 3, 2, 1]
    client_ids = [0, 1, 0, 2, 1]
    columnar = ColumnarTrace(times, object_ids, client_ids)
    objects = RequestTrace.from_arrays(times, object_ids, client_ids)
    return columnar, objects


class TestProtocolParity:
    def test_len_iter_and_values(self):
        columnar, objects = make_pair()
        assert len(columnar) == len(objects)
        assert list(columnar) == list(objects)
        for request in columnar:
            assert type(request.time) is float
            assert type(request.object_id) is int

    def test_equality_both_directions(self):
        columnar, objects = make_pair()
        assert columnar == objects
        assert objects == columnar
        assert columnar == ColumnarTrace.from_request_trace(objects)
        assert columnar != columnar[1:]

    def test_indexing(self):
        columnar, objects = make_pair()
        assert columnar[0] == objects[0]
        assert columnar[-1] == objects[-1]
        with pytest.raises(IndexError):
            columnar[99]

    def test_slicing_matches_and_is_zero_copy(self):
        columnar, objects = make_pair()
        sliced = columnar[1:4]
        assert isinstance(sliced, ColumnarTrace)
        assert sliced == objects[1:4]
        assert np.shares_memory(sliced.times_array, columnar.times_array)

    def test_bounds_and_counts(self):
        columnar, objects = make_pair()
        assert columnar.duration == objects.duration
        assert columnar.start_time == objects.start_time
        assert columnar.end_time == objects.end_time
        assert columnar.object_ids() == objects.object_ids()
        assert columnar.request_counts() == objects.request_counts()

    def test_split(self):
        columnar, objects = make_pair()
        c_warm, c_measure = columnar.split(0.5)
        o_warm, o_measure = objects.split(0.5)
        assert c_warm == o_warm
        assert c_measure == o_measure
        with pytest.raises(ConfigurationError):
            columnar.split(1.5)

    def test_empty_trace(self):
        empty = ColumnarTrace([], [])
        assert len(empty) == 0
        assert empty.duration == 0.0
        assert empty.object_ids() == []
        assert empty == RequestTrace([])


class TestValidation:
    def test_out_of_order_rejected(self):
        with pytest.raises(ConfigurationError):
            ColumnarTrace([2.0, 1.0], [0, 1])

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            ColumnarTrace([-1.0, 1.0], [0, 1])

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


class TestSerialisation:
    def test_csv_is_byte_identical_to_request_trace(self, tmp_path):
        columnar, objects = make_pair()
        columnar.to_csv(tmp_path / "col.csv")
        objects.to_csv(tmp_path / "obj.csv")
        assert (tmp_path / "col.csv").read_bytes() == (tmp_path / "obj.csv").read_bytes()

    def test_csv_cross_reader_roundtrip(self, tmp_path):
        columnar, objects = make_pair()
        columnar.to_csv(tmp_path / "t.csv")
        assert ColumnarTrace.from_csv(tmp_path / "t.csv") == columnar
        assert RequestTrace.from_csv(tmp_path / "t.csv") == objects

    def test_csv_malformed_numeric_raises_trace_format_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,object_id,client_id\n1.0,zap,0\n")
        with pytest.raises(TraceFormatError):
            ColumnarTrace.from_csv(path)
        with pytest.raises(TraceFormatError):
            RequestTrace.from_csv(path)

    def test_csv_out_of_order_raises_trace_format_error_with_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,object_id,client_id\n5.0,1,0\n2.0,2,0\n")
        with pytest.raises(TraceFormatError, match=":3"):
            RequestTrace.from_csv(path)
        with pytest.raises(TraceFormatError, match=":3"):
            ColumnarTrace.from_csv(path)

    def test_csv_non_finite_time_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,object_id,client_id\nnan,1,0\n")
        with pytest.raises(TraceFormatError):
            RequestTrace.from_csv(path)

    def test_npz_roundtrip(self, tmp_path):
        columnar, _ = make_pair()
        columnar.to_npz(tmp_path / "t.npz")
        assert ColumnarTrace.from_npz(tmp_path / "t.npz") == columnar

    def test_npz_missing_column_rejected(self, tmp_path):
        np.savez(tmp_path / "bad.npz", times=np.zeros(2))
        with pytest.raises(TraceFormatError):
            ColumnarTrace.from_npz(tmp_path / "bad.npz")

    def test_npz_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"not an archive")
        with pytest.raises(TraceFormatError):
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
def test_roundtrip_property(rows):
    """ColumnarTrace <-> RequestTrace round-trips are lossless both ways."""
    rows.sort(key=lambda row: row[0])
    requests = [Request(time=t, object_id=o, client_id=c) for t, o, c in rows]
    objects = RequestTrace(requests)
    columnar = ColumnarTrace.from_request_trace(objects)
    assert columnar == objects
    assert columnar.to_request_trace() == objects
    assert ColumnarTrace.from_request_trace(columnar.to_request_trace()) == columnar
    assert ColumnarTrace.from_trace(columnar) is columnar


class TestGismoColumnarMode:
    def test_columnar_output_matches_object_output(self):
        config = WorkloadConfig(seed=5).scaled(0.02)
        object_workload = GismoWorkloadGenerator(config).generate()
        columnar_workload = GismoWorkloadGenerator(config).generate(columnar=True)
        assert isinstance(columnar_workload.trace, ColumnarTrace)
        assert columnar_workload.trace == object_workload.trace
        assert (
            columnar_workload.catalog.total_size == object_workload.catalog.total_size
        )

    def test_describe_works_on_columnar_workloads(self):
        config = WorkloadConfig(seed=5).scaled(0.02)
        workload = GismoWorkloadGenerator(config).generate(columnar=True)
        summary = workload.describe()
        assert summary["requests"] == float(len(workload.trace))


@pytest.fixture(scope="module")
def workload_pair():
    config = WorkloadConfig(seed=7).scaled(0.02)  # 100 objects, 2000 requests
    object_workload = GismoWorkloadGenerator(config).generate()
    columnar_workload = Workload(
        catalog=object_workload.catalog,
        trace=ColumnarTrace.from_request_trace(object_workload.trace),
        config=object_workload.config,
        expected_rates=object_workload.expected_rates,
    )
    return object_workload, columnar_workload


@pytest.mark.parametrize("policy_name", sorted(GOLDEN_POLICIES))
def test_columnar_replay_bit_identical_per_policy(workload_pair, policy_name):
    """Object and columnar traces both replay to the recorded golden."""
    config = SimulationConfig(
        cache_size_gb=0.5, variability=NLANRRatioVariability(), seed=11
    )
    for workload in workload_pair:
        replay_golden(
            f"columnar/{policy_name}", workload, config, GOLDEN_POLICIES[policy_name]
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
def test_columnar_replay_bit_identical_edge_configs(workload_pair, config_kwargs):
    """Object and columnar traces agree under estimator/warmup variants."""
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
    for workload in workload_pair:
        replay_golden(key, workload, config)


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
    base_config = WorkloadConfig(num_objects=3, num_requests=60, num_servers=3)
    object_workload = Workload(
        catalog=catalog,
        trace=RequestTrace.from_arrays(times, object_ids),
        config=base_config,
    )
    columnar_workload = Workload(
        catalog=catalog,
        trace=ColumnarTrace(times, object_ids),
        config=base_config,
    )
    config = SimulationConfig(
        cache_size_gb=0.01, variability=NLANRRatioVariability(), seed=2
    )
    for workload in (object_workload, columnar_workload):
        replay_golden("columnar/sparse-ids", workload, config)
