"""Tests for request traces and the GISMO workload generator."""

import pytest

from repro.exceptions import ConfigurationError, TraceFormatError
from repro.trace.columnar import ColumnarTrace
from repro.workload.gismo import GismoWorkloadGenerator, Workload, WorkloadConfig
from repro.workload.trace import Request

#: The config fields the generator builds its models from.
MODEL_FIELDS = ["zipf_alpha", "arrival_rate", "duration_mu", "duration_sigma", "bitrate"]


class TestRequest:
    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            Request(time=-1.0, object_id=0)


class TestRequestTrace:
    """The request trace, a :class:`ColumnarTrace`, on four literal requests."""

    def make_trace(self):
        return ColumnarTrace([1.0, 2.0, 2.5, 4.0], [3, 1, 3, 2])

    def test_len_duration_bounds(self):
        trace = self.make_trace()
        assert len(trace) == 4
        assert trace.start_time == 1.0
        assert trace.end_time == 4.0
        assert trace.duration == pytest.approx(3.0)

    def test_out_of_order_rejected(self):
        with pytest.raises(ConfigurationError):
            ColumnarTrace([2.0, 1.0], [0, 1])

    def test_object_ids_first_seen_order(self):
        assert self.make_trace().object_ids() == [3, 1, 2]

    def test_request_counts(self):
        assert self.make_trace().request_counts() == {3: 2, 1: 1, 2: 1}

    def test_split_halves(self):
        warmup, measure = self.make_trace().split(0.5)
        assert len(warmup) == 2
        assert len(measure) == 2
        assert measure[0].object_id == 3

    def test_split_validates_fraction(self):
        with pytest.raises(ConfigurationError):
            self.make_trace().split(1.5)

    def test_slicing_returns_trace(self):
        sliced = self.make_trace()[1:3]
        assert isinstance(sliced, ColumnarTrace)
        assert len(sliced) == 2

    def test_csv_roundtrip(self, tmp_path):
        trace = self.make_trace()
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        assert ColumnarTrace.from_csv(path) == trace

    def test_csv_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(TraceFormatError):
            ColumnarTrace.from_csv(path)

    def test_csv_bad_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,object_id,client_id\n1.0,notanint,0\n")
        with pytest.raises(TraceFormatError):
            ColumnarTrace.from_csv(path)

    def test_from_arrays_validation(self):
        with pytest.raises(ConfigurationError):
            ColumnarTrace([1.0, 2.0], [1])
        with pytest.raises(ConfigurationError):
            ColumnarTrace([1.0], [1], client_ids=[1, 2])

    def test_empty_trace_properties(self):
        empty = ColumnarTrace([], [])
        assert len(empty) == 0
        assert empty.duration == 0.0
        assert empty.object_ids() == []


class TestWorkloadConfig:
    def test_defaults_follow_table1(self):
        config = WorkloadConfig()
        assert config.num_objects == 5_000
        assert config.num_requests == 100_000
        assert config.zipf_alpha == pytest.approx(0.73)
        assert config.bitrate == pytest.approx(48.0)

    def test_scaled_preserves_shape(self):
        scaled = WorkloadConfig().scaled(0.1)
        assert scaled.num_objects == 500
        assert scaled.num_requests == 10_000
        assert scaled.zipf_alpha == pytest.approx(0.73)

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig().scaled(0.0)

    def test_invalid_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(num_objects=0)
        with pytest.raises(ConfigurationError):
            WorkloadConfig(num_requests=0)
        with pytest.raises(ConfigurationError):
            WorkloadConfig(value_min=5.0, value_max=1.0)

    @pytest.mark.parametrize("field", ["value_min", "value_max"])
    def test_nan_value_bound_rejected(self, field):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(**{field: float("nan")})

    @pytest.mark.parametrize("field", MODEL_FIELDS + ["value_min", "value_max"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_model_parameter_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
            WorkloadConfig(**{field: value})


class TestGismoWorkloadGenerator:
    @pytest.mark.parametrize("field", MODEL_FIELDS)
    def test_nan_model_parameter_rejected(self, field):
        # The generator builds its models from these fields; a NaN one set
        # on a config after construction must fail there, not surface as
        # NaN sizes, times or probabilities.
        config = WorkloadConfig(num_objects=10, num_requests=20)
        setattr(config, field, float("nan"))
        with pytest.raises(ConfigurationError):
            GismoWorkloadGenerator(config)

    def test_generation_is_deterministic(self):
        config = WorkloadConfig(num_objects=30, num_requests=500, num_servers=5, seed=3)
        first = GismoWorkloadGenerator(config).generate()
        second = GismoWorkloadGenerator(config).generate()
        assert first.trace == second.trace
        assert first.catalog.total_size == pytest.approx(second.catalog.total_size)

    def test_catalog_matches_config(self, tiny_workload):
        config = tiny_workload.config
        assert len(tiny_workload.catalog) == config.num_objects
        assert len(tiny_workload.trace) == config.num_requests
        servers = set(obj.server_id for obj in tiny_workload.catalog)
        assert servers.issubset(set(range(config.num_servers)))

    def test_object_values_within_range(self, tiny_workload):
        for obj in tiny_workload.catalog:
            assert 1.0 <= obj.value <= 10.0

    def test_requests_reference_catalog_objects(self, tiny_workload):
        ids = set(tiny_workload.catalog.object_ids())
        assert all(request.object_id in ids for request in tiny_workload.trace)

    def test_popularity_skew_visible_in_trace(self, tiny_workload):
        counts = tiny_workload.trace.request_counts()
        top_object = max(counts, key=counts.get)
        # Low-ranked object ids are the popular ones by construction.
        assert top_object < len(tiny_workload.catalog) / 4

    def test_expected_rates_sum_to_requests(self, tiny_workload):
        assert tiny_workload.expected_rates.sum() == pytest.approx(
            tiny_workload.config.num_requests
        )

    def test_workload_rejects_any_other_trace(self, tiny_workload):
        rows = list(tiny_workload.trace)
        with pytest.raises(ConfigurationError, match="ColumnarTrace"):
            Workload(
                catalog=tiny_workload.catalog, trace=rows, config=tiny_workload.config
            )

    def test_describe_reports_requests(self, tiny_workload):
        summary = tiny_workload.describe()
        assert summary["requests"] == float(len(tiny_workload.trace))
        assert summary["zipf_alpha"] == pytest.approx(0.73)
