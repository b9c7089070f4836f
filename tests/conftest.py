"""Shared fixtures and the replay-golden helpers for the test suite."""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.core.policies import POLICY_REGISTRY, PolicySpec
from repro.sim.config import SimulationConfig
from repro.sim.simulator import ProxyCacheSimulator
from repro.workload.catalog import Catalog, MediaObject
from repro.workload.gismo import GismoWorkloadGenerator, WorkloadConfig

#: Recorded replay results, one entry per golden key.  Re-record with
#: ``PYTHONPATH=src:tests python -m pytest -p record_goldens tests`` (see
#: ``tests/record_goldens.py``) only at a commit whose replay behaviour is
#: trusted: the file is the contract every later change is held to.
GOLDEN_PATH = Path(__file__).parent / "data" / "replay_goldens.json"

#: Lists longer than this are stored as a sha256 digest of their values.
INLINE_LIST_MAX = 16

#: Per-policy golden cases by key label: every registry name, plus the
#: estimator-``e`` hybrids of Figures 9 and 12, which no name alone
#: can express.
GOLDEN_POLICIES = {
    **{name: name for name in POLICY_REGISTRY},
    "PB(e=0.5)": PolicySpec("PB", estimator_e=0.5),
    "PB-V(e=0.5)": PolicySpec("PB-V", estimator_e=0.5),
}


def _digest(value) -> str:
    payload = json.dumps(value, sort_keys=True).encode()
    return "sha256:" + hashlib.sha256(payload).hexdigest()


def _canonical(value):
    """JSON-stable form: exact floats, ``"nan"`` for NaN, long lists digested."""
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        items = [_canonical(item) for item in value]
        return _digest(items) if len(items) > INLINE_LIST_MAX else items
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return value


def result_record(result) -> dict:
    """The recorded view of one run: metrics, counters and every report."""
    record = {
        "result": result.as_dict(),
        "auxiliary_events_fired": result.auxiliary_events_fired,
        "reactive": [
            result.reactive_shifts,
            result.reactive_rekeys,
            result.reactive_suppressed,
            sorted(result.reactive_rekeys_by_server.items()),
        ],
    }
    for name, report in (
        ("timeline", result.timeline),
        ("faults", result.fault_report),
        ("streaming", result.streaming_report),
        ("hierarchy", result.hierarchy_report),
    ):
        if report is not None:
            record[name] = report.as_dict()
    if result.measurement_log is not None:
        record["measurement_log"] = _digest(
            _canonical(result.measurement_log.as_dict())
        )
    return _canonical(record)


class ReplayGoldens:
    """Compare runs against :data:`GOLDEN_PATH`, or record them.

    Recording is switched on by loading the ``record_goldens`` plugin; a
    key recorded twice must produce the same record both times, so two
    call sites cannot silently share a key.
    """

    def __init__(self) -> None:
        self.recording = False
        self.recorded: dict = {}
        self._golden = None

    def check(self, key: str, result) -> None:
        record = result_record(result)
        if self.recording:
            assert self.recorded.setdefault(key, record) == record, key
            return
        if self._golden is None:
            self._golden = json.loads(GOLDEN_PATH.read_text())
        assert key in self._golden, f"no replay golden recorded for {key!r}"
        assert record == self._golden[key], key

    def write(self) -> None:
        """Rewrite :data:`GOLDEN_PATH` with the recorded runs, and print
        every key the rewrite removes or adds (nothing when the key sets
        match), so a key no test reads any longer shows."""
        committed = set()
        if GOLDEN_PATH.exists():
            committed = set(json.loads(GOLDEN_PATH.read_text()))
        GOLDEN_PATH.write_text(
            json.dumps(self.recorded, indent=1, sort_keys=True) + "\n"
        )
        recorded = set(self.recorded)
        changes = [
            f"replay golden {change}: {key}"
            for change, keys in (
                ("removed", committed - recorded),
                ("added", recorded - committed),
            )
            for key in sorted(keys)
        ]
        if changes:
            # pytest's progress line ends without a newline.
            print("", *changes, sep="\n")


GOLDENS = ReplayGoldens()


def pytest_configure(config):
    GOLDENS.recording = config.pluginmanager.has_plugin("record_goldens")


def pytest_sessionfinish(session, exitstatus):
    if GOLDENS.recording:
        GOLDENS.write()


def assert_golden(key: str, result) -> None:
    """Assert one run's result, timeline and reports match golden ``key``."""
    GOLDENS.check(key, result)


def replay_golden(key, workload, config, policy="PB", hierarchy=None):
    """Replay ``workload`` once, assert it matches golden ``key``, return it.

    ``policy`` is a registry name or a
    :class:`~repro.core.policies.PolicySpec`, which can also carry an
    ``estimator_e``.  ``hierarchy`` (a
    :class:`~repro.sim.hierarchy.HierarchyConfig`) is applied to the
    config first.
    """
    if hierarchy is not None:
        config = config.with_hierarchy(hierarchy)
    spec = PolicySpec(policy) if isinstance(policy, str) else policy
    result = ProxyCacheSimulator(workload, config).run(spec())
    assert_golden(key, result)
    return result


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for test reproducibility."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_catalog() -> Catalog:
    """A tiny hand-built catalog with known sizes and servers."""
    return Catalog(
        [
            MediaObject(object_id=0, duration=100.0, bitrate=48.0, server_id=0, value=5.0),
            MediaObject(object_id=1, duration=200.0, bitrate=48.0, server_id=1, value=2.0),
            MediaObject(object_id=2, duration=50.0, bitrate=96.0, server_id=2, value=9.0),
            MediaObject(object_id=3, duration=400.0, bitrate=24.0, server_id=0, value=1.0),
        ]
    )


@pytest.fixture
def tiny_workload():
    """A very small but fully structured GISMO workload (fast to simulate)."""
    config = WorkloadConfig(
        num_objects=50,
        num_requests=1_500,
        num_servers=10,
        seed=7,
    )
    return GismoWorkloadGenerator(config).generate()


@pytest.fixture
def small_workload():
    """A moderately sized workload for integration tests."""
    config = WorkloadConfig(
        num_objects=200,
        num_requests=5_000,
        num_servers=40,
        seed=11,
    )
    return GismoWorkloadGenerator(config).generate()


@pytest.fixture
def fast_sim_config() -> SimulationConfig:
    """Simulation config suitable for quick unit/integration tests."""
    return SimulationConfig(cache_size_gb=1.0, seed=5, verify_store=True)
