"""Smoke tests for the public API surface and packaging entry points."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import repro


class TestTopLevelExports:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"__all__ lists missing attribute {name}"

    def test_key_classes_importable_from_top_level(self):
        for name in (
            "GismoWorkloadGenerator",
            "WorkloadConfig",
            "SimulationConfig",
            "ProxyCacheSimulator",
            "NLANRBandwidthDistribution",
            "PartialBandwidthPolicy",
            "IntegralBandwidthPolicy",
            "CacheStore",
            "make_policy",
            "optimal_allocation",
            "StreamingConfig",
            "StreamingReport",
            "SegmentedPrefix",
            "CacheTier",
            "HierarchyConfig",
            "HierarchyReport",
        ):
            assert hasattr(repro, name)

    def test_subpackages_importable(self):
        for module in (
            "repro.workload",
            "repro.network",
            "repro.streaming",
            "repro.core",
            "repro.core.policies",
            "repro.sim",
            "repro.analysis",
            "repro.cli",
        ):
            assert importlib.import_module(module) is not None

    def test_exceptions_form_one_hierarchy(self):
        for name in (
            "ConfigurationError",
            "CapacityError",
            "UnknownObjectError",
            "TraceFormatError",
            "MeasurementError",
            "SimulationError",
            "PolicyError",
        ):
            assert issubclass(getattr(repro, name), repro.ReproError)

    def test_subpackage_all_lists_resolve(self):
        for module_name in (
            "repro.workload",
            "repro.network",
            "repro.streaming",
            "repro.core",
            "repro.sim",
            "repro.analysis",
        ):
            module = importlib.import_module(module_name)
            for name in module.__all__:
                assert hasattr(module, name), f"{module_name}.__all__ lists {name}"


class TestModuleEntryPoint:
    @pytest.mark.parametrize("args", [["--help"], ["experiment", "--help"]])
    def test_python_dash_m_repro(self, args):
        completed = subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0
        assert "repro-sim" in completed.stdout

    def test_python_dash_m_runs_tiny_simulation(self):
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro", "run",
                "--policy", "IB", "--cache-gb", "0.2", "--scale", "0.01",
            ],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0
        assert "traffic_reduction_ratio" in completed.stdout


class TestPackaging:
    def test_setup_metadata_names_the_package_and_its_version(self):
        # --name/--version only print metadata: the run builds and writes
        # nothing into the checkout.
        root = Path(__file__).resolve().parents[1]
        completed = subprocess.run(
            [sys.executable, "setup.py", "--name", "--version"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.split() == ["repro-sim", repro.__version__]
