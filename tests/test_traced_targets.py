"""The benchmark's tracer and workloads name only functions the package has.

A traced run reports a function that has vanished from the package, but only
when it is run with tracing on; these checks make a deletion or rename of
such a function fail the test suite instead.  The benchmark's modules are
loaded from their files and left unchanged on disk.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_bench_module(monkeypatch, name: str):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists(monkeypatch):
    tracing = load_bench_module(monkeypatch, "tracing")
    assert tracing.missing_targets() == []


def test_every_workload_names_package_functions(monkeypatch):
    workloads = load_bench_module(monkeypatch, "workloads")
    assert workloads.WORKLOADS
    for workload in workloads.WORKLOADS.values():
        assert workload.traced, workload.name
        for target in workload.traced:
            module, name = target.split(".")
            function = getattr(importlib.import_module(f"dstbc_ofdm.{module}"), name, None)
            assert callable(function), f"{workload.name} traces {target}, which the package lacks"


@pytest.mark.parametrize("target", ["compensator.lms_step", "numerics.nearest_psk_indices"])
def test_a_vanished_function_is_named(monkeypatch, target):
    tracing = load_bench_module(monkeypatch, "tracing")
    module, name = target.split(".")
    monkeypatch.delattr(importlib.import_module(f"dstbc_ofdm.{module}"), name)
    assert tracing.missing_targets() == [target]
