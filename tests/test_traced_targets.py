"""The benchmark's tracer and workloads name only functions the package has,
and each workload's reps call every function it traces.

A traced run reports a function that has vanished from the package, or that
a workload no longer calls, but only when it is run with tracing on; these
checks make such a change fail the test suite instead.  The benchmark's
modules are loaded from their files and left unchanged on disk.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from conftest import count_package_calls

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


def test_every_workload_calls_what_it_traces(monkeypatch):
    workloads = load_bench_module(monkeypatch, "workloads")
    for workload in workloads.WORKLOADS.values():
        cfg = workloads.build_config(workload, str(PERFBENCH.parent), workloads.rep_seed(1, 0))
        with monkeypatch.context() as patch:
            targets = [tuple(target.split(".")) for target in workload.traced]
            calls = count_package_calls(patch, targets)
            workloads.run_rep(workload, cfg)
        uncalled = [f"{module}.{name}" for module, name in targets if calls[name] == 0]
        assert uncalled == [], f"a {workload.name} rep records no call of {uncalled}"


@pytest.mark.parametrize("target", ["compensator.lms_step", "numerics.nearest_psk_indices"])
def test_a_vanished_function_is_named(monkeypatch, target):
    tracing = load_bench_module(monkeypatch, "tracing")
    module, name = target.split(".")
    monkeypatch.delattr(importlib.import_module(f"dstbc_ofdm.{module}"), name)
    assert tracing.missing_targets() == [target]
