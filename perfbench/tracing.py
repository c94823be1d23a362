"""Outside-in tracing: wrappers installed around the package's layer calls.

The wrappers live here, not in the package.  ``Patch`` swaps a function for
its wrapper under every name that a ``dstbc_ofdm`` module binds it to, so a
call is seen whether the caller imported the function by name or looks it
up on its module.  A function the package no longer has is skipped;
``missing_targets`` names it, and the traced run fails its check for it, as
it does when a function that the workload must call records no call.

Two tracers use it:

* ``SpanTracer`` records one span per call (name, start, end, parent span,
  point id) around the API entry points and the per-frame layer calls.
* ``CallTimer`` only counts calls and sums their time.  It serves the LMS
  inner calls, which happen about once per simulated bit and would be too
  many to keep as spans.
"""
from __future__ import annotations

import importlib
import json
import sys
import time

# (module, function, kind): API entry points open a sweep or a point.
API_TARGETS = (
    ("harness", "run_sweep", "sweep"),
    ("harness", "run_point", "point"),
    ("harness", "run_point_with_trace", "point"),
)
LAYER_TARGETS = (
    ("channel", "realize_fading"),
    ("iqi", "apply_rx_iqi"),
    ("numerics", "nearest_psk_indices"),
    ("compensator", "decision_directed_pass"),
)
INNER_TARGETS = (
    ("stbc", "ml_differential_detect_indices"),
    ("compensator", "compensate_observation"),
    ("compensator", "build_residuals"),
    ("compensator", "lms_step"),
)


def _lookup(module: str, name: str):
    try:
        return getattr(importlib.import_module(f"dstbc_ofdm.{module}"), name, None)
    except ImportError:
        return None


def missing_targets() -> list[str]:
    """The traced functions, as ``module.function``, that the package no longer has."""
    targets = [t[:2] for t in API_TARGETS] + list(LAYER_TARGETS) + list(INNER_TARGETS)
    return [f"{module}.{name}" for module, name in targets if not callable(_lookup(module, name))]


class Patch:
    """Replaces package functions by wrappers until ``restore`` (or exit)."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, module: str, name: str, make_wrapper) -> None:
        original = _lookup(module, name)
        if original is None:
            return
        wrapper = make_wrapper(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "dstbc_ofdm" or mod_name.startswith("dstbc_ofdm.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def restore(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def _snr_arg(args, kwargs) -> float:
    return float(kwargs["snr_db"] if "snr_db" in kwargs else args[1])


class SpanTracer:
    """Keeps spans in memory as [name, start, end, parent index, point id]."""

    def __init__(self, workload: str):
        self.workload = workload
        self.rep = 0
        self.spans: list[list] = []
        self.decisions = 0
        self._stack: list[int] = []
        self._point = workload

    def install(self, patch: Patch) -> None:
        # the decision counter goes on first, so its cost falls inside the layer's span
        patch.wrap("numerics", "nearest_psk_indices", self._count_decisions)
        for module, name, kind in API_TARGETS:
            patch.wrap(module, name, lambda fn, n=f"{module}.{name}", k=kind: self._wrap(n, fn, k))
        for module, name in LAYER_TARGETS:
            patch.wrap(module, name, lambda fn, n=f"{module}.{name}": self._wrap(n, fn, "layer"))

    def _count_decisions(self, fn):
        def counted(values, *args, **kwargs):
            result = fn(values, *args, **kwargs)
            self.decisions += result.size
            return result

        return counted

    def _wrap(self, name: str, fn, kind: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            saved = self._point
            if kind == "point":
                self._point = f"{self.workload}/rep{self.rep}/snr{_snr_arg(args, kwargs):g}"
            elif kind == "sweep":
                self._point = f"{self.workload}/rep{self.rep}"
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._point]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                self._point = saved

        return traced

    def write(self, path: str) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as handle:
            for index, (name, start, end, parent, point) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start_us": (start - origin) * 1e6,
                    "end_us": (end - origin) * 1e6, "parent": parent, "point": point,
                }) + "\n")


class CallTimer:
    """Call counts and summed seconds per wrapped function."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}

    def install(self, patch: Patch) -> None:
        for module, name in INNER_TARGETS:
            key = f"{module}.{name}"
            self.calls.setdefault(key, 0)
            self.seconds.setdefault(key, 0.0)
            patch.wrap(module, name, lambda fn, k=key: self._wrap(k, fn))

    def _wrap(self, key: str, fn):
        calls, seconds, clock = self.calls, self.seconds, time.perf_counter

        def timed(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[key] += clock() - start
                calls[key] += 1

        return timed


def analyse_spans(spans: list[list]) -> tuple[dict, float, list[str]]:
    """Per-name totals, top-level seconds and the structural problems of a span list.

    Totals are ``{name: {"calls", "seconds", "self_seconds"}}``; top-level
    seconds sum the spans that have no parent.  Self time is a span's duration
    minus its direct children's.  Children must lie inside their parent and
    siblings must not overlap, so that a parent's self time plus its
    children's time is exactly its wall time.
    """
    problems = []
    child_seconds = [0.0] * len(spans)
    sibling_end: dict[int, float] = {}
    for index, (name, start, end, parent, _point) in enumerate(spans):
        if end < start:
            problems.append(f"span {index} {name} ends before it starts")
        if parent < 0:
            continue
        _, p_start, p_end, _, _ = spans[parent]
        if start < p_start or end > p_end:
            problems.append(f"span {index} {name} lies outside its parent {parent}")
        if start < sibling_end.get(parent, p_start):
            problems.append(f"span {index} {name} overlaps an earlier sibling")
        sibling_end[parent] = end
        child_seconds[parent] += end - start
    totals: dict = {}
    top = 0.0
    for index, (name, start, end, parent, _point) in enumerate(spans):
        own = end - start - child_seconds[index]
        if own < 0:
            problems.append(f"span {index} {name} has negative self time")
        entry = totals.setdefault(name, {"calls": 0, "seconds": 0.0, "self_seconds": 0.0})
        entry["calls"] += 1
        entry["seconds"] += end - start
        entry["self_seconds"] += own
        if parent < 0:
            top += end - start
    return totals, top, problems
