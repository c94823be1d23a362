"""One fresh interpreter of the benchmark: either a set-up measurement or a
workload run.  ``run.py`` starts it; its last stdout line is a JSON object.

    python3 perfbench/child.py setup --workload NAME --root DIR [--preload-scipy]
    python3 perfbench/child.py run --workload NAME --root DIR --seed N --seconds S --trace 0|1 --out DIR

``setup`` times importing numpy, then the package, then building and
validating the workload's config.  With ``--preload-scipy`` it imports the
scipy modules that ``analysis`` uses as a step of their own before the
package, so that the package step no longer includes them.  ``run`` repeats
the workload for the given time, checks every point and reports throughput
(``--trace 0``), or runs the untraced, span-traced and call-timed passes
over the same reps and reports the per-layer metrics (``--trace 1``).
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass

from workloads import WORKLOADS, build_config, check_pooled, check_rep, load_reference, rep_seed, run_rep

# The machine speed that ``mbit_per_s`` is stated at, as a time of
# ``_probe``: about its median (7.0 to 8.0 ms) on the 2-core machine where
# the benchmark was defined.  Changing it rescales every result.
PROBE_NOMINAL_S = 0.008


def _setup(args) -> dict:
    clock = time.perf_counter
    t0 = clock()
    import numpy  # noqa: F401

    t1 = clock()
    if args.preload_scipy:
        import scipy.integrate  # noqa: F401
        import scipy.special  # noqa: F401
    t2 = clock()
    import dstbc_ofdm  # noqa: F401
    import dstbc_ofdm.cli  # noqa: F401

    t3 = clock()
    build_config(WORKLOADS[args.workload], args.root, rep_seed(args.seed, 0))
    t4 = clock()
    return {"setup_s": t4 - t0, "import_numpy_s": t1 - t0, "import_scipy_s": t2 - t1,
            "import_pkg_s": t3 - t2, "config_s": t4 - t3}


def _version(distribution: str) -> str | None:
    """Installed version, from metadata: importing scipy here would add to the peak RSS."""
    try:
        return importlib.metadata.version(distribution)
    except importlib.metadata.PackageNotFoundError:
        return None


class _Run:
    """Reps of one workload, with every point checked and counted."""

    def __init__(self, args):
        import dstbc_ofdm

        if not os.path.abspath(dstbc_ofdm.__file__).startswith(os.path.join(args.root, "src") + os.sep):
            raise SystemExit(f"imported dstbc_ofdm from {dstbc_ofdm.__file__}, not from {args.root}/src")
        self.root = args.root
        self.workload = WORKLOADS[args.workload]
        self.reference, self.reference_seeds = load_reference(self.workload)
        self.pooled = {snr: [] for snr in self.workload.snrs}  # (point, id) of first runs
        self.seed = args.seed
        self.attempted = 0
        self.failed_ids: set[int] = set()
        self.problems: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failed_ids)

    def rep(self, index: int, expect: list | None = None) -> tuple[list, float]:
        """Run and check rep ``index``; each SNR point counts once in ``attempted``.

        A point fails if the rep raises, if its checks fail, or, when
        ``expect`` holds an earlier run of the same rep, if it differs from
        that run.  Only first runs of a rep enter the pooled BER check.
        """
        ids = {snr: self.attempted + i for i, snr in enumerate(self.workload.snrs)}
        self.attempted += len(ids)
        try:
            cfg = build_config(self.workload, self.root, rep_seed(self.seed, index))
            points, wall = run_rep(self.workload, cfg)
        except Exception as exc:  # the benchmark reports failures, it does not stop on them
            self.failed_ids.update(ids.values())
            self.problems.append(f"rep {index} raised {exc!r}")
            return [], float("nan")
        problems = check_rep(self.workload, self.reference, points)
        if expect is not None:
            before = {p.snr_db: p.determinism_key() for p in expect}
            for p in points:
                if p.snr_db in ids and p.determinism_key() != before.get(p.snr_db):
                    problems.setdefault(p.snr_db, f"drifted from {before.get(p.snr_db)} to {p.determinism_key()}")
        for snr_db, problem in problems.items():
            self.failed_ids.add(ids[snr_db])
            self.problems.append(f"rep {index}: {problem}")
        if expect is None:
            for p in points:
                if p.snr_db in ids:
                    self.pooled[p.snr_db].append((p, ids[p.snr_db]))
        return points, wall

    def bits(self, points: list) -> int:
        return sum(p.bits for p in points)

    def frames(self, points: list) -> int:
        return self.bits(points) // self.workload.bits_per_frame

    def result(self, metrics: dict, extra: dict) -> dict:
        """The child's report, after the pooled BER check (which fails every point it pooled)."""
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        pooled = {snr: [p for p, _ in entries] for snr, entries in self.pooled.items()}
        for snr_db, problem in check_pooled(self.reference, self.reference_seeds, pooled).items():
            self.failed_ids.update(i for _, i in self.pooled[snr_db])
            self.problems.append(problem)
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems[:20],
            "metrics": metrics,
            "peak_rss_mb": peak_rss_mb,
            "versions": {name: _version(name) for name in ("numpy", "scipy")},
            **extra,
        }


@dataclass(frozen=True)
class _Pair:
    a: complex
    b: complex

    def mul(self, other: "_Pair") -> "_Pair":
        return _Pair(self.a * other.a - self.b * other.b.conjugate(), self.a * other.b + self.b * other.a.conjugate())


def _probe() -> float:
    """Seconds of a fixed kernel that stands for the machine's current speed.

    Half its time goes to numpy (normal draws, FFTs and element-wise maths on
    small complex arrays, as in the per-frame front end), half to Python
    objects and complex scalars (as in the per-observation LMS loop).  It
    never calls the package, so a change to the package cannot change it.
    Other tenants of a shared machine slow it and the reps alike.
    """
    import numpy as np

    rng = np.random.default_rng(1)
    start = time.perf_counter()
    for _ in range(20):
        x = rng.standard_normal((20, 64)) + 1j * rng.standard_normal((20, 64))
        y = np.fft.ifft(x, axis=1) * np.exp(1j * np.angle(x))
        float(np.abs(np.fft.fft(y, axis=1)).sum())
    p, q, gamma = _Pair(0.3 + 0.1j, -0.2 + 0.4j), _Pair(0.9 - 0.1j, 0.1 + 0.2j), 0.1 + 0.05j
    for _ in range(500):
        r = p.mul(q)
        gamma -= 0.01 * (r.a + gamma * r.b) * r.b.conjugate()
        max(range(8), key=lambda k: (r.a * 1j**k).real)
        p = _Pair(r.a / abs(r.a), r.b / (abs(r.b) + 1.0))
    return time.perf_counter() - start


def _timed(args) -> dict:
    """Throughput of each rep, scaled to the probe's nominal speed; see README "Noise"."""
    run = _Run(args)
    first, _ = run.rep(0)  # warm-up, and the reference for the determinism check
    _probe()
    before = _probe()
    rates, raw, probes = [], [], [before]
    start = time.perf_counter()
    index = 1
    while time.perf_counter() - start < args.seconds:
        points, wall = run.rep(index)
        after = _probe()
        probes.append(after)
        if points:
            raw.append(run.bits(points) / wall / 1e6)
            rates.append(raw[-1] * (before + after) / 2 / PROBE_NOMINAL_S)
        before = after
        index += 1
    if len(rates) < 2:
        raise SystemExit(f"only {len(rates)} reps ran without error: {run.problems[:3]}")
    run.rep(0, expect=first)
    return run.result({"mbit_per_s": statistics.median(rates)}, {
        "reps": len(rates),
        "rate_percentiles": _percentiles(rates),
        "wall_rate_percentiles": _percentiles(raw),
        "probe_ms_percentiles": _percentiles([p * 1e3 for p in probes]),
    })


def _percentiles(values: list[float]) -> dict:
    deciles, quartiles = statistics.quantiles(values, n=10), statistics.quantiles(values, n=4)
    return {"p10": deciles[0], "p25": quartiles[0], "p50": quartiles[1], "p75": quartiles[2], "p90": deciles[-1]}


def _traced(args) -> dict:
    from tracing import INNER_TARGETS, LAYER_TARGETS, CallTimer, Patch, SpanTracer, analyse_spans, missing_targets

    run = _Run(args)
    w = run.workload
    tracer = SpanTracer(w.name)
    timer = CallTimer()
    run.rep(0)  # warm-up
    # Each rep runs untraced, then with spans, then (on the LMS path) with
    # call timers, back to back, so that the machine's slow drifts in speed
    # hit all three passes alike and cancel out of the overheads.
    base = []  # (points, wall) of the untraced pass
    wall_b = wall_c = 0.0
    start = time.perf_counter()
    index = 1
    while time.perf_counter() - start < args.seconds:
        points, wall = run.rep(index)
        if points:
            base.append((points, wall))
            with Patch() as patch:
                tracer.install(patch)
                tracer.rep = index
                _, wall = run.rep(index, expect=points)
            wall_b += wall
            if any(p.lms_updates for p in points):
                with Patch() as patch:
                    timer.install(patch)
                    _, wall = run.rep(index, expect=points)
                wall_c += wall
        index += 1
    if not base:
        raise SystemExit(f"no rep ran without error: {run.problems[:3]}")
    reps = len(base)
    wall_a = sum(wall for _, wall in base)
    wall_a_lms = sum(wall for points, wall in base if any(p.lms_updates for p in points))
    frames = sum(run.frames(points) for points, _ in base)
    bits = sum(run.bits(points) for points, _ in base)
    lms_updates = sum(p.lms_updates for points, _ in base for p in points)

    totals, top, trace_problems = analyse_spans(tracer.spans)
    os.makedirs(args.out, exist_ok=True)
    spans_path = os.path.join(args.out, f"spans-{w.name}-seed{args.seed}.jsonl")
    tracer.write(spans_path)
    coverage = top / wall_b
    if not 0.99 <= coverage <= 1.0 + 1e-9:
        trace_problems.append(f"API spans cover {coverage:.4f} of the traced API wall time")
    # A traced function that is gone, or whose calls the wrappers miss, would
    # otherwise read as a layer that got infinitely faster.
    trace_problems.extend(f"traced function {name} not found in the package" for name in missing_targets())
    calls = {name: entry["calls"] for name, entry in totals.items()}
    calls.update(timer.calls)
    trace_problems.extend(f"{name} recorded no call" for name in w.traced if not calls.get(name))
    harness_self = sum(v["self_seconds"] for k, v in totals.items() if k.startswith("harness."))
    metrics = {
        "harness.frames": frames / reps,
        "harness.us_per_frame": wall_a / frames * 1e6,
        "harness.self_us_per_frame": harness_self / frames * 1e6,
        "harness.bit_overshoot": bits / (reps * len(w.snrs) * w.min_bits),
        "compensator.lms_updates": lms_updates / reps,
        "numerics.nearest_psk_indices.decisions": tracer.decisions / reps,
        "trace.outer_overhead_frac": wall_b / wall_a - 1.0,
        "trace.inner_overhead_frac": wall_c / wall_a_lms - 1.0 if wall_a_lms else 0.0,
        "trace.span_coverage": coverage,
    }
    empty = {"calls": 0, "seconds": 0.0}
    for module, function in LAYER_TARGETS:
        name = f"{module}.{function}"
        entry = totals.get(name, empty)
        metrics[f"{name}.calls"] = entry["calls"] / reps
        metrics[f"{name}.us_per_call"] = entry["seconds"] / entry["calls"] * 1e6 if entry["calls"] else 0.0
        metrics[f"{name}.share"] = entry["seconds"] / top
    dd = totals.get("compensator.decision_directed_pass", empty)
    metrics["compensator.decision_directed_pass.us_per_observation"] = (
        dd["seconds"] / (lms_updates / 2) * 1e6 if lms_updates else 0.0
    )
    for module, function in INNER_TARGETS:
        name = f"{module}.{function}"
        calls = timer.calls.get(name, 0)
        metrics[f"{name}.calls"] = calls / reps
        metrics[f"{name}.us_per_call"] = timer.seconds[name] / calls * 1e6 if calls else 0.0

    run.problems.extend(trace_problems[:10])
    extra = {"reps": reps, "spans": len(tracer.spans), "spans_file": spans_path,
             "trace_problems": len(trace_problems),
             "overhead_s": {"outer": wall_b - wall_a, "inner": wall_c - wall_a_lms}}
    return run.result(metrics, extra)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--root", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=".")
    parser.add_argument("--preload-scipy", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(args.root, "src"))
    if args.mode == "setup":
        result = _setup(args)
    elif args.trace:
        result = _traced(args)
    else:
        result = _timed(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
