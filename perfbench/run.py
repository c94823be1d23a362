"""Simulator benchmark: throughput, set-up time and memory per workload.

    python3 perfbench/run.py --workload floor-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run it from the repository root.  ``--trace 0`` reports the end-to-end
metrics of BENCHMARK.json, ``--trace 1`` its per-layer metrics; ``all`` runs
every workload and adds the LMS-over-floor throughput ratio.  The last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  A full record (machine, program, per-run details) goes to
``perfbench/out/``.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")

# Fresh interpreters timed per run for setup_s; one more runs first to
# compile bytecode and fill the file cache, which users do not pay each time.
SETUP_SAMPLES = 9
# Every run must end within 180 s.
DEADLINE_S = 170.0
# Simulation uses one core: no BLAS or OpenMP thread pools.
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _child(args: list[str], deadline: float) -> dict:
    # Children may cache bytecode, as an installed package does, so that
    # setup_s does not depend on whether the caller's environment forbids it.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONPATH=os.path.join(ROOT, "src"), **THREAD_ENV)
    command = [sys.executable, CHILD] + args
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting " + " ".join(args[:3]))
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(args[:3])} did not finish in time") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(args[:3])} exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _setup(name: str, seed: int, trace: bool, deadline: float) -> dict:
    """Medians of the set-up steps over fresh interpreters.

    A traced run also times interpreters that import scipy before the
    package; ``import_scipy_s`` is how much that shortens the package step,
    which is the part of ``setup_s`` that scipy accounts for.
    """
    base = ["setup", "--workload", name, "--root", ROOT, "--seed", str(seed)]
    _child(base, deadline)
    plain, preloaded = [], []
    for _ in range(SETUP_SAMPLES):
        plain.append(_child(base, deadline))
        if trace:
            preloaded.append(_child(base + ["--preload-scipy"], deadline))
    result = {key: statistics.median(s[key] for s in plain) for key in plain[0]}
    if trace:
        result["import_scipy_s"] = result["import_pkg_s"] - statistics.median(s["import_pkg_s"] for s in preloaded)
    return result


def _program_info(versions: dict) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src_lines = 0
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True):
        with open(path, "rb") as handle:
            src_lines += handle.read().count(b"\n")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **versions,
        "blas_threads": THREAD_ENV,
        "platform": platform.platform(),
        "git_commit": commit,
        "src_lines": src_lines,
    }


def _measure(spec: dict, name: str, seed: int, seconds: int, trace: bool) -> dict:
    """Set-up samples plus one workload run; returns the full record."""
    deadline = time.monotonic() + DEADLINE_S
    setup = _setup(name, seed, trace, deadline)
    run = _child(["run", "--workload", name, "--root", ROOT, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(int(trace)), "--out", OUT], deadline)
    if trace:
        values = dict(run["metrics"])
        values.update({
            "setup.import_numpy_s": setup["import_numpy_s"],
            "setup.import_scipy_s": setup["import_scipy_s"],
            "setup.import_pkg_s": setup["import_pkg_s"],
            "cli.load_config_s": setup["config_s"],
        })
        wanted = spec["per_layer"]
    else:
        values = {"mbit_per_s": run["metrics"]["mbit_per_s"], "setup_s": setup["setup_s"],
                  "peak_rss_mb": run["peak_rss_mb"]}
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for {missing}")
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": run["failed"] == 0 and not run.get("trace_problems"),
        "attempted": run["attempted"], "failed": run["failed"], "problems": run["problems"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
        "details": {k: v for k, v in run.items() if k not in ("metrics", "problems", "versions")},
        "setup_samples": SETUP_SAMPLES,
        "machine": _program_info(run["versions"]),
    }


def _print_record(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}")
    for metric, entry in record["metrics"].items():
        print(f"  {metric:<58} {entry['value']:.6g} {entry['unit']}")
    frac = record["failed"] / record["attempted"]
    print(f"  {'failed_frac':<58} {frac:.6g} fraction ({record['failed']} of {record['attempted']} SNR points)")
    for problem in record["problems"]:
        print(f"  problem: {problem}")
    details = record["details"]
    if "rate_percentiles" in details:
        pct = details["rate_percentiles"]
        print(f"  mbit_per_s is the median of {details['reps']} reps at the probe's nominal speed; "
              + ", ".join(f"{k} {v:.4g}" for k, v in pct.items()))
        print("  unscaled wall-clock Mbit/s: "
              + ", ".join(f"{k} {v:.4g}" for k, v in details["wall_rate_percentiles"].items()))
        print("  probe ms: " + ", ".join(f"{k} {v:.4g}" for k, v in details["probe_ms_percentiles"].items()))
    if "overhead_s" in details:
        print(f"  tracing overhead: spans {details['overhead_s']['outer']:+.3f} s, "
              f"call timers {details['overhead_s']['inner']:+.3f} s over {details['reps']} reps; "
              f"{details['spans']} spans in {os.path.relpath(details['spans_file'], ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    package = os.path.join(ROOT, "src", "dstbc_ofdm")
    if not os.path.isfile(os.path.join(package, "__init__.py")) or not os.path.isfile(spec_path):
        print(f"error: run from a checkout with BENCHMARK.json and {os.path.relpath(package, ROOT)}/",
              file=sys.stderr)
        return 2
    with open(spec_path) as handle:
        spec = json.load(handle)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        records = [_measure(spec, name, args.seed, args.seconds, bool(args.trace)) for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    os.makedirs(OUT, exist_ok=True)
    for record in records:
        path = os.path.join(OUT, f"result-{record['workload']}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as handle:
            json.dump(record, handle, indent=2)
        _print_record(record)
    print("machine: " + json.dumps(records[0]["machine"]))
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
        rate = {r["workload"]: r["metrics"].get("mbit_per_s", {}).get("value") for r in records}
        if rate.get("lms-track") and rate.get("floor-sweep"):
            print(f"lms-track / floor-sweep mbit_per_s = {rate['lms-track'] / rate['floor-sweep']:.4f}"
                  " (ROADMAP target >= 0.5)")
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
