"""Regenerate perfbench/reference.json, the BER reference of the output checks.

For every workload it runs one rep on each of 300 calibration seeds and
records, per SNR point, the mean and standard deviation of the point's BER at
the workload's bit budget, plus the largest deviation seen in units of that
deviation (``max_abs_z``).  The checks accept a rep's BER within
``workloads.POINT_K`` times ``max_abs_z`` deviations of the mean, and a run's
pooled BER within ``workloads.POOLED_SIGMAS`` deviations of the pooled mean.
These numbers describe the simulated link, not one random stream, so they
survive a change of RNG layout; re-run this only when a workload's link or
bit budget changes.  It takes a few minutes on one core.

    python3 perfbench/calibrate.py
"""
from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = 300

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import GAMMA_TRUE, REFERENCE_FILE, WORKLOADS, build_config, rep_seed, run_rep  # noqa: E402


def calibrate(name: str) -> dict:
    workload = WORKLOADS[name]
    bers = {snr: [] for snr in workload.snrs}
    gamma_miss = 0.0
    for i in range(SEEDS):
        points, _ = run_rep(workload, build_config(workload, ROOT, rep_seed(0, i, stream="calibrate")))
        for p in points:
            bers[p.snr_db].append(p.ber)
            if p.gamma_final is not None:
                gamma_miss = max(gamma_miss, abs(p.gamma_final - GAMMA_TRUE))
    table = {}
    for snr, values in bers.items():
        mean = statistics.fmean(values)
        sd = statistics.stdev(values)
        table[f"{snr:g}"] = {
            "ber": mean,
            "sd": sd,
            "max_abs_z": max(abs(v - mean) for v in values) / sd if sd else 0.0,
        }
    print(f"{name}: {json.dumps(table)}" + (f" max |gamma - gamma_true| {gamma_miss:.4g}" if gamma_miss else ""))
    return {"seeds": SEEDS, "points": table}


def main() -> int:
    reference = {"workloads": {name: calibrate(name) for name in WORKLOADS}}
    with open(REFERENCE_FILE, "w") as handle:
        json.dump(reference, handle, indent=2)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
