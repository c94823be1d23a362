"""Workloads of the simulator benchmark, the repetitions that run them and
the checks on their outputs.

A workload fixes one link configuration, its SNR points and a bit budget per
point.  One repetition ("rep") runs every SNR point once through the public
API (``run_sweep``, ``run_point`` or ``run_point_with_trace``) with one
seed.  Seeds come from the benchmark's ``--seed``; the simulator only ever
sees the generated ``SimConfig``.

Nothing here imports numpy or the package at module level, so the set-up
measurement in ``child.py`` controls when those imports happen.
"""
from __future__ import annotations

import json
import math
import os
import random
import time
from dataclasses import dataclass, field

# -beta / conj(alpha) for a 2 dB gain and 8 degree phase imbalance, the
# coefficient that nulls the image exactly (printed by ``dstbc-ofdm analytic``).
GAMMA_TRUE = complex(0.115176348, 0.0690036459)

# 64 subcarriers minus DC and Nyquist, two 8PSK symbols (3 bits each) per
# subcarrier per Alamouti block; 31 subcarrier pairs, two LMS updates each.
_ACTIVE = 62
_BITS_PER_BLOCK = _ACTIVE * 2 * 3
_LMS_UPDATES_PER_BLOCK = 31 * 2

# BER bands.  A rep's BER must lie within POINT_K times the largest
# deviation that calibration saw at that point (``max_abs_z``, in standard
# deviations of one rep's BER, from reference.json) of the reference mean.
# Where the mean is many deviations above zero this band excludes zero, so a
# rep that counts no errors fails.  A workload may widen the band at points
# whose error count is small and heavy-tailed (``tail_sigmas``).  The BER
# pooled over a run's reps is close to normal and gets a tight band.
POINT_K = 2.0
POOLED_SIGMAS = 8.0

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


@dataclass(frozen=True)
class Workload:
    name: str
    api: str
    cfg_file: str | None
    overrides: dict = field(default_factory=dict)
    snrs: tuple[float, ...] = ()
    min_bits: int = 0
    blocks_per_frame: int = 20
    gamma_tol: float | None = None
    # least width of the BER band, in standard deviations, per SNR point
    tail_sigmas: dict = field(default_factory=dict)
    # traced functions ("module.function") that every rep must call
    traced: tuple[str, ...] = ()

    @property
    def bits_per_frame(self) -> int:
        return self.blocks_per_frame * _BITS_PER_BLOCK

    @property
    def lms_updates_per_frame(self) -> int:
        return self.blocks_per_frame * _LMS_UPDATES_PER_BLOCK


_FRONT_END = ("channel.realize_fading", "iqi.apply_rx_iqi")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="floor-sweep",
            api="run_sweep",
            cfg_file="iqi_baseline.cfg",
            snrs=(10.0, 20.0, 30.0, 40.0),
            min_bits=150_000,
            traced=_FRONT_END + ("numerics.nearest_psk_indices",),
        ),
        Workload(
            name="lms-track",
            api="run_point_with_trace",
            cfg_file="lms_compensation.cfg",
            snrs=(20.0, 30.0),
            min_bits=60_000,
            gamma_tol=0.05,
            # One rep's error count at 30 dB averages 9.4 with a deviation of
            # 9.2, and 1,200 seeds reached 67 (6.4 deviations).  The band
            # still excludes the uncompensated floor, about 100 times the mean.
            tail_sigmas={30.0: 20.0},
            traced=_FRONT_END + (
                "compensator.decision_directed_pass",
                "stbc.ml_differential_detect_indices",
                "compensator.compensate_observation",
                "compensator.build_residuals",
                "compensator.lms_step",
            ),
        ),
        Workload(
            name="fast-coherent",
            api="run_point",
            cfg_file=None,
            overrides={"detection": "coherent", "doppler_hz": 463.0},
            snrs=(10.0, 20.0),
            min_bits=100_000,
            blocks_per_frame=4,
            traced=_FRONT_END + ("numerics.nearest_psk_indices",),
        ),
    )
}


def rep_seed(base_seed: int, rep: int, stream: str = "perfbench") -> int:
    """Config seed of one rep, a pure function of the benchmark seed and rep index."""
    return random.Random(f"{stream}:{base_seed}:{rep}").randrange(2**31)


def build_config(workload: Workload, root: str, seed: int):
    """The workload's validated SimConfig, read through the CLI's loader."""
    from dstbc_ofdm import SimConfig
    from dstbc_ofdm.cli import load_config_file

    kwargs = {}
    if workload.cfg_file is not None:
        kwargs = load_config_file(os.path.join(root, "src", "dstbc_ofdm", "configs", workload.cfg_file))
    kwargs.update(workload.overrides)
    kwargs.update(snr_grid_db=workload.snrs, min_bits=workload.min_bits,
                  blocks_per_frame=workload.blocks_per_frame, seed=seed)
    cfg = SimConfig(**kwargs)
    cfg.validate()
    return cfg


@dataclass(frozen=True)
class Point:
    """What one SNR point returned, reduced to the values the checks need."""

    snr_db: float
    bits: int
    bit_errors: int
    ber: float
    lms_updates: int
    gamma_final: complex | None

    def determinism_key(self) -> tuple:
        """What must repeat exactly for one seed; frames follow from bits."""
        return (self.snr_db, self.bits, self.bit_errors, self.lms_updates, self.gamma_final)


def _point(record, trajectory) -> Point:
    updates = 0 if trajectory is None else len(trajectory)
    gamma = complex(trajectory[-1]) if updates else None
    return Point(float(record.snr_db), int(record.bits), int(record.bit_errors),
                 float(record.ber), updates, gamma)


def run_rep(workload: Workload, cfg) -> tuple[list[Point], float]:
    """Run every SNR point once; returns the points and the API wall seconds.

    The API functions are looked up on the package at call time so that the
    tracer's wrappers, when installed, see the calls.
    """
    import dstbc_ofdm

    clock = time.perf_counter
    if workload.api == "run_sweep":
        start = clock()
        records = dstbc_ofdm.run_sweep(cfg, workers=1)
        wall = clock() - start
        return [_point(r, None) for r in records], wall
    points = []
    wall = 0.0
    for snr_db in workload.snrs:
        start = clock()
        if workload.api == "run_point":
            record, trajectory = dstbc_ofdm.run_point(cfg, snr_db), None
        else:
            record, trajectory = dstbc_ofdm.run_point_with_trace(cfg, snr_db)
        wall += clock() - start
        points.append(_point(record, trajectory))
    return points, wall


def load_reference(workload: Workload) -> tuple[dict[float, dict], int]:
    """Reference mean and deviation of one rep's BER per SNR, and the seed count behind them."""
    with open(REFERENCE_FILE) as handle:
        data = json.load(handle)
    entry = data["workloads"][workload.name]
    return {float(snr): point for snr, point in entry["points"].items()}, entry["seeds"]


def check_rep(workload: Workload, reference: dict[float, dict], points: list[Point]) -> dict[float, str]:
    """A message per SNR point of the workload that is missing or fails a check."""
    by_snr = {p.snr_db: p for p in points}
    problems = {}
    for snr_db in workload.snrs:
        p = by_snr.get(snr_db)
        fault = "missing from the output" if p is None else _check_point(workload, reference, p)
        if fault:
            problems[snr_db] = f"{workload.name} snr={snr_db:g}: {fault}"
    return problems


def _check_point(workload: Workload, reference: dict[float, dict], p: Point) -> str | None:
    frame = workload.bits_per_frame
    if not workload.min_bits <= p.bits < workload.min_bits + frame:
        return f"bits {p.bits} outside [{workload.min_bits}, {workload.min_bits + frame})"
    if p.bits % frame:
        return f"bits {p.bits} not a whole number of {frame}-bit frames"
    if not 0 <= p.bit_errors <= p.bits or not math.isclose(p.ber, p.bit_errors / p.bits, abs_tol=1e-15):
        return f"ber {p.ber} inconsistent with {p.bit_errors} errors in {p.bits} bits"
    ref = reference.get(p.snr_db)
    if ref is None:
        return "no reference BER"
    sigmas = max(POINT_K * ref["max_abs_z"], workload.tail_sigmas.get(p.snr_db, 0.0))
    if abs(p.ber - ref["ber"]) > sigmas * ref["sd"]:
        return f"ber {p.ber:.4g} outside {ref['ber']:.4g} +- {sigmas:.3g} x {ref['sd']:.3g}"
    if workload.gamma_tol is not None:
        expected = p.bits // frame * workload.lms_updates_per_frame
        if p.lms_updates != expected:
            return f"{p.lms_updates} LMS updates, expected {expected}"
        miss = abs(p.gamma_final - GAMMA_TRUE)
        if not miss < workload.gamma_tol:
            return f"final |gamma - gamma_true| = {miss:.4g} >= {workload.gamma_tol:g}"
    return None


def check_pooled(reference: dict[float, dict], seeds: int, pooled: dict[float, list[Point]]) -> dict[float, str]:
    """Per SNR, a message if the BER pooled over distinct reps leaves its band.

    The band's deviation combines the run's sampling error over its reps
    with the reference's own over its calibration seeds.
    """
    problems = {}
    for snr_db, points in pooled.items():
        ref = reference.get(snr_db)
        if ref is None or not points:
            continue
        ber = sum(p.bit_errors for p in points) / sum(p.bits for p in points)
        limit = POOLED_SIGMAS * ref["sd"] * math.sqrt(1.0 / len(points) + 1.0 / seeds)
        if abs(ber - ref["ber"]) > limit:
            problems[snr_db] = (f"snr={snr_db:g}: BER {ber:.5g} pooled over {len(points)} reps "
                                f"outside {ref['ber']:.5g} +- {limit:.3g}")
    return problems
