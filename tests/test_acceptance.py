"""End-to-end acceptance checks for the simulator and its analytic models.

Each test evaluates one stated requirement at full bit budgets and prints a
single PASS/FAIL line with the measured numbers.  Shared BER sweeps are
computed once per session in module fixtures.
"""
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.stats
from scipy.special import j0

from dstbc_ofdm import (
    JakesFadingProcess,
    SimConfig,
    ber_closed_form,
    ber_floor,
    derive_iqi_params,
    equivalent_snr,
    gamma_true,
    psk_constellation,
    run_point,
    run_point_with_trace,
    run_sweep,
)
from dstbc_ofdm.compensator import build_residuals
from dstbc_ofdm.stbc import alamouti_detect, ml_differential_detect_indices

from alamouti import alamouti_encode
from conftest import (
    interpolate_snr_at_ber,
    random_alamouti,
    random_unitary_alamouti,
    synthetic_observation,
)

SLOW_DOPPLER_HZ = 11.6  # 5 km/h at a 2.5 GHz carrier
FAST_DOPPLER_HZ = 463.0  # 200 km/h
KAPPA_DB = 2.0
PHI_DEG = 8.0
SEED = 20240
_SQRT2 = math.sqrt(2.0)


def report(passed: bool, name: str, detail: str) -> str:
    line = f"{'PASS' if passed else 'FAIL'} {name}: {detail}"
    print(line)
    return line


@dataclass
class Curve:
    snr_db: list
    ber: list
    elapsed_s: float

    def snr_at(self, target: float) -> float:
        return interpolate_snr_at_ber(self.snr_db, self.ber, target)

    def ber_at(self, snr_db: float) -> float:
        return self.ber[self.snr_db.index(snr_db)]


def sweep(grid, **cfg_kwargs) -> Curve:
    cfg = SimConfig(seed=SEED, snr_grid_db=tuple(float(s) for s in grid), **cfg_kwargs)
    start = time.perf_counter()
    records = run_sweep(cfg)
    return Curve([r.snr_db for r in records], [r.ber for r in records], time.perf_counter() - start)


@pytest.fixture(scope="module")
def ideal_differential() -> Curve:
    return sweep(range(14, 27))


@pytest.fixture(scope="module")
def ideal_coherent() -> Curve:
    return sweep(range(11, 25), detection="coherent")


@pytest.fixture(scope="module")
def impaired_differential() -> Curve:
    grid = [5, 10, 15, 17, 19, 20, 21, 23, 25, 27, 29, 31, 34, 37, 40]
    return sweep(grid, iqi_kappa_db=KAPPA_DB, iqi_phi_deg=PHI_DEG)


@pytest.fixture(scope="module")
def slow_lms() -> Curve:
    return sweep(range(16, 23), iqi_kappa_db=KAPPA_DB, iqi_phi_deg=PHI_DEG, compensation="lms")


@pytest.fixture(scope="module")
def slow_genie() -> Curve:
    return sweep(
        range(16, 23), iqi_kappa_db=KAPPA_DB, iqi_phi_deg=PHI_DEG, compensation="genie_gamma"
    )


@pytest.fixture(scope="module")
def fast_ideal() -> Curve:
    return sweep(range(16, 24), channel="itu-va", doppler_hz=FAST_DOPPLER_HZ)


@pytest.fixture(scope="module")
def fast_lms() -> Curve:
    return sweep(
        range(16, 24),
        channel="itu-va",
        doppler_hz=FAST_DOPPLER_HZ,
        iqi_kappa_db=KAPPA_DB,
        iqi_phi_deg=PHI_DEG,
        compensation="lms",
    )


@pytest.fixture(scope="module")
def fast_genie() -> Curve:
    return sweep(
        range(16, 24),
        channel="itu-va",
        doppler_hz=FAST_DOPPLER_HZ,
        iqi_kappa_db=KAPPA_DB,
        iqi_phi_deg=PHI_DEG,
        compensation="genie_gamma",
    )


def test_noiseless_paths_deliver_zero_errors():
    start = time.perf_counter()
    failures = []
    total_bits = 0
    for channel in ("itu-pb", "itu-va", "flat"):
        for detection in ("differential", "coherent"):
            for doppler in (0.0, SLOW_DOPPLER_HZ):
                cfg = SimConfig(
                    channel=channel,
                    doppler_hz=doppler,
                    detection=detection,
                    min_bits=100_000,
                    seed=SEED,
                )
                record = run_point(cfg, math.inf)
                total_bits += record.bits
                if record.bit_errors:
                    failures.append((channel, detection, doppler, record.bit_errors))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 10.0
    report(
        ok,
        "noiseless exactness",
        f"{total_bits} bits over 3 profiles x 2 detectors x 2 Dopplers, "
        f"failures={failures}, {elapsed:.1f}s (limit 10s)",
    )
    assert not failures
    assert elapsed < 10.0


def test_coherent_detection_gains_three_db(ideal_differential, ideal_coherent):
    gaps = {}
    for target in (1e-2, 1e-3):
        gaps[target] = ideal_differential.snr_at(target) - ideal_coherent.snr_at(target)
    elapsed = ideal_differential.elapsed_s + ideal_coherent.elapsed_s
    ok = all(2.25 <= g <= 3.75 for g in gaps.values()) and elapsed < 300.0
    report(
        ok,
        "coherent/differential gap",
        f"gap@1e-2={gaps[1e-2]:.2f} dB, gap@1e-3={gaps[1e-3]:.2f} dB "
        f"(window [2.25, 3.75]), {elapsed:.0f}s (limit 300s)",
    )
    for target, gap in gaps.items():
        assert 2.25 <= gap <= 3.75, f"gap at BER {target:g} is {gap:.2f} dB"
    assert elapsed < 300.0


def test_high_snr_ber_matches_floor_integral(impaired_differential):
    rho = derive_iqi_params(KAPPA_DB, PHI_DEG).rho
    predicted = ber_floor(8, rho)
    simulated = impaired_differential.ber_at(40.0)
    rel_err = (simulated - predicted) / predicted
    ok = abs(rel_err) <= 0.30 and impaired_differential.elapsed_s < 300.0
    report(
        ok,
        "error-floor level",
        f"simulated@40dB={simulated:.4g}, integral={predicted:.4g}, "
        f"relative error {rel_err:+.1%} (limit 30%), {impaired_differential.elapsed_s:.0f}s",
    )
    assert abs(rel_err) <= 0.30
    assert impaired_differential.elapsed_s < 300.0


def test_floor_onset_snr_in_predicted_window(impaired_differential):
    irr_db = derive_iqi_params(KAPPA_DB, PHI_DEG).irr_db
    floor_value = impaired_differential.ber_at(40.0)
    onset_db = impaired_differential.snr_at(2.0 * floor_value)
    low, high = irr_db + 10.0 - 3.0, irr_db + 10.0 + 3.0
    ok = low <= onset_db <= high
    report(
        ok,
        "floor onset",
        f"BER first within 2x of the 40 dB value at {onset_db:.2f} dB, "
        f"required window [{low:.2f}, {high:.2f}] dB",
    )
    assert low <= onset_db <= high


def test_floor_crossing_of_clean_curve_near_irr(ideal_differential, impaired_differential):
    irr_db = derive_iqi_params(KAPPA_DB, PHI_DEG).irr_db
    floor_value = impaired_differential.ber_at(40.0)
    crossing_db = ideal_differential.snr_at(floor_value)
    low, high = irr_db - 0.5, irr_db + 2.0
    ok = low <= crossing_db <= high
    report(
        ok,
        "equivalent ideal SNR",
        f"imbalance-free curve reaches the floor ({floor_value:.4g}) at "
        f"{crossing_db:.2f} dB, window [{low:.2f}, {high:.2f}] dB",
    )
    assert low <= crossing_db <= high


def test_closed_form_tracks_simulation(impaired_differential):
    rho = derive_iqi_params(KAPPA_DB, PHI_DEG).rho
    worst = 0.0
    details = []
    for snr_db in (5.0, 10.0, 15.0, 20.0, 25.0):
        simulated = impaired_differential.ber_at(snr_db)
        model = ber_closed_form(8, equivalent_snr(10.0 ** (snr_db / 10.0), rho))
        factor = max(simulated / model, model / simulated)
        worst = max(worst, factor)
        details.append(f"{snr_db:g}dB x{factor:.2f}")
    ok = worst <= 2.5
    report(
        ok,
        "closed-form sanity",
        f"model-vs-simulation factor per point: {', '.join(details)} (limit 2.5)",
    )
    assert worst <= 2.5


def test_compensation_restores_clean_performance(
    ideal_differential, slow_lms, slow_genie, fast_ideal, fast_lms, fast_genie
):
    target = 1e-2
    gaps = {}
    for label, clean, lms, genie in (
        ("slow", ideal_differential, slow_lms, slow_genie),
        ("fast", fast_ideal, fast_lms, fast_genie),
    ):
        reference = clean.snr_at(target)
        gaps[label] = (lms.snr_at(target) - reference, genie.snr_at(target) - reference)
    elapsed = sum(
        c.elapsed_s
        for c in (ideal_differential, slow_lms, slow_genie, fast_ideal, fast_lms, fast_genie)
    )
    ok = (
        all(abs(lms_gap) <= 1.0 and abs(genie_gap) <= 0.5 for lms_gap, genie_gap in gaps.values())
        and elapsed < 600.0
    )
    report(
        ok,
        "compensation efficacy",
        f"SNR penalty at BER 1e-2: slow lms {gaps['slow'][0]:+.2f} dB, genie {gaps['slow'][1]:+.2f} dB; "
        f"fast lms {gaps['fast'][0]:+.2f} dB, genie {gaps['fast'][1]:+.2f} dB "
        f"(limits 1.0/0.5 dB), {elapsed:.0f}s (limit 600s)",
    )
    for label, (lms_gap, genie_gap) in gaps.items():
        assert abs(lms_gap) <= 1.0, f"{label} lms penalty {lms_gap:+.2f} dB"
        assert abs(genie_gap) <= 0.5, f"{label} genie penalty {genie_gap:+.2f} dB"
    assert elapsed < 600.0


def test_fading_statistics_match_reference_laws():
    rng = np.random.default_rng(SEED)
    doppler = 30.0
    # sample spacing at the first Bessel zero kills lag-one correlation
    spacing = 2.40482555769577 / (2.0 * math.pi * doppler)
    n_real, per_real = 20_000, 50
    times = np.arange(per_real) * spacing
    ratios = np.empty(n_real * per_real)
    for i in range(n_real):
        num = (
            np.abs(JakesFadingProcess(1.0, doppler, rng).sample(times)) ** 2
            + np.abs(JakesFadingProcess(1.0, doppler, rng).sample(times)) ** 2
        )
        den = (
            np.abs(JakesFadingProcess(1.0, doppler, rng).sample(times)) ** 2
            + np.abs(JakesFadingProcess(1.0, doppler, rng).sample(times)) ** 2
        )
        ratios[i * per_real : (i + 1) * per_real] = num / den
    mean = float(ratios.mean())
    ks = scipy.stats.kstest(ratios, scipy.stats.f(4, 4).cdf).statistic

    lags = np.linspace(0.0, 0.1, 12)
    acc = np.zeros(len(lags), dtype=complex)
    n_corr = 20_000
    for _ in range(n_corr):
        h = JakesFadingProcess(1.0, doppler, rng).sample(lags)
        acc += h[0].conjugate() * h
    corr_dev = float(np.max(np.abs((acc / n_corr).real - j0(2 * np.pi * doppler * lags))))

    ok = abs(mean - 2.0) <= 0.04 and ks < 0.005 and corr_dev < 0.05
    report(
        ok,
        "fading statistics",
        f"power-ratio mean {mean:.3f} (want 2 +-2%), KS {ks:.4f} (<0.005), "
        f"max autocorrelation deviation {corr_dev:.3f} (<0.05) at {ratios.size} draws",
    )
    assert abs(mean - 2.0) <= 0.04
    assert ks < 0.005
    assert corr_dev < 0.05


def test_detectors_match_exhaustive_search():
    rng = np.random.default_rng(SEED + 1)
    c = psk_constellation(8)
    candidates = [
        (i1, i2, alamouti_encode(c.points[i1], c.points[i2]).scaled(1.0 / _SQRT2))
        for i1 in range(8)
        for i2 in range(8)
    ]
    mismatches = 0
    trials = 10_000
    for t in range(trials):
        channel = random_alamouti(rng)
        i1, i2 = int(rng.integers(8)), int(rng.integers(8))
        ratio = candidates[8 * i1 + i2][2]
        if t % 2 == 0:
            z_k = (channel @ random_unitary_alamouti(rng)) + random_alamouti(rng, 0.35)
            z_next = (z_k @ ratio) + random_alamouti(rng, 0.35)
            fast = ml_differential_detect_indices(z_k.a, z_k.b, z_next.a, z_next.b, c.order)
            best = min(
                candidates, key=lambda cand: (z_next - z_k @ cand[2]).frobenius()
            )
        else:
            z = (channel @ ratio) + random_alamouti(rng, 0.35)
            fast = alamouti_detect(channel.a, channel.b, z.a, z.b, c.order)
            best = min(candidates, key=lambda cand: (z - channel @ cand[2]).frobenius())
        if fast != (best[0], best[1]):
            mismatches += 1
    ok = mismatches == 0
    report(
        ok,
        "detector oracle",
        f"{mismatches} mismatches against exhaustive 64-candidate search over {trials} noisy trials",
    )
    assert mismatches == 0


def test_compensator_nulls_and_converges():
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    for _ in range(100):
        params = derive_iqi_params(
            float(rng.uniform(0.5, 3.0)), float(rng.uniform(-10.0, 10.0))
        )
        target = gamma_true(params)
        obs, ratio, _, _ = synthetic_observation(rng, params)
        for xi, delta in build_residuals(obs, ratio.a, ratio.b):
            worst = max(worst, abs(xi + target * delta))
    nulls_ok = worst <= 1e-10

    cfg = SimConfig(
        iqi_kappa_db=KAPPA_DB,
        iqi_phi_deg=PHI_DEG,
        compensation="lms",
        min_bits=30_000,
        seed=SEED,
    )
    _, trace = run_point_with_trace(cfg, 30.0)
    target = gamma_true(derive_iqi_params(KAPPA_DB, PHI_DEG))
    errors = np.abs(trace - target)
    # trace holds two updates per block-pair observation
    budget_updates = 2 * 2000
    within = errors[:budget_updates] < 0.02
    first_obs = (int(np.argmax(within)) // 2 + 1) if within.any() else None
    converged = within.any() and errors[budget_updates - 1] < 0.02
    ok = nulls_ok and converged
    report(
        ok,
        "compensator exactness",
        f"worst residual with exact gamma {worst:.2e} (<=1e-10) over 100 draws; "
        f"LMS first within 0.02 after {first_obs} block pairs, "
        f"error {errors[budget_updates - 1]:.4f} at the 2000-pair budget",
    )
    assert nulls_ok
    assert converged
