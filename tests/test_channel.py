"""Unit tests for multipath profiles and the Rayleigh fading generator."""
import re

import numpy as np
import pytest
from scipy.special import j0

from dstbc_ofdm import (
    ChannelProfile,
    ConfigError,
    JakesFadingProcess,
    SimConfig,
    load_profile,
    realize_fading,
    subcarrier_gains,
    tap_grid,
)
from dstbc_ofdm.channel import PROFILE_NAMES, _PROFILE_TABLES, _oscillators

SAMPLE_PERIOD = 1.0 / 5e6


def fading_rngs(seed):
    """An (angle, weight) generator pair for ``realize_fading``."""
    return np.random.default_rng(seed), np.random.default_rng(seed + 1)


class ReplayedDraws:
    """Stands in for a generator: returns given arrival-angle uniforms and
    weight normals to ``JakesFadingProcess``, one set of each."""

    def __init__(self, uniforms, normals):
        self.uniforms, self.normals = uniforms, normals

    def random(self, size):
        assert self.uniforms.shape == (size,)
        return self.uniforms

    def standard_normal(self, size):
        assert self.normals.shape == size
        return self.normals


def test_pedestrian_profile_sample_grid():
    prof = load_profile("itu-pb", 11.6)
    positions, powers = tap_grid(prof, SAMPLE_PERIOD)
    assert positions.tolist() == [0, 1, 4, 6, 12, 19]
    assert powers.sum() == pytest.approx(1.0, rel=1e-12)


def test_vehicular_profile_sample_grid():
    prof = load_profile("itu-va", 463.0)
    positions, _ = tap_grid(prof, SAMPLE_PERIOD)
    assert positions.tolist() == [0, 2, 4, 5, 9, 13]


def test_flat_profile_single_tap():
    prof = load_profile("flat", 10.0)
    positions, powers = tap_grid(prof, SAMPLE_PERIOD)
    assert positions.tolist() == [0]
    assert powers.tolist() == [1.0]


def test_colliding_delays_merge_power():
    # both taps round to sample 1; their linear powers must add
    prof = load_profile("custom", 5.0, (0.0, 150.0, 250.0), (0.0, -3.0, -3.0))
    positions, powers = tap_grid(prof, SAMPLE_PERIOD)
    assert positions.tolist() == [0, 1]
    total = 1.0 + 10 ** -0.3 + 10 ** -0.3
    assert powers[1] == pytest.approx(2 * 10 ** -0.3 / total, rel=1e-12)


def test_tap_grid_merges_like_a_loop_in_tap_order(rng):
    # 50 ns steps put up to four taps on one 200 ns grid point
    for _ in range(50):
        delays = np.unique(rng.integers(1, 60, rng.integers(1, 12))) * 50.0
        prof = load_profile("custom", 5.0, (0.0, *delays), rng.uniform(-20.0, 0.0, delays.size + 1))
        grid = np.floor(np.asarray(prof.tap_delays_s) / SAMPLE_PERIOD + 0.5).astype(int)
        expected = {}
        for pos, pwr in zip(grid.tolist(), prof.tap_powers_linear.tolist()):
            expected[pos] = expected.get(pos, 0.0) + pwr
        positions, powers = tap_grid(prof, SAMPLE_PERIOD)
        assert positions.tolist() == sorted(expected)
        assert powers.tolist() == [expected[pos] for pos in sorted(expected)]
        assert not positions.flags.writeable and not powers.flags.writeable


def test_profile_validation():
    with pytest.raises(ValueError):
        load_profile("cost207", 10.0)
    with pytest.raises(ValueError):
        load_profile("itu-pb", -1.0)
    with pytest.raises(ValueError):
        load_profile("custom", 5.0, (100.0, 200.0), (0.0, 0.0))  # first delay must be zero
    with pytest.raises(ValueError):
        load_profile("custom", 5.0, (0.0, 200.0, 100.0), (0.0, 0.0, 0.0))


def realize_one_frame(sample_period=SAMPLE_PERIOD, n_ofdm_symbols=2, samples_per_symbol=84):
    return realize_fading(
        load_profile("flat", 10.0), sample_period, n_ofdm_symbols, *fading_rngs(0),
        samples_per_symbol=samples_per_symbol, frames=1,
    )


@pytest.mark.parametrize(
    "call, message",
    [
        # no table may carry a non-finite value: tap_grid would cast a NaN
        # delay to an arbitrary integer sample and return NaN powers
        (lambda: load_profile("custom", np.nan, (0.0, np.nan, 300.0), (0.0, -3.0, np.nan)), "must be finite"),
        (lambda: load_profile("custom", 5.0, (0.0, np.nan), (0.0, -3.0)), "must be finite"),
        (lambda: load_profile("custom", 5.0, (0.0, np.inf), (0.0, -3.0)), "must be finite"),
        (lambda: load_profile("custom", 5.0, (0.0, 100.0), (0.0, -np.inf)), "must be finite"),
        (lambda: load_profile("custom", 5.0, (0.0, 100.0), (0.0, np.nan)), "must be finite"),
        (lambda: load_profile("itu-pb", np.nan), "must be finite"),
        (lambda: load_profile("flat", np.inf), "must be finite"),
        (lambda: load_profile("custom", 5.0, (0.0, 100.0), (0.0,)), "matching, non-empty"),
        (lambda: load_profile("custom", 5.0, (), ()), "matching, non-empty"),
        (lambda: JakesFadingProcess(0.0, 10.0, np.random.default_rng(0)), "mean_power must be positive"),
        (lambda: JakesFadingProcess(-1.0, 10.0, np.random.default_rng(0)), "mean_power must be positive"),
        (lambda: realize_one_frame(sample_period=0.0), "sample_period must be positive"),
        (lambda: realize_one_frame(n_ofdm_symbols=0), "need at least one OFDM symbol"),
        (lambda: realize_one_frame(samples_per_symbol=0), "samples_per_symbol must be positive"),
        # finite dB powers whose linear total overflows, or underflows to 0,
        # would normalise to NaN (or all-zero) tap powers
        (lambda: load_profile("custom", 5.0, (0.0, 400.0), (-4000.0, -4000.0)), "no finite linear total"),
        (lambda: load_profile("custom", 5.0, (0.0, 400.0), (0.0, 4000.0)), "no finite linear total"),
        (lambda: load_profile("custom", 5.0, (0.0, 400.0), (3080.0, 3080.0)), "no finite linear total"),
        # an int64 cast would wrap this delay to -2**63 and swap the taps' powers
        (lambda: tap_grid(load_profile("custom", 5.0, (0.0, 1e30), (0.0, -3.0)), SAMPLE_PERIOD),
         "beyond the int64 sample grid"),
        # a flat profile's one delay rounds to sample 0 on any of these periods
        (lambda: tap_grid(load_profile("flat", 5.0), -SAMPLE_PERIOD), "must be positive and finite"),
        (lambda: tap_grid(load_profile("flat", 5.0), np.inf), "must be positive and finite"),
        (lambda: tap_grid(load_profile("flat", 5.0), np.nan), "must be positive and finite"),
        # the phase step per symbol would overflow into all-NaN taps
        (lambda: realize_fading(load_profile("flat", 1e308), SAMPLE_PERIOD, 2, *fading_rngs(0),
                                samples_per_symbol=84, frames=1), "^doppler_hz 1e\\+308 overflows"),
        (lambda: load_profile("itu-pb", 1e10).check_phase_step(1e300), "^doppler_hz 1e\\+10 overflows"),
    ],
    ids=[
        "nan_everywhere", "nan_delay", "inf_delay", "inf_power", "nan_power", "nan_doppler",
        "inf_doppler", "mismatched_tables", "empty_tables", "zero_tap_power", "negative_tap_power",
        "sample_period", "n_ofdm_symbols", "samples_per_symbol", "power_total_underflows",
        "power_overflows", "power_total_overflows", "delay_beyond_int64", "negative_sample_period",
        "inf_sample_period", "nan_sample_period", "doppler_phase_step", "check_phase_step",
    ],
)
def test_channel_inputs_are_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_profile_names_are_case_sensitive():
    # the one name check, shared with SimConfig, which rejects "ITU-PB" too
    with pytest.raises(ValueError, match="unknown channel profile 'ITU-PB'"):
        load_profile("ITU-PB", 1.0)


def test_only_the_custom_profile_takes_tap_tables():
    message = "custom channel requires custom_delays_ns and custom_powers_db"
    for tables in ((None, None), ((0.0, 400.0), None), (None, (0.0, -3.0))):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_profile("custom", 5.0, *tables)
    # the table rule comes before the name check
    for name in ("itu-pb", "flat", "cost207"):
        message = f"custom tap tables require channel 'custom', got {name!r}"
        for tables in (((0.0, 400.0), (0.0, -3.0)), (None, (0.0,)), ((0.0,), None)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                load_profile(name, 5.0, *tables)


def profile_bytes(profile):
    return np.array(profile.tap_delays_s).tobytes(), np.array(profile.tap_powers_db).tobytes()


def test_custom_profile_equals_its_former_constructor(rng):
    # load_profile("custom", ...) forms both tuples as the former
    # custom_profile(delays_ns, powers_db, doppler_hz) did
    tables = [
        ((0.0, 150.0, 250.0), (0.0, -3.0, -3.0)),
        ((0, 310, 2510), (0, -1, -20)),
        (np.array([0.0, 125.5, 3700.0]), rng.uniform(-20.0, 0.0, 3)),
        ([np.float32(0.0), np.int64(200)], [np.float32(-0.0), np.float64(-23.9)]),
    ]
    for delays, powers in tables:
        prof = load_profile("custom", 7.0, delays, powers)
        former = ChannelProfile(
            tap_delays_s=tuple(float(d) * 1e-9 for d in delays),
            tap_powers_db=tuple(float(p) for p in powers),
            doppler_hz=7.0,
        )
        assert prof == former and hash(prof) == hash(former)
        assert profile_bytes(prof) == profile_bytes(former)
        assert all(type(v) is float for v in prof.tap_delays_s + prof.tap_powers_db)


@pytest.mark.parametrize("name", PROFILE_NAMES)
def test_named_profile_equals_its_table(name):
    # the former load_profile scaled the table's delays and kept its powers
    delays_ns, powers_db = _PROFILE_TABLES[name]
    former = ChannelProfile(tuple(d * 1e-9 for d in delays_ns), powers_db, 11.6)
    prof = load_profile(name, 11.6)
    assert prof == former and hash(prof) == hash(former)
    assert profile_bytes(prof) == profile_bytes(former)
    # so tap_grid's cache serves both from one entry
    assert tap_grid(prof, SAMPLE_PERIOD) is tap_grid(former, SAMPLE_PERIOD)


def test_jakes_rejects_small_oscillator_count():
    # the tap process and the engine's draw always use the default count;
    # neither takes another, and both accept the same call without it
    prof = load_profile("flat", 10.0)
    JakesFadingProcess(1.0, 10.0, np.random.default_rng(0))
    realize_fading(prof, SAMPLE_PERIOD, 2, *fading_rngs(0), samples_per_symbol=84, frames=1)
    with pytest.raises(TypeError, match="n_oscillators"):
        JakesFadingProcess(1.0, 10.0, np.random.default_rng(0), n_oscillators=8)
    with pytest.raises(TypeError, match="n_oscillators"):
        realize_fading(
            prof,
            SAMPLE_PERIOD,
            2,
            *fading_rngs(0),
            samples_per_symbol=84,
            frames=1,
            n_oscillators=1,
        )


def test_jakes_marginal_is_complex_gaussian():
    # weights are Gaussian, so single-time marginals are exactly CN(0, P)
    rng = np.random.default_rng(42)
    power = 0.7
    draws = np.array(
        [JakesFadingProcess(power, 20.0, rng).sample(np.array([0.3]))[0] for _ in range(4000)]
    )
    assert np.mean(draws.real) == pytest.approx(0.0, abs=4 * np.sqrt(power / 2 / 4000))
    assert np.var(draws.real) + np.var(draws.imag) == pytest.approx(power, rel=0.1)
    # real and imaginary parts uncorrelated
    assert np.mean(draws.real * draws.imag) == pytest.approx(0.0, abs=0.05)


def test_jakes_zero_doppler_is_constant():
    rng = np.random.default_rng(3)
    proc = JakesFadingProcess(1.0, 0.0, rng)
    values = proc.sample(np.array([0.0, 1.0, 2.0, 100.0]))
    np.testing.assert_allclose(values, values[0], atol=1e-12)


def test_realization_shape_and_determinism():
    prof = load_profile("itu-pb", 11.6)
    taps_a, taps_b = (
        realize_fading(prof, SAMPLE_PERIOD, 10, *fading_rngs(99), samples_per_symbol=84, frames=1)
        for _ in range(2)
    )
    assert taps_a.shape == (1, 10, 2, 6)
    np.testing.assert_array_equal(taps_a, taps_b)
    assert not taps_a.flags.writeable
    # the two antennas fade independently
    assert not np.allclose(taps_a[..., 0, :], taps_a[..., 1, :])


def test_jakes_process_draw_order():
    # the tap's generator gives the angles, then the real parts of the
    # weights, then their imaginary parts
    times = np.linspace(0.0, 0.05, 9)
    rng = np.random.default_rng(17)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=32)
    weights = np.sqrt(0.3 / 64) * (rng.standard_normal(32) + 1j * rng.standard_normal(32))
    expected = np.exp(1j * np.outer(times, 2.0 * np.pi * 40.0 * np.cos(angles))) @ weights
    actual = JakesFadingProcess(0.3, 40.0, np.random.default_rng(17)).sample(times)
    assert np.array_equal(actual, expected)


def _weights_oracle(mean_power, normals):
    """The oscillator weights as one complex expression."""
    scale = np.sqrt(mean_power / (2.0 * normals.shape[-1]))
    return scale * (normals[..., 0, :] + 1j * normals[..., 1, :])


def test_process_weights_equal_their_complex_oracle(rng):
    # a scalar mean power, as JakesFadingProcess passes it
    for power in (0.3, 1.0, 1e-9, 7.25):
        uniforms = rng.random(32)
        normals = rng.standard_normal((2, 32))
        rates, weights = _oscillators(power, 40.0, uniforms, normals)
        assert weights.shape == (32,)
        assert weights.tobytes() == _weights_oracle(power, normals).tobytes()
        assert rates.tobytes() == (2.0 * np.pi * 40.0 * np.cos(2.0 * np.pi * uniforms)).tobytes()


@pytest.mark.parametrize("frames, n_taps", [(1, 1), (1, 13), (4, 6), (21, 5), (200, 1), (200, 13)])
def test_realization_weights_equal_their_complex_oracle(frames, n_taps, rng):
    # (tap, 1) powers broadcast against (frame, antenna, tap, oscillator), as
    # realize_fading passes them
    powers = rng.random(n_taps)
    powers /= powers.sum()
    uniforms = rng.random((frames, 2, n_taps, 32))
    normals = rng.standard_normal((frames, 2, n_taps, 2, 32))
    _, weights = _oscillators(powers[:, None], 11.6, uniforms, normals)
    assert weights.shape == uniforms.shape
    assert weights.tobytes() == _weights_oracle(powers[:, None], normals).tobytes()


@pytest.mark.parametrize(
    "name, doppler, n_sym, frames",
    [
        ("itu-pb", 11.6, 42, 1),
        ("itu-va", 463.0, 8, 5),
        ("flat", 30.0, 6, 7),
        ("itu-pb", 0.0, 42, 3),
        ("itu-va", 463.0, 1002, 1),
    ],
)
def test_batched_realization_matches_per_frame_processes(name, doppler, n_sym, frames):
    # every tap of every frame is the JakesFadingProcess fed the same angle
    # and weight draws
    prof = load_profile(name, doppler)
    _, powers = tap_grid(prof, SAMPLE_PERIOD)
    batch = realize_fading(
        prof, SAMPLE_PERIOD, n_sym, *fading_rngs(8), samples_per_symbol=84, frames=frames
    )
    n_taps = powers.shape[0]
    assert batch.shape == (frames, n_sym, 2, n_taps)
    angle_rng, weight_rng = fading_rngs(8)
    uniforms = angle_rng.random((frames, 2, n_taps, 32))
    normals = weight_rng.standard_normal((frames, 2, n_taps, 2, 32))
    times = (np.arange(n_sym) + 0.5) * (84 * SAMPLE_PERIOD)
    for f in range(frames):
        expected = np.empty((n_sym, 2, n_taps), dtype=complex)
        weight_sum = np.empty((2, n_taps))
        for i in range(2):
            for l, power in enumerate(powers):
                draws = ReplayedDraws(uniforms[f, i, l], normals[f, i, l])
                process = JakesFadingProcess(power, doppler, draws)
                expected[:, i, l] = process.sample(times)
                weight_sum[i, l] = np.abs(process._weights).sum()
        if doppler == 0.0:
            # every phasor step is exactly 1, so the draws are checked bit for bit
            assert np.array_equal(batch[f], expected)
        else:
            # the phasor of symbol s is s rounded products past its first
            # value, each off by a few ulps from exp; the sums over the
            # oscillators round on their own
            bound = np.finfo(float).eps * (3 * n_sym + 64) * weight_sum
            assert np.all(np.abs(batch[f] - expected) <= bound)


def test_batch_equals_successive_single_draws():
    prof = load_profile("itu-pb", 11.6)
    rngs_batch = fading_rngs(3)
    rngs_single = fading_rngs(3)
    batch = realize_fading(prof, SAMPLE_PERIOD, 8, *rngs_batch, samples_per_symbol=84, frames=4)
    singles = [
        realize_fading(prof, SAMPLE_PERIOD, 8, *rngs_single, samples_per_symbol=84, frames=1)
        for _ in range(4)
    ]
    assert np.array_equal(batch, np.concatenate(singles))
    assert not batch.flags.writeable
    # both streams end where the four single draws left them
    for batch_rng, single_rng in zip(rngs_batch, rngs_single):
        assert batch_rng.random() == single_rng.random()
    with pytest.raises(ValueError):
        realize_fading(prof, SAMPLE_PERIOD, 8, *fading_rngs(0), samples_per_symbol=84, frames=0)


def test_overflowing_phase_step_draws_nothing():
    angle_rng, weight_rng = fading_rngs(3)
    with pytest.raises(ValueError, match="^doppler_hz "):
        realize_fading(load_profile("itu-pb", 1e308), SAMPLE_PERIOD, 8, angle_rng, weight_rng,
                       samples_per_symbol=84, frames=2)
    fresh = fading_rngs(3)
    assert angle_rng.random() == fresh[0].random() and weight_rng.random() == fresh[1].random()


def test_realization_rejects_delay_spread_beyond_cp():
    # ITU-PB's last tap lands on sample 19; a shorter prefix is refused
    # before any frame is drawn, and a prefix that just covers it is accepted
    for cp_len in (10, 18):
        with pytest.raises(ConfigError, match="delay spread 19 samples exceeds cp_len"):
            SimConfig(channel="itu-pb", doppler_hz=11.6, cp_len=cp_len).validate()
    SimConfig(channel="itu-pb", doppler_hz=11.6, cp_len=19).validate()


def test_tap_powers_match_profile_when_pooled():
    # one realization is not ergodic; pool many independent ones instead
    prof = load_profile("itu-pb", 11.6)
    rngs = fading_rngs(11)
    acc = np.zeros(6)
    n_real, n_sym = 400, 50
    for _ in range(n_real):
        taps = realize_fading(prof, SAMPLE_PERIOD, n_sym, *rngs, samples_per_symbol=84, frames=1)[0]
        acc += np.mean(np.abs(taps) ** 2, axis=(0, 1))
    _, powers = tap_grid(prof, SAMPLE_PERIOD)
    np.testing.assert_allclose(acc / n_real, powers, rtol=0.08)


def test_ensemble_autocorrelation_follows_bessel():
    doppler = 30.0
    lags = np.linspace(0.0, 0.06, 8)
    rng = np.random.default_rng(21)
    acc = np.zeros(len(lags), dtype=complex)
    n_proc = 4000
    for _ in range(n_proc):
        h = JakesFadingProcess(1.0, doppler, rng).sample(lags)
        acc += h[0].conjugate() * h
    estimate = (acc / n_proc).real
    np.testing.assert_allclose(estimate, j0(2 * np.pi * doppler * lags), atol=0.06)


def test_gains_match_explicit_sum(rng):
    # gains[..., n] = sum_l h_l * exp(-2j*pi*n*d_l/N) over any leading axes
    prof = load_profile("itu-pb", 11.6)
    taps = realize_fading(prof, SAMPLE_PERIOD, 3, rng, rng, samples_per_symbol=84, frames=2)
    delays, _ = tap_grid(prof, SAMPLE_PERIOD)
    n = 64
    gains = subcarrier_gains(taps, delays, n)
    assert gains.shape == (2, 3, 2, n)
    phase = np.exp(-2j * np.pi * np.outer(np.arange(n), delays) / n)
    for index in np.ndindex(gains.shape[:-1]):
        np.testing.assert_allclose(gains[index], phase @ taps[index], atol=1e-12)


def test_gains_diagonalize_circular_convolution(rng):
    # per-subcarrier gains are the eigenvalues of the circulant channel matrix
    prof = load_profile("itu-va", 50.0)
    taps = realize_fading(prof, SAMPLE_PERIOD, 2, rng, rng, samples_per_symbol=84, frames=1)[0]
    delays, _ = tap_grid(prof, SAMPLE_PERIOD)
    n = 64
    dense = np.zeros(n, dtype=complex)
    dense[delays] = taps[0, 0]
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y = np.array([np.sum(dense * x[(i - np.arange(n)) % n]) for i in range(n)])
    gains = subcarrier_gains(taps, delays, n)[0, 0]
    np.testing.assert_allclose(np.fft.fft(y), gains * np.fft.fft(x), atol=1e-9)

