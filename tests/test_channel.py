"""Unit tests for multipath profiles and the Rayleigh fading generator."""
import numpy as np
import pytest
from scipy.special import j0

from dstbc_ofdm import (
    ConfigError,
    JakesFadingProcess,
    SimConfig,
    custom_profile,
    load_profile,
    realize_fading,
    subcarrier_gains,
    tap_grid,
)

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
    prof = custom_profile((0.0, 150.0, 250.0), (0.0, -3.0, -3.0), 5.0)
    positions, powers = tap_grid(prof, SAMPLE_PERIOD)
    assert positions.tolist() == [0, 1]
    total = 1.0 + 10 ** -0.3 + 10 ** -0.3
    assert powers[1] == pytest.approx(2 * 10 ** -0.3 / total, rel=1e-12)


def test_tap_grid_merges_like_a_loop_in_tap_order(rng):
    # 50 ns steps put up to four taps on one 200 ns grid point
    for _ in range(50):
        delays = np.unique(rng.integers(1, 60, rng.integers(1, 12))) * 50.0
        prof = custom_profile((0.0, *delays), rng.uniform(-20.0, 0.0, delays.size + 1), 5.0)
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
        custom_profile((100.0, 200.0), (0.0, 0.0), 5.0)  # first delay must be zero
    with pytest.raises(ValueError):
        custom_profile((0.0, 200.0, 100.0), (0.0, 0.0, 0.0), 5.0)


def test_profile_names_are_case_sensitive():
    # the one name check, shared with SimConfig, which rejects "ITU-PB" too
    with pytest.raises(ValueError, match="unknown channel profile 'ITU-PB'"):
        load_profile("ITU-PB", 1.0)


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

