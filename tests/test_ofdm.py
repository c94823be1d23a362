"""Unit tests for the cyclic-prefix modem and subcarrier pairing."""
import numpy as np
import pytest

from dstbc_ofdm import (
    OfdmConfig,
    mirror_index,
    ofdm_demodulate,
    ofdm_modulate,
)


def test_config_validation():
    with pytest.raises(ValueError):
        OfdmConfig(n_subcarriers=48, cp_len=10)
    with pytest.raises(ValueError):
        OfdmConfig(n_subcarriers=64, cp_len=64)
    with pytest.raises(ValueError):
        OfdmConfig(n_subcarriers=64, cp_len=0)


def test_active_subcarriers_default_grid():
    cfg = OfdmConfig()
    active = cfg.active_subcarriers
    assert cfg.n_active == 62
    assert len(active) == 62
    assert 1 not in active and 33 not in active
    assert active[0] == 2 and active[-1] == 64
    assert cfg.active_indices0.tolist() == [n - 1 for n in active]
    assert list(cfg.lower_pair_subcarriers) == list(range(2, 33))


def test_mirror_index_pairing():
    assert mirror_index(2, 64) == 64
    assert mirror_index(64, 64) == 2
    assert mirror_index(17, 64) == 49
    assert mirror_index(32, 64) == 34
    for n in OfdmConfig().active_subcarriers:
        assert mirror_index(mirror_index(n, 64), 64) == n


def test_mirror_index_rejects_guards():
    for bad in (1, 33, 0, 65):
        with pytest.raises(ValueError):
            mirror_index(bad, 64)


def test_modulate_inserts_cp_and_nulls_guards(rng):
    cfg = OfdmConfig()
    freq = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    freq[0] = 0.0
    freq[32] = 0.0
    samples = ofdm_modulate(freq, cfg)
    assert samples.shape == (84,)
    np.testing.assert_array_equal(samples[:20], samples[64:])


def test_modulate_rejects_loaded_guard_bins(rng):
    cfg = OfdmConfig()
    freq = np.zeros(64, dtype=complex)
    freq[0] = 1.0
    with pytest.raises(ValueError):
        ofdm_modulate(freq, cfg)


def test_round_trip(rng):
    cfg = OfdmConfig()
    freq = np.zeros(64, dtype=complex)
    freq[cfg.active_indices0] = rng.standard_normal(62) + 1j * rng.standard_normal(62)
    np.testing.assert_allclose(ofdm_demodulate(ofdm_modulate(freq, cfg), cfg), freq, atol=1e-12)


def test_cp_turns_linear_convolution_circular(rng):
    # linear channel convolution across the CP boundary must look circular
    cfg = OfdmConfig()
    h = np.zeros(21, dtype=complex)
    h[[0, 3, 20]] = [1.0, 0.4 - 0.2j, -0.1j]
    freq = np.zeros(64, dtype=complex)
    freq[cfg.active_indices0] = rng.standard_normal(62) + 1j * rng.standard_normal(62)
    tx = ofdm_modulate(freq, cfg)
    rx = np.convolve(tx, h)[: tx.shape[0]]
    demod = ofdm_demodulate(rx, cfg)
    np.testing.assert_allclose(demod, freq * np.fft.fft(h, 64), atol=1e-10)


def test_demodulate_length_check(rng):
    cfg = OfdmConfig()
    with pytest.raises(ValueError):
        ofdm_demodulate(np.zeros(83, dtype=complex), cfg)
