"""Unit tests for the subcarrier pairing and the time-domain oracle's modem."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as stn

from dstbc_ofdm import ConfigError, SimConfig, pair_bins, pair_image

from timechain import ofdm_demodulate, ofdm_modulate


def test_config_validation():
    # the modem takes any grid; the simulation config bounds it
    with pytest.raises(ConfigError, match="power of two"):
        SimConfig(n_subcarriers=48, cp_len=10).validate()
    with pytest.raises(ConfigError, match="cp_len must lie"):
        SimConfig(n_subcarriers=64, cp_len=64).validate()
    with pytest.raises(ConfigError, match="cp_len must lie"):
        SimConfig(n_subcarriers=64, cp_len=0).validate()
    SimConfig(n_subcarriers=64, cp_len=63).validate()
    # the largest grid is accepted, the next power of two is not
    SimConfig(n_subcarriers=2**15).validate()
    with pytest.raises(ConfigError, match=r"^n_subcarriers 2\*\*16 exceeds the largest grid, 2\*\*15$"):
        SimConfig(n_subcarriers=2**16)


def test_active_subcarriers_default_grid():
    bins = pair_bins(64)
    assert len(bins) == 62
    assert 0 not in bins and 32 not in bins
    # the lower members of the pairs ascend from bin 1
    assert bins[:31].tolist() == list(range(1, 32))


def test_mirror_index_pairing():
    bins = pair_bins(64)
    mirror = dict(zip(bins[:31].tolist(), bins[31:].tolist()))
    assert mirror[1] == 63
    assert mirror[16] == 48
    assert mirror[31] == 33
    # every active bin appears exactly once
    assert sorted(bins.tolist()) == [k for k in range(1, 64) if k != 32]
    # pair_image puts the conjugate of each bin's mirror at its position,
    # and applied twice gives the spectra back
    rng = np.random.default_rng(7)
    spectrum = rng.standard_normal((3, 64)) + 1j * rng.standard_normal((3, 64))
    image = pair_image(spectrum[:, bins])
    np.testing.assert_array_equal(image, np.conj(spectrum[:, (64 - bins) % 64]))
    np.testing.assert_array_equal(pair_image(image), spectrum[:, bins])


@pytest.mark.parametrize("n", [2, 4, 8, 16, 64])
def test_modem_is_unitary(n):
    # without a prefix, demodulating the unit vectors gives the DFT matrix
    w = ofdm_demodulate(np.eye(n, dtype=complex), 0)
    grid = np.outer(np.arange(n), np.arange(n))
    np.testing.assert_allclose(w, np.exp(-2j * np.pi * grid / n) / np.sqrt(n), atol=1e-12)
    np.testing.assert_allclose(w @ w.conj().T, np.eye(n), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(stn.integers(min_value=1, max_value=7), stn.integers(min_value=0, max_value=2**31 - 1))
def test_modem_round_trip_and_parseval(log2n, seed):
    n = 2**log2n
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y = ofdm_demodulate(x, 0)
    np.testing.assert_allclose(ofdm_modulate(y, 0), x, atol=1e-10)
    # unitary scaling preserves energy
    assert np.sum(np.abs(y) ** 2) == pytest.approx(np.sum(np.abs(x) ** 2), rel=1e-10)


def test_modulate_inserts_cp_and_nulls_guards(rng):
    freq = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    freq[0] = 0.0
    freq[32] = 0.0
    samples = ofdm_modulate(freq, 20)
    assert samples.shape == (84,)
    np.testing.assert_array_equal(samples[:20], samples[64:])
    # over leading axes, each row is modulated on its own
    rows = ofdm_modulate(np.stack([freq, 2.0 * freq]), 20)
    assert rows.shape == (2, 84)
    np.testing.assert_array_equal(rows[0], samples)


def test_round_trip(rng):
    freq = np.zeros(64, dtype=complex)
    freq[pair_bins(64)] = rng.standard_normal(62) + 1j * rng.standard_normal(62)
    np.testing.assert_allclose(ofdm_demodulate(ofdm_modulate(freq, 20), 20), freq, atol=1e-12)


def test_cp_turns_linear_convolution_circular(rng):
    # linear channel convolution across the CP boundary must look circular
    h = np.zeros(21, dtype=complex)
    h[[0, 3, 20]] = [1.0, 0.4 - 0.2j, -0.1j]
    freq = np.zeros(64, dtype=complex)
    freq[pair_bins(64)] = rng.standard_normal(62) + 1j * rng.standard_normal(62)
    tx = ofdm_modulate(freq, 20)
    rx = np.convolve(tx, h)[: tx.shape[0]]
    demod = ofdm_demodulate(rx, 20)
    np.testing.assert_allclose(demod, freq * np.fft.fft(h, 64), atol=1e-10)
