"""Unit tests for DFT helpers, Gray labels and PSK constellations."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as stn

from dstbc_ofdm import (
    bits_to_indices,
    dft,
    dft_matrix,
    gray_decode,
    gray_encode,
    idft,
    indices_to_bits,
    nearest_psk_indices,
    psk_constellation,
    psk_demodulate,
    psk_modulate,
)
from dstbc_ofdm.numerics import nearest_psk_index


@pytest.mark.parametrize("n", [2, 4, 8, 16, 64])
def test_dft_matrix_unitary(n):
    w = dft_matrix(n)
    np.testing.assert_allclose(w @ w.conj().T, np.eye(n), atol=1e-12)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_small_dft_is_exact_matrix_product(n):
    # small transforms must agree bit for bit with the explicit matrix form
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.array_equal(dft(x), dft_matrix(n) @ x)


def test_dft_rejects_bad_sizes():
    with pytest.raises(ValueError):
        dft(np.ones(3, dtype=complex))
    with pytest.raises(ValueError):
        dft(np.ones((4, 4), dtype=complex))
    with pytest.raises(ValueError):
        idft(np.ones(12, dtype=complex))


@settings(max_examples=40, deadline=None)
@given(stn.integers(min_value=1, max_value=7), stn.integers(min_value=0, max_value=2**31 - 1))
def test_dft_round_trip_and_parseval(log2n, seed):
    n = 2**log2n
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y = dft(x)
    np.testing.assert_allclose(idft(y), x, atol=1e-10)
    # unitary scaling preserves energy
    assert np.sum(np.abs(y) ** 2) == pytest.approx(np.sum(np.abs(x) ** 2), rel=1e-10)


def test_gray_codes_invert():
    for v in range(256):
        assert gray_decode(gray_encode(v)) == v


@pytest.mark.parametrize("order", [2, 4, 8, 16])
def test_gray_labels_of_neighbours_differ_in_one_bit(order):
    c = psk_constellation(order)
    labels = c.bits_of_index
    for g in range(order):
        diff = labels[g] ^ labels[(g + 1) % order]
        assert bin(int(diff)).count("1") == 1


@pytest.mark.parametrize("order", [2, 4, 8, 16])
def test_constellation_structure(order):
    c = psk_constellation(order)
    assert c.order == order
    np.testing.assert_allclose(np.abs(c.points), 1.0, atol=1e-12)
    np.testing.assert_allclose(c.points[0], 1.0, atol=1e-12)
    # label map is a bijection and its own inverse table
    assert sorted(c.bits_of_index.tolist()) == list(range(order))
    for g in range(order):
        assert c.index_of_bits[c.bits_of_index[g]] == g
    assert not c.points.flags.writeable


def test_unsupported_order_rejected():
    for bad in (3, 5, 32, 0, -8):
        with pytest.raises(ValueError):
            psk_constellation(bad)


@pytest.mark.parametrize("order", [2, 4, 8, 16])
def test_bits_indices_round_trip(order, rng):
    bps = psk_constellation(order).bits_per_symbol
    bits = rng.integers(0, 2, size=60 * bps)
    idx = bits_to_indices(bits, order)
    np.testing.assert_array_equal(indices_to_bits(idx, order), bits)


def test_bits_to_indices_msb_first():
    # (1,1,0) must read as 6, not as 3, so the first bit is the most significant
    idx = bits_to_indices([1, 1, 0], 8)
    assert psk_constellation(8).bits_of_index[idx[0]] == 0b110


def test_bits_to_indices_validation():
    with pytest.raises(ValueError):
        bits_to_indices([1, 0], 8)
    with pytest.raises(ValueError):
        bits_to_indices([1, 2, 0], 8)


@pytest.mark.parametrize("order", [2, 4, 8, 16])
def test_modulate_demodulate_round_trip(order, rng):
    bps = psk_constellation(order).bits_per_symbol
    bits = rng.integers(0, 2, size=200 * bps)
    np.testing.assert_array_equal(psk_demodulate(psk_modulate(bits, order), order), bits)


@pytest.mark.parametrize("order", [2, 4, 8, 16])
def test_nearest_indices_agree_with_demodulate(order, rng):
    values = rng.standard_normal(500) + 1j * rng.standard_normal(500)
    indices = nearest_psk_indices(values, order)
    np.testing.assert_array_equal(
        indices_to_bits(indices, order),
        psk_demodulate(values, order),
    )
    assert [nearest_psk_index(v, order) for v in values.tolist()] == indices.tolist()


def test_nearest_indices_scale_invariant():
    c = psk_constellation(8)
    vals = 37.0 * c.points * np.exp(1j * 0.1)
    np.testing.assert_array_equal(nearest_psk_indices(vals, 8), np.arange(8))


def test_nearest_index_scalar_method():
    c = psk_constellation(8)
    for g in range(8):
        assert c.nearest_index(1.3 * c.points[g]) == g
