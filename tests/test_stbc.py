"""Unit tests for the 2x2 Alamouti reference algebra and the block kernels."""
import itertools
import math

import numpy as np
import pytest

from dstbc_ofdm import (
    alamouti_detect,
    differential_encode,
    ml_differential_detect_indices,
    psk_constellation,
)
from dstbc_ofdm.stbc import INFO_SCALE, alamouti_statistics

import differential_steps
from alamouti import AlamoutiMatrix, alamouti_encode
from conftest import random_alamouti, random_unitary_alamouti

_SQRT2 = math.sqrt(2.0)


def test_matrix_layout():
    m = AlamoutiMatrix(1 + 2j, 3 - 1j)
    expected = np.array([[1 + 2j, 3 - 1j], [-3 - 1j, 1 - 2j]])
    np.testing.assert_array_equal(m.matrix, expected)


def test_identity():
    np.testing.assert_array_equal(AlamoutiMatrix.identity().matrix, np.eye(2))


def test_algebra_matches_explicit_matrices(rng):
    for _ in range(200):
        x = random_alamouti(rng)
        y = random_alamouti(rng)
        np.testing.assert_allclose((x @ y).matrix, x.matrix @ y.matrix, atol=1e-12)
        np.testing.assert_allclose((x + y).matrix, x.matrix + y.matrix, atol=1e-12)
        np.testing.assert_allclose((x - y).matrix, x.matrix - y.matrix, atol=1e-12)
        np.testing.assert_allclose(x.hermitian().matrix, x.matrix.conj().T, atol=1e-12)
        np.testing.assert_allclose(x.conjugate().matrix, x.matrix.conj(), atol=1e-12)
        np.testing.assert_allclose(x.scaled(0.5).matrix, 0.5 * x.matrix, atol=1e-12)
        c = complex(rng.standard_normal() + 1j * rng.standard_normal())
        diag = np.diag([c, c.conjugate()])
        np.testing.assert_allclose(x.diag_mul(c).matrix, diag @ x.matrix, atol=1e-12)
        assert x.frobenius() == pytest.approx(np.linalg.norm(x.matrix), rel=1e-12)
        # the detectors' statistic is the top row of R^H @ Z, R = x and Z = y
        top = x.hermitian() @ y
        np.testing.assert_allclose(
            alamouti_statistics(x.a, x.b, y.a, y.b), (top.a, top.b), rtol=1e-12, atol=1e-12
        )


def test_scaled_rejects_complex_factor():
    with pytest.raises(TypeError):
        AlamoutiMatrix(1.0, 0.0).scaled(1j)


def test_orthogonality_identity(rng):
    # M^H M is always a scaled identity, the defining Alamouti property
    for _ in range(50):
        m = random_alamouti(rng)
        product = m.hermitian() @ m
        assert product.b == pytest.approx(0.0, abs=1e-12)
        assert product.a == pytest.approx(abs(m.a) ** 2 + abs(m.b) ** 2, rel=1e-12)


def test_encode_is_plain_packing():
    m = alamouti_encode(0.5 + 0.5j, -1j)
    assert m.a == 0.5 + 0.5j and m.b == -1j


def test_differential_encode_is_raw_product(rng):
    # the chain starts from the identity, so its second block is prev
    prev = random_unitary_alamouti(rng)
    info = alamouti_encode(1j, -1.0)
    s_a, s_b = differential_encode(np.array([prev.a, info.a]), np.array([prev.b, info.b]))
    assert s_a.shape == s_b.shape == (3,)
    assert (s_a[0], s_b[0]) == (1.0, 0.0)
    np.testing.assert_allclose(
        AlamoutiMatrix(s_a[2], s_b[2]).matrix, prev.matrix @ info.matrix, atol=1e-12
    )


@pytest.mark.parametrize("order", [2, 4, 8, 16])
def test_differential_encode_equals_its_stepwise_oracle_byte_for_byte(order, rng):
    # fed as the link step feeds it: (frame, block, pair) gathers of the
    # scaled points, transposed block first; other forms of the recursion
    # differ in the last bit on some of these shapes
    info_points = psk_constellation(order).points * INFO_SCALE
    for shape in itertools.product((1, 2, 20), (1, 14, 32), (1, 62, 510)):
        blocks, frames, pairs = shape
        idx1, idx2 = rng.integers(0, order, size=(2, frames, blocks, pairs))
        u_a = info_points[idx1].transpose(1, 0, 2)
        u_b = info_points[idx2].transpose(1, 0, 2)
        actual = differential_encode(u_a, u_b)
        expected = differential_steps.differential_encode(u_a, u_b)
        for got, want in zip(actual, expected):
            assert got.shape == (blocks + 1, frames, pairs)
            assert got.tobytes() == want.tobytes(), shape


def test_differential_chain_stays_unitary(rng):
    order = 8
    c = psk_constellation(order)
    pairs = [(c.points[rng.integers(order)], c.points[rng.integers(order)]) for _ in range(100)]
    u = np.array(pairs).T / _SQRT2
    s_a, s_b = differential_encode(u[0], u[1])
    s = AlamoutiMatrix(s_a[-1], s_b[-1])
    np.testing.assert_allclose((s @ s.hermitian()).matrix, np.eye(2), atol=1e-10)


@pytest.mark.parametrize("order", [2, 4, 8, 16])
def test_differential_detect_recovers_noiseless_info(order, rng):
    c = psk_constellation(order)
    for _ in range(100):
        channel = random_alamouti(rng)
        s_k = random_unitary_alamouti(rng)
        i1, i2 = rng.integers(order), rng.integers(order)
        info = alamouti_encode(c.points[i1], c.points[i2])
        z_k = channel @ s_k
        z_next = z_k @ info.scaled(1.0 / _SQRT2)
        assert ml_differential_detect_indices(z_k.a, z_k.b, z_next.a, z_next.b, order) == (i1, i2)
        assert alamouti_detect(z_k.a, z_k.b, z_next.a, z_next.b, order) == (i1, i2)


@pytest.mark.parametrize("order", [2, 4, 8, 16])
def test_coherent_detect_recovers_noiseless_info(order, rng):
    c = psk_constellation(order)
    for _ in range(100):
        channel = random_alamouti(rng)
        i1, i2 = rng.integers(order), rng.integers(order)
        info = alamouti_encode(c.points[i1], c.points[i2])
        z = channel @ info.scaled(1.0 / _SQRT2)
        assert alamouti_detect(channel.a, channel.b, z.a, z.b, order) == (i1, i2)


def test_detect_tie_breaks_to_first_index():
    c = psk_constellation(8)
    zero = AlamoutiMatrix(0.0, 0.0)
    assert ml_differential_detect_indices(zero.a, zero.b, zero.a, zero.b, c.order) == (0, 0)
    assert alamouti_detect(zero.a, zero.b, zero.a, zero.b, c.order) == (0, 0)


def test_detection_invariant_to_positive_scaling(rng):
    c = psk_constellation(8)
    for _ in range(50):
        z_k = random_alamouti(rng)
        z_next = random_alamouti(rng)
        base = ml_differential_detect_indices(z_k.a, z_k.b, z_next.a, z_next.b, c.order)
        k, n = z_k.scaled(7.5), z_next.scaled(7.5)
        assert ml_differential_detect_indices(k.a, k.b, n.a, n.b, c.order) == base


@pytest.mark.parametrize("order", [2, 4, 8, 16])
def test_array_differential_detect_matches_scalar(order, rng):
    # random blocks over two leading axes; the last block pair is all zero
    k_a, k_b, n_a, n_b = rng.standard_normal((4, 3, 40)) + 1j * rng.standard_normal((4, 3, 40))
    for values in (k_a, k_b, n_a, n_b):
        values[-1, -1] = 0.0
    det1, det2 = alamouti_detect(k_a, k_b, n_a, n_b, order)
    assert det1.shape == det2.shape == (3, 40)
    expected = [
        ml_differential_detect_indices(*values, order)
        for values in zip(k_a.flat, k_b.flat, n_a.flat, n_b.flat)
    ]
    assert list(zip(det1.flat, det2.flat)) == expected
    assert (det1[-1, -1], det2[-1, -1]) == (0, 0)


def test_statistics_of_a_large_stack_equal_its_per_frame_calls(rng):
    # 14 default frames of 20 block pairs on 62 pair bins: 17,360 complex
    # values, past numpy's 256 KiB size for multiplying into a temporary in
    # place, while each frame's 1,240 values stay below it
    shape = (14, 20, 62)
    ref_a, ref_b, z_a, z_b = rng.standard_normal((4,) + shape) + 1j * rng.standard_normal((4,) + shape)
    assert ref_a.nbytes > 256 * 1024
    whole = alamouti_statistics(ref_a, ref_b, z_a, z_b)
    frames = [alamouti_statistics(ref_a[f], ref_b[f], z_a[f], z_b[f]) for f in range(shape[0])]
    for stat, per_frame in zip(whole, zip(*frames)):
        assert stat.tobytes() == np.stack(per_frame).tobytes()
