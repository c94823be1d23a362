"""Unit tests for Gray labels, PSK constellations, the PSK decision rule and
the CPython-form complex product."""
import math

import numpy as np
import pytest

from dstbc_ofdm import nearest_psk_indices, psk_constellation
from dstbc_ofdm.numerics import (
    SUPPORTED_PSK_ORDERS,
    nearest_psk_index,
    psk_decisions_with_margin,
    split_factor,
    split_product,
)
from dstbc_ofdm.stbc import INFO_SCALE

from conftest import bits_to_indices, indices_to_bits


def test_gray_codes_invert():
    for order in SUPPORTED_PSK_ORDERS:
        c = psk_constellation(order)
        for v in range(order):
            # index g carries the pattern at position g of the
            # binary-reflected Gray sequence
            assert c.bits_of_index[v] == v ^ (v >> 1)


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
    # label map is a bijection
    assert sorted(c.bits_of_index.tolist()) == list(range(order))
    assert not c.points.flags.writeable


@pytest.mark.parametrize("order", [2, 4, 8, 16])
def test_bit_error_table_counts_the_differing_label_bits(order):
    c = psk_constellation(order)
    assert c.bit_errors.shape == (order * order,)
    assert not c.bit_errors.flags.writeable
    # cached with the constellation: one table per order
    assert psk_constellation(order).bit_errors is c.bit_errors
    for decided in range(order):
        for sent in range(order):
            expected = bin(int(c.bits_of_index[decided] ^ c.bits_of_index[sent])).count("1")
            assert c.bit_errors[decided * order + sent] == expected
    # neighbours on the circle differ in one bit, and a symbol from itself in none
    assert all(c.bit_errors[g * order + (g + 1) % order] == (order > 1) for g in range(order))
    assert not c.bit_errors[:: order + 1].any()


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
    symbols = psk_constellation(order).points[bits_to_indices(bits, order)]
    np.testing.assert_array_equal(indices_to_bits(nearest_psk_indices(symbols, order), order), bits)


@pytest.mark.parametrize("order", [2, 4, 8, 16])
def test_nearest_indices_agree_with_demodulate(order, rng):
    # random values lie off the decision boundaries, where the nearest
    # point is unique
    values = rng.standard_normal(500) + 1j * rng.standard_normal(500)
    points = psk_constellation(order).points
    nearest = np.argmin(np.abs(values[:, None] - points[None, :]), axis=1)
    indices = nearest_psk_indices(values, order)
    np.testing.assert_array_equal(indices, nearest)
    np.testing.assert_array_equal(indices_to_bits(indices, order), indices_to_bits(nearest, order))
    assert [nearest_psk_index(v, order) for v in values.tolist()] == indices.tolist()


def test_nearest_indices_scale_invariant():
    c = psk_constellation(8)
    vals = 37.0 * c.points * np.exp(1j * 0.1)
    np.testing.assert_array_equal(nearest_psk_indices(vals, 8), np.arange(8))


def test_nearest_index_scalar_method():
    c = psk_constellation(8)
    for g in range(8):
        assert nearest_psk_index(1.3 * c.points[g], 8) == g


@pytest.mark.parametrize("order", [2, 4, 8, 16])
def test_margin_bounds_distance_to_the_decision_boundaries(order, rng):
    values = rng.standard_normal(2000) + 1j * rng.standard_normal(2000)
    values[:4] = (0.0, -1.0, 1j * np.exp(-1j * np.pi / order), 2.0 * np.exp(1j * np.pi / order))
    indices, margin = psk_decisions_with_margin(values, order)
    np.testing.assert_array_equal(indices, nearest_psk_indices(values, order))
    # each decided sector lies between the rays at its point's phase -/+ pi/M;
    # the distance to the nearer ray is |v| * sin(pi/M - |angle from the point|)
    offset = np.abs(np.angle(values * np.exp(-2j * np.pi * indices / order)))
    distance = np.abs(values) * np.sin(np.pi / order - offset)
    assert np.all(margin >= 0.0)
    assert np.all(margin <= distance + 1e-12)
    # the chord bound is within sin(pi/M) / (pi/M) of the distance
    interior = distance > 1e-9
    ratio = margin[interior] / distance[interior]
    assert np.all(ratio >= np.sin(np.pi / order) / (np.pi / order) - 1e-9)


def test_supported_orders_are_powers_of_two():
    # the decisions wrap the phase index by the mask M - 1, which equals
    # mod M on every int64, negative ones and the extremes included
    info = np.iinfo(np.int64)
    raw = np.concatenate([np.arange(-70, 70), [info.min, info.min + 1, info.max - 1, info.max]])
    for order in SUPPORTED_PSK_ORDERS:
        assert order > 1 and order & (order - 1) == 0
        np.testing.assert_array_equal(np.bitwise_and(raw, order - 1), np.mod(raw, order))


def _mod_decisions(values, order):
    """The decision rule with its wrap written as ``mod M``."""
    phase = np.arctan2(np.imag(values), np.real(values)) / (2.0 * np.pi / order) + 0.5
    return np.mod(np.floor(phase).astype(np.int64), order)


@pytest.mark.parametrize("order", [2, 4, 8, 16])
def test_decisions_equal_their_mod_oracle(order, rng):
    tiny = 1e-12
    boundaries = np.exp(1j * np.pi * (2 * np.arange(order) + 1) / order)
    near_pi = np.exp(1j * np.array([np.pi - tiny, -np.pi + tiny, np.pi, -np.pi]))
    edges = np.array([-1.0 + 0.0j, complex(-1.0, -0.0), 0.0, complex(0.0, -0.0), complex(-0.0, 0.0),
                      complex(-0.0, -0.0), -1e-300 + 1e-300j, -1e-300 - 1e-300j])
    values = np.concatenate([
        rng.standard_normal(5000) + 1j * rng.standard_normal(5000),
        boundaries, 3.0 * boundaries, near_pi, edges,
    ])
    expected = _mod_decisions(values, order)
    indices, margins = psk_decisions_with_margin(values, order)
    for actual in (nearest_psk_indices(values, order), indices):
        assert actual.dtype == np.int64
        np.testing.assert_array_equal(actual, expected)
    # strided views, whose parts the decisions copy before np.arctan2: the
    # rows of a stacked (2, n) array and every other value of a wider one
    stacked = np.stack((values, values[::-1]))
    wide = np.repeat(values, 2)
    for view, contiguous in ((stacked[0], values), (stacked[1], values[::-1].copy()), (wide[::2], values)):
        assert not view.imag.flags.c_contiguous
        view_indices, view_margins = psk_decisions_with_margin(view, order)
        for actual in (nearest_psk_indices(view, order), view_indices):
            np.testing.assert_array_equal(actual, _mod_decisions(contiguous, order))
        assert view_margins.tobytes() == psk_decisions_with_margin(contiguous, order)[1].tobytes()
    # scalars, as the exhaustive-search check passes them, and 0-d arrays;
    # the margin function takes them too, and gives each its array margin
    first = len(values) - len(edges) - len(near_pi)
    for value, margin in zip(values[first:], margins[first:]):
        for scalar in (complex(value), value, np.array(value)):
            decision = nearest_psk_indices(scalar, order)
            assert np.ndim(decision) == 0
            assert decision == _mod_decisions(value, order) == nearest_psk_index(complex(value), order)
            scalar_index, scalar_margin = psk_decisions_with_margin(scalar, order)
            assert np.ndim(scalar_index) == np.ndim(scalar_margin) == 0
            assert scalar_index == decision
            assert np.float64(scalar_margin).tobytes() == margin.tobytes()


def _in_place_margins(values, order):
    """The margins as ``psk_decisions_with_margin`` once formed them, in place."""
    position = np.arctan2(values.imag, values.real) / (2.0 * np.pi / order) + 0.5
    raw = np.floor(position)
    position -= raw
    position -= 0.5
    margin = np.abs(position, out=position)
    np.subtract(0.5, margin, out=margin)
    margin *= np.abs(values)
    margin *= 2.0 * math.sin(math.pi / order)
    return margin


@pytest.mark.parametrize("order", [2, 4, 8, 16])
def test_margins_equal_their_in_place_form(order, rng):
    # the same operations in the same order, out of place: the same bytes,
    # on random values, on the boundaries and on the shape of a frame's
    # stacked statistics
    boundaries = np.exp(1j * np.pi * (2 * np.arange(order) + 1) / order)
    for values in (
        rng.standard_normal(5000) + 1j * rng.standard_normal(5000),
        np.concatenate([boundaries, 3.0 * boundaries, [0.0, -1.0, 1e-300j]]),
        rng.standard_normal((2, 20, 31)) * np.exp(2j * np.pi * rng.random((2, 20, 31))),
    ):
        margins = psk_decisions_with_margin(values, order)[1]
        assert margins.shape == values.shape
        assert margins.tobytes() == _in_place_margins(values, order).tobytes()


def test_split_product_is_cpython_complex_product(rng):
    # the factors the LMS anchor multiplies by: every scaled PSK ratio point
    # of every order, and its conjugate
    ratios = np.concatenate([psk_constellation(order).points * INFO_SCALE for order in SUPPORTED_PSK_ORDERS])
    factors = np.concatenate([ratios, np.conj(ratios)])
    # the other operand: random parts, each replaced now and then by a
    # signed zero, a subnormal, a normal number near underflow or a large
    # finite magnitude
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.3e-308, -2.3e-308, 1e300, -1e300,
               1.7e308, -1.7e308]
    parts = rng.standard_normal((2, 4000))
    for plane in parts:
        picked = rng.random(plane.shape) < 0.4
        plane[picked] = rng.choice(special, picked.sum())
    x = parts[0] + 0j
    x.imag = parts[1]
    expected = np.array([[a * b for b in factors.tolist()] for a in x.tolist()])
    # contiguous operands, and a strided one broadcast against its factors
    # (the anchor's layout)
    whole = split_product(np.repeat(x[:, None], len(factors), axis=1), split_factor(np.tile(factors, (len(x), 1))))
    wide = np.empty((len(x), 2 * len(factors)), dtype=np.complex128)
    wide[:, ::2] = x[:, None]
    strided = split_product(wide[:, ::2], split_factor(factors))
    for got in (whole, strided):
        assert got.tobytes() == expected.tobytes()
