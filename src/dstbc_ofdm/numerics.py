"""Unitary DFT helpers and Gray-coded PSK mapping.

Conventions used throughout the package:

* DFT matrix entries are ``exp(-2j*pi*m*n/N) / sqrt(N)`` so both transform
  directions preserve power.
* PSK phase index ``g`` carries the bit pattern whose position in the
  binary-reflected Gray sequence is ``g``; neighbouring points on the circle
  therefore differ in exactly one bit.
* Bits are consumed MSB first inside each ``log2(M)``-bit group.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

SUPPORTED_PSK_ORDERS = (2, 4, 8, 16)

# Direct matrix evaluation below this size so results match the defining
# matrix product exactly; larger sizes go through the FFT.
_MATRIX_DFT_MAX = 8


def _require_power_of_two(n: int) -> None:
    if n < 2 or (n & (n - 1)) != 0:
        raise ValueError(f"transform length must be a power of two >= 2, got {n}")


def dft_matrix(n: int) -> np.ndarray:
    """Unitary DFT matrix of size n."""
    _require_power_of_two(n)
    grid = np.outer(np.arange(n), np.arange(n))
    return np.exp(-2j * np.pi * grid / n) / np.sqrt(n)


def dft(x: np.ndarray) -> np.ndarray:
    """Unitary DFT of a 1-D complex vector."""
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 1:
        raise ValueError("dft expects a 1-D vector")
    n = x.shape[0]
    _require_power_of_two(n)
    if n <= _MATRIX_DFT_MAX:
        return dft_matrix(n) @ x
    return np.fft.fft(x) / np.sqrt(n)


def idft(x: np.ndarray) -> np.ndarray:
    """Unitary inverse DFT of a 1-D complex vector."""
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 1:
        raise ValueError("idft expects a 1-D vector")
    n = x.shape[0]
    _require_power_of_two(n)
    if n <= _MATRIX_DFT_MAX:
        return np.conj(dft_matrix(n)) @ x
    return np.fft.ifft(x) * np.sqrt(n)


def gray_encode(value: int) -> int:
    """Bit pattern at position ``value`` of the binary-reflected Gray sequence."""
    return value ^ (value >> 1)


def gray_decode(code: int) -> int:
    """Position of bit pattern ``code`` in the binary-reflected Gray sequence."""
    value = 0
    while code:
        value ^= code
        code >>= 1
    return value


@dataclass(frozen=True, eq=False)
class PskConstellation:
    """Unit-circle M-PSK constellation with Gray bit labelling.

    ``points[g]`` is the point at phase ``2*pi*g/M`` and carries the bit
    pattern ``bits_of_index[g]``; ``index_of_bits`` inverts that labelling.
    """

    order: int
    points: np.ndarray
    bits_of_index: np.ndarray
    index_of_bits: np.ndarray
    # plain-complex copy of ``points`` for scalar hot loops
    points_list: tuple = field(repr=False, default=())

    @property
    def bits_per_symbol(self) -> int:
        return self.order.bit_length() - 1

    def nearest_index(self, value: complex) -> int:
        """Phase index of the closest point, by ``nearest_psk_index``."""
        return nearest_psk_index(complex(value), self.order)


@lru_cache(maxsize=None)
def psk_constellation(order: int) -> PskConstellation:
    """Build (and cache) the Gray-labelled M-PSK constellation."""
    if order not in SUPPORTED_PSK_ORDERS:
        raise ValueError(f"unsupported PSK order {order}; expected one of {SUPPORTED_PSK_ORDERS}")
    index = np.arange(order)
    points = np.exp(2j * np.pi * index / order)
    bits_of_index = index ^ (index >> 1)
    index_of_bits = np.empty(order, dtype=np.int64)
    index_of_bits[bits_of_index] = index
    for arr in (points, bits_of_index, index_of_bits):
        arr.flags.writeable = False
    return PskConstellation(
        order=order,
        points=points,
        bits_of_index=bits_of_index,
        index_of_bits=index_of_bits,
        points_list=tuple(complex(p) for p in points),
    )


def bits_to_indices(bits: np.ndarray, order: int) -> np.ndarray:
    """Map a flat 0/1 array (length multiple of log2(M)) to phase indices."""
    const = psk_constellation(order)
    bps = const.bits_per_symbol
    bits = np.asarray(bits)
    if bits.size % bps != 0:
        raise ValueError(f"bit count {bits.size} is not a multiple of {bps}")
    if bits.size and (bits.min() < 0 or bits.max() > 1):
        raise ValueError("bits must be 0 or 1")
    weights = 1 << np.arange(bps - 1, -1, -1)
    values = bits.reshape(-1, bps).astype(np.int64) @ weights
    return const.index_of_bits[values]


def indices_to_bits(indices: np.ndarray, order: int) -> np.ndarray:
    """Recover the MSB-first bit stream carried by phase indices."""
    const = psk_constellation(order)
    bps = const.bits_per_symbol
    values = const.bits_of_index[np.asarray(indices, dtype=np.int64)]
    shifts = np.arange(bps - 1, -1, -1)
    return ((values[..., None] >> shifts) & 1).astype(np.int8).reshape(-1)


def psk_modulate(bits: np.ndarray, order: int) -> np.ndarray:
    """Gray-map a bit stream onto M-PSK symbols."""
    const = psk_constellation(order)
    return const.points[bits_to_indices(bits, order)]


def psk_demodulate(symbols: np.ndarray, order: int) -> np.ndarray:
    """Hard-decide symbols to the nearest constellation point and emit bits.

    Decides by ``nearest_psk_indices``.
    """
    symbols = np.atleast_1d(np.asarray(symbols, dtype=np.complex128))
    return indices_to_bits(nearest_psk_indices(symbols, order), order)


def nearest_psk_indices(values: np.ndarray, order: int) -> np.ndarray:
    """Index of the nearest M-PSK point to each value, by rounding its phase.

    ``floor(angle / (2*pi/M) + 0.5) mod M``: the package's one PSK decision
    rule.  A value exactly on a decision boundary rounds half up in angle,
    to the larger phase.
    """
    if order not in SUPPORTED_PSK_ORDERS:
        raise ValueError(f"unsupported PSK order {order}")
    step = 2.0 * np.pi / order
    raw = np.floor(np.angle(values) / step + 0.5).astype(np.int64)
    return np.mod(raw, order)


def nearest_psk_index(value: complex, order: int) -> int:
    """Scalar form of ``nearest_psk_indices``, the same rounding in angle."""
    return math.floor(math.atan2(value.imag, value.real) / (2.0 * math.pi / order) + 0.5) % order
