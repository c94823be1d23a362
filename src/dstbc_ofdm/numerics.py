"""Gray-coded PSK mapping and the PSK decision rule.

Convention used throughout the package: PSK phase index ``g`` carries the
bit pattern whose position in the binary-reflected Gray sequence is ``g``;
neighbouring points on the circle therefore differ in exactly one bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# powers of two only: the decisions wrap the phase index by the mask M - 1
SUPPORTED_PSK_ORDERS = (2, 4, 8, 16)


@dataclass(frozen=True, eq=False)
class PskConstellation:
    """Unit-circle M-PSK constellation with Gray bit labelling.

    ``points[g]`` is the point at phase ``2*pi*g/M`` and carries the bit
    pattern ``bits_of_index[g]``.
    """

    order: int
    points: np.ndarray
    bits_of_index: np.ndarray

    @property
    def bits_per_symbol(self) -> int:
        return self.order.bit_length() - 1


def check_psk_order(order: int) -> None:
    """Raise ValueError unless ``order`` is one of ``SUPPORTED_PSK_ORDERS``."""
    if order not in SUPPORTED_PSK_ORDERS:
        raise ValueError(f"unsupported PSK order {order}; expected one of {SUPPORTED_PSK_ORDERS}")


@lru_cache(maxsize=None)
def psk_constellation(order: int) -> PskConstellation:
    """Build (and cache) the Gray-labelled M-PSK constellation."""
    check_psk_order(order)
    index = np.arange(order)
    points = np.exp(2j * np.pi * index / order)
    bits_of_index = index ^ (index >> 1)
    for arr in (points, bits_of_index):
        arr.flags.writeable = False
    return PskConstellation(order=order, points=points, bits_of_index=bits_of_index)


def nearest_psk_indices(values: np.ndarray, order: int) -> np.ndarray:
    """Index of the nearest M-PSK point to each value, by rounding its phase.

    ``floor(angle / (2*pi/M) + 0.5) mod M``: the package's one PSK decision
    rule.  A value exactly on a decision boundary rounds half up in angle,
    to the larger phase.  As M is a power of two, the wrap is a mask.
    """
    check_psk_order(order)
    raw = np.floor(_half_step_phase(values, order)).astype(np.int64)
    return np.bitwise_and(raw, order - 1)


def psk_decisions_with_margin(values: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """``nearest_psk_indices`` and a lower bound on each value's distance to its boundaries.

    The nearer boundary ray lies at ``|v| * sin(t * 2*pi/M)``, where ``t``,
    at most 1/2, is the angular distance to it in PSK steps.  As ``sin`` is
    concave up to ``pi/M``, that is at least ``|v| * 2*sin(pi/M) * t``, the
    bound returned.  Both outputs come from the computed phase, so a caller
    that relies on the bound allows for its rounding.
    """
    check_psk_order(order)
    position = _half_step_phase(values, order)
    raw = np.floor(position)
    margin = (0.5 - np.abs(position - raw - 0.5)) * np.abs(values) * (2.0 * math.sin(math.pi / order))
    return np.bitwise_and(raw.astype(np.int64), order - 1), margin


def _half_step_phase(values: np.ndarray, order: int) -> np.ndarray:
    """Phase in PSK steps plus one half, whose floor modulo M is the decision."""
    # np.angle's own arithmetic, without its per-call checks
    return np.arctan2(values.imag, values.real) / (2.0 * np.pi / order) + 0.5


def nearest_psk_index(value: complex, order: int) -> int:
    """Scalar form of ``nearest_psk_indices``, the same rounding in angle."""
    return math.floor(math.atan2(value.imag, value.real) / (2.0 * math.pi / order) + 0.5) % order
