"""Byte oracle for ``dstbc_ofdm.stbc.differential_encode``.

``differential_encode`` is the recursion as the package writes it: one
subtract and one add per block, each of two products of whole planes,
straight into the block's slot.  Other forms of the same algebra (one
broadcast multiply and one add per step, say) give results that differ in
the last bit on some shapes, and every record downstream with them.
``tests/test_stbc.py`` checks that the package's recursion gives these
bytes.
"""
from __future__ import annotations

import numpy as np


def differential_encode(u_a: np.ndarray, u_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``S_j = S_{j-1} @ U_j`` from the identity, block first, one step per block."""
    cu_a = np.conj(u_a)
    cu_b = np.conj(u_b)
    n_blocks = u_a.shape[0]
    s_a = np.empty((n_blocks + 1,) + u_a.shape[1:], dtype=np.complex128)
    s_b = np.empty_like(s_a)
    s_a[0] = 1.0
    s_b[0] = 0.0
    for j in range(1, n_blocks + 1):
        np.subtract(s_a[j - 1] * u_a[j - 1], s_b[j - 1] * cu_b[j - 1], out=s_a[j, ...])
        np.add(s_a[j - 1] * u_b[j - 1], s_b[j - 1] * cu_a[j - 1], out=s_b[j, ...])
    return s_a, s_b
