"""Alamouti space-time blocks: differential encoding and ML detection.

A 2x2 Alamouti-structured matrix ``[[a, b], [-conj(b), conj(a)]]`` is closed
under matrix product, Hermitian transpose, elementwise conjugation, addition
and multiplication by ``diag(c, conj(c))``, so the whole transmit/receive
chain can be tracked by its top row ``(a, b)``.  The functions here take and
return top rows: arrays of ``a`` and of ``b`` for the link engine, which
broadcast elementwise, and plain complex numbers for the LMS pass's
per-observation detector.
"""
from __future__ import annotations

import math

import numpy as np

from .numerics import nearest_psk_index, nearest_psk_indices

# Scale of every transmitted information matrix; keeps the blocks unitary.
INFO_SCALE = 1.0 / math.sqrt(2.0)


def differential_encode(u_a: np.ndarray, u_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Transmitted blocks of the differential chain ``S_j = S_{j-1} @ U_j``.

    ``(u_a, u_b)`` are the top rows of the information matrices, block
    first: shape (block, ...).  The chain starts from the identity
    reference block, so the result has shape (block + 1, ...) with the
    reference first.  The caller is responsible for power normalisation
    (the link engine feeds info matrices scaled by ``INFO_SCALE``, 1/sqrt(2),
    so the chain stays unitary).
    """
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


def alamouti_statistics(ref_a, ref_b, z_a, z_b) -> tuple[np.ndarray, np.ndarray]:
    """The top row ``(d_a, d_b)`` of ``R^H @ Z``, elementwise.

    ``(z_a, z_b)`` is the top row of the received block ``Z`` and
    ``(ref_a, ref_b)`` that of the reference block ``R``: the channel matrix
    for coherent detection, or the previous received block for differential
    detection.
    """
    ref_a_c = np.conj(ref_a)
    return ref_a_c * z_a + ref_b * np.conj(z_b), ref_a_c * z_b - ref_b * np.conj(z_a)


def alamouti_detect(ref_a, ref_b, z_a, z_b, order: int) -> tuple[np.ndarray, np.ndarray]:
    """PSK decisions on ``alamouti_statistics``, elementwise.

    For differential detection this is the array form of
    ``ml_differential_detect_indices``.  Either way the two decisions
    maximise ``Re(trace(U^H R^H Z))`` over the info pair.
    """
    d_a, d_b = alamouti_statistics(ref_a, ref_b, z_a, z_b)
    return nearest_psk_indices(d_a, order), nearest_psk_indices(d_b, order)


def ml_differential_detect_indices(
    k_a: complex,
    k_b: complex,
    n_a: complex,
    n_b: complex,
    order: int,
) -> tuple[int, int]:
    """Phase indices of the info pair maximising Re(trace(U^H Z_k^H Z_next)).

    ``(k_a, k_b)`` and ``(n_a, n_b)`` are the top rows of the received
    blocks ``Z_k`` and ``Z_next``.  The trace metric splits into two
    independent PSK decisions on the top row of ``Z_k^H @ Z_next``, so the
    decoupled decision equals the exhaustive search over all M^2 candidates.
    Both decisions round in angle as ``nearest_psk_indices`` does, so a
    value on an exact decision boundary goes to the larger phase.
    """
    k_a_c = k_a.conjugate()
    return (
        nearest_psk_index(k_a_c * n_a + k_b * n_b.conjugate(), order),
        nearest_psk_index(k_a_c * n_b - k_b * n_a.conjugate(), order),
    )
