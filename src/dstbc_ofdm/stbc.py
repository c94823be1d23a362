"""Differential Alamouti space-time blocks: encoding and ML detection.

A 2x2 Alamouti-structured matrix ``[[a, b], [-conj(b), conj(a)]]`` is closed
under matrix product, Hermitian transpose, elementwise conjugation, addition
and multiplication by ``diag(c, conj(c))``, so the whole transmit/receive
chain can be tracked by its top row ``(a, b)``.  The functions here take and
return top rows: arrays of ``a`` and of ``b`` for the link engine, which
broadcast elementwise, and plain complex numbers for the LMS pass's
per-observation detector.
"""
from __future__ import annotations

import numpy as np

from .numerics import nearest_psk_index, nearest_psk_indices


def differential_encode(u_a: np.ndarray, u_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Transmitted blocks of the differential chain ``S_j = S_{j-1} @ U_j``.

    ``(u_a, u_b)`` are the top rows of the information matrices, block
    first: shape (block, ...).  The chain starts from the identity
    reference block, so the result has shape (block + 1, ...) with the
    reference first.  The caller is responsible for power normalisation
    (the link engine feeds info matrices scaled by 1/sqrt(2) so the chain
    stays unitary).
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


def differential_detect(k_a, k_b, n_a, n_b, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Array form of ``ml_differential_detect_indices``, elementwise."""
    d_a = np.conj(k_a) * n_a + k_b * np.conj(n_b)
    d_b = np.conj(k_a) * n_b - k_b * np.conj(n_a)
    return nearest_psk_indices(d_a, order), nearest_psk_indices(d_b, order)


def coherent_detect(z_a, z_b, lam_a, lam_b, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Phase indices maximising Re(trace(U^H Lambda^H Z)) with known channel.

    ``(z_a, z_b)`` is the top row of the received block ``Z`` and
    ``(lam_a, lam_b)`` that of the channel matrix ``Lambda``; the two PSK
    decisions are taken on the top row of ``Lambda^H @ Z``, elementwise.
    """
    g_a = np.conj(lam_a) * z_a + lam_b * np.conj(z_b)
    g_b = np.conj(lam_a) * z_b - lam_b * np.conj(z_a)
    return nearest_psk_indices(g_a, order), nearest_psk_indices(g_b, order)


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
