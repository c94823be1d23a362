"""Alamouti space-time block algebra and maximum-likelihood detection.

A 2x2 Alamouti-structured matrix ``[[a, b], [-conj(b), conj(a)]]`` is closed
under matrix product, Hermitian transpose, elementwise conjugation, addition
and multiplication by ``diag(c, conj(c))``, so the whole transmit/receive
chain can be tracked by the pair ``(a, b)``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import PskConstellation, nearest_psk_index


@dataclass(frozen=True, slots=True)
class AlamoutiMatrix:
    """The matrix [[a, b], [-conj(b), conj(a)]] stored by its top row."""

    a: complex
    b: complex

    @classmethod
    def identity(cls) -> "AlamoutiMatrix":
        return cls(1.0 + 0.0j, 0.0 + 0.0j)

    @property
    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.a, self.b], [-np.conj(self.b), np.conj(self.a)]],
            dtype=np.complex128,
        )

    def __matmul__(self, other: "AlamoutiMatrix") -> "AlamoutiMatrix":
        a1, b1 = self.a, self.b
        a2, b2 = other.a, other.b
        return AlamoutiMatrix(
            a1 * a2 - b1 * b2.conjugate(),
            a1 * b2 + b1 * a2.conjugate(),
        )

    def __add__(self, other: "AlamoutiMatrix") -> "AlamoutiMatrix":
        return AlamoutiMatrix(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "AlamoutiMatrix") -> "AlamoutiMatrix":
        return AlamoutiMatrix(self.a - other.a, self.b - other.b)

    def hermitian(self) -> "AlamoutiMatrix":
        return AlamoutiMatrix(self.a.conjugate(), -self.b)

    def conjugate(self) -> "AlamoutiMatrix":
        return AlamoutiMatrix(self.a.conjugate(), self.b.conjugate())

    def scaled(self, factor: float) -> "AlamoutiMatrix":
        """Multiply by a real scalar (a complex one would break the structure)."""
        if isinstance(factor, complex):
            raise TypeError("scaled() takes a real factor; use diag_mul for diag(c, conj(c))")
        return AlamoutiMatrix(self.a * factor, self.b * factor)

    def diag_mul(self, c: complex) -> "AlamoutiMatrix":
        """Left-multiply by diag(c, conj(c)), which preserves the structure."""
        return AlamoutiMatrix(c * self.a, c * self.b)

    def frobenius(self) -> float:
        return float(np.sqrt(2.0 * (abs(self.a) ** 2 + abs(self.b) ** 2)))


def alamouti_encode(x1: complex, x2: complex) -> AlamoutiMatrix:
    """Pack an information symbol pair into [[x1, x2], [-conj(x2), conj(x1)]]."""
    return AlamoutiMatrix(complex(x1), complex(x2))


def differential_encode(previous: AlamoutiMatrix, info: AlamoutiMatrix) -> AlamoutiMatrix:
    """Raw differential chain step: the matrix product previous @ info.

    The caller is responsible for power normalisation (the link engine feeds
    info matrices scaled by 1/sqrt(2) so the chain stays unitary).
    """
    return previous @ info


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


def ml_differential_detect(
    z_k: AlamoutiMatrix,
    z_next: AlamoutiMatrix,
    constellation: PskConstellation,
) -> AlamoutiMatrix:
    """Most likely information matrix given two consecutive received blocks."""
    i1, i2 = ml_differential_detect_indices(z_k.a, z_k.b, z_next.a, z_next.b, constellation.order)
    points = constellation.points_list
    return alamouti_encode(points[i1], points[i2])


def coherent_detect_indices(
    z_obs: AlamoutiMatrix,
    channel: AlamoutiMatrix,
    constellation: PskConstellation,
) -> tuple[int, int]:
    """Phase indices maximising Re(trace(U^H Lambda^H Z)) with known channel."""
    g = channel.hermitian() @ z_obs
    return nearest_psk_index(g.a, constellation.order), nearest_psk_index(g.b, constellation.order)


def coherent_detect(
    z_obs: AlamoutiMatrix,
    channel: AlamoutiMatrix,
    constellation: PskConstellation,
) -> AlamoutiMatrix:
    """Most likely information matrix for one block with genie channel knowledge."""
    i1, i2 = coherent_detect_indices(z_obs, channel, constellation)
    points = constellation.points_list
    return alamouti_encode(points[i1], points[i2])
