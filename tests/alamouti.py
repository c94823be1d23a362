"""2x2 Alamouti matrices as objects, the reference the tests build on.

A matrix ``[[a, b], [-conj(b), conj(a)]]`` is stored by its top row, the
same pair the package's array kernels in ``dstbc_ofdm.stbc`` take.  The
exhaustive-search acceptance check, the synthetic compensator observations
and the object-based LMS oracle do their algebra here, independently of
those kernels.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
