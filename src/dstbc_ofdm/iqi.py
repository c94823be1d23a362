"""Receiver I/Q imbalance model.

A gain mismatch of ``kappa_db`` (field ratio ``g = 10**(kappa_db/20)``) and a
phase mismatch of ``phi_deg`` between the receiver I and Q branches distort a
baseband stream ``y`` into ``alpha*y + beta*conj(y)`` with

    alpha = (1 + g*exp(-1j*phi)) / 2
    beta  = (1 - g*exp(+1j*phi)) / 2

After the unitary DFT this is ``Z_k = alpha*Y_k + beta*conj(Y_{N-k})`` at
every bin: each subcarrier takes in the conjugate of its mirror.  The
image-leakage ratio is ``rho = |beta|**2 / |alpha|**2``; the image rejection
ratio in dB is ``-10*log10(rho)``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ofdm import pair_image


@dataclass(frozen=True)
class IqiParams:
    alpha: complex
    beta: complex
    rho: float
    irr_db: float


def derive_iqi_params(kappa_db: float, phi_deg: float) -> IqiParams:
    """Branch-mismatch coefficients for a gain error in dB and phase error in degrees."""
    g = 10.0 ** (kappa_db / 20.0)
    phi = math.radians(phi_deg)
    alpha = 0.5 * (1.0 + g * complex(math.cos(phi), -math.sin(phi)))
    beta = 0.5 * (1.0 - g * complex(math.cos(phi), math.sin(phi)))
    if abs(alpha) < 1e-12 * (1.0 + g):
        raise ValueError(f"degenerate imbalance: alpha is zero for kappa={kappa_db} dB, phi={phi_deg} deg")
    rho = abs(beta) ** 2 / abs(alpha) ** 2
    irr_db = math.inf if rho == 0.0 else -10.0 * math.log10(rho)
    return IqiParams(alpha=alpha, beta=beta, rho=rho, irr_db=irr_db)


def apply_rx_iqi(spectra: np.ndarray, params: IqiParams) -> np.ndarray:
    """Distort spectra in pair order: ``alpha*Y + beta*ofdm.pair_image(Y)``."""
    spectra = np.asarray(spectra, dtype=np.complex128)
    # named, as in stbc.alamouti_statistics: numpy never multiplies into it
    image = pair_image(spectra)
    return params.alpha * spectra + params.beta * image
