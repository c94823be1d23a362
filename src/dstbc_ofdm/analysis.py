"""Post-detection SINR and BER predictions under receiver I/Q imbalance.

For one channel draw with desired-subcarrier power ``|lambda|^2``, image
power ``|lambda_bar|^2``, leakage ratio ``rho`` and per-sample noise variance
``sigma^2``, the differential detector sees

    sinr_d = |lambda|^2 / (2*|lambda_bar|^2*rho + 4*sigma^2)

and coherent detection is 3 dB better (half the interference, half the
noise).  Treating desired and image channels as independent two-branch
Rayleigh vectors, the power ratio ``X = |lambda|^2/|lambda_bar|^2`` follows
an F(4,4) law with density ``6x/(1+x)**4``, which yields the residual BER
floor by averaging the M-PSK pairwise error bound over X.
"""
from __future__ import annotations

import math

import numpy as np

from .numerics import check_psk_order


def sinr_differential(
    lambda_sq: float,
    mirror_lambda_sq: float,
    rho: float,
    noise_var: float,
) -> float:
    """Post-detection SINR of the differential receiver for one channel draw."""
    denom = 2.0 * mirror_lambda_sq * rho + 4.0 * noise_var
    if denom <= 0:
        raise ValueError("interference-plus-noise power must be positive")
    return lambda_sq / denom


def sinr_coherent(
    lambda_sq: float,
    mirror_lambda_sq: float,
    rho: float,
    noise_var: float,
) -> float:
    """Post-detection SINR with genie channel knowledge (3 dB above differential)."""
    return sinr_differential(lambda_sq, mirror_lambda_sq, rho / 2.0, noise_var / 2.0)


def f44_pdf(x) -> np.ndarray:
    """Density of the branch-power ratio X: 6x/(1+x)^4 for x >= 0, else 0."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    positive = x >= 0
    out[positive] = 6.0 * x[positive] / (1.0 + x[positive]) ** 4
    if out.ndim == 0:
        return float(out)
    return out


def _psk_symbol_error(snr: np.ndarray, psk_order: int) -> np.ndarray:
    """erfc bound on the M-PSK bit error rate at a given post-detection SNR."""
    # scipy is imported where it is used: it would be most of the package's import time
    from scipy.special import erfc

    return erfc(np.sqrt(snr) * math.sin(math.pi / psk_order)) / math.log2(psk_order)


def ber_floor(psk_order: int, rho: float) -> float:
    """Residual BER as SNR grows without bound, for image-leakage ratio rho.

    Averages the M-PSK error bound at the asymptotic SINR ``X/(2*rho)`` over
    the F(4,4) law of X with adaptive quadrature (relative tolerance 1e-6,
    upper limit chosen where the integrand falls below 1e-16 of its peak).
    """
    from scipy.integrate import quad

    check_psk_order(psk_order)
    if rho < 0:
        raise ValueError(f"rho must be non-negative, got {rho}")
    if rho == 0:
        return 0.0

    def integrand(x: float) -> float:
        return _psk_symbol_error(x / (2.0 * rho), psk_order) * f44_pdf(x)

    peak = max(integrand(x) for x in np.linspace(1e-3, 4.0, 64))
    upper = 4.0
    while integrand(upper) > 1e-16 * peak:
        upper *= 2.0
    value, _ = quad(integrand, 0.0, upper, epsabs=1e-14, epsrel=1e-6, limit=200)
    return float(value)


def equivalent_snr(snr_linear: float, rho: float) -> float:
    """Harmonic combination 1/(1/SNR + rho) folding leakage into an SNR penalty."""
    if snr_linear <= 0:
        raise ValueError("snr_linear must be positive")
    if rho < 0:
        raise ValueError("rho must be non-negative")
    denominator = 1.0 / snr_linear + rho
    return math.inf if denominator == 0 else 1.0 / denominator


def ber_closed_form(psk_order: int, snr_eq: float) -> float:
    """Two-branch diversity M-PSK BER fit: 0.2*(1 + 1.75*snr_eq/(M^1.9 + 1))^-2."""
    check_psk_order(psk_order)
    if snr_eq <= 0:
        raise ValueError(f"snr_eq must be positive, got {snr_eq}")
    return 0.2 * (1.0 + 1.75 * snr_eq / (psk_order**1.9 + 1.0)) ** -2


def floor_onset_and_ideal_snr(irr_db: float) -> tuple[float, float]:
    """(SNR where the floor sets in, ideal-system SNR matching the floor).

    The onset marker IRR + 10 dB is where the leakage power is ten times
    the noise power.  There the equivalent SNR ``1/(1/snr + rho)`` lies
    within 0.41 dB (10*log10(1.1)) of its floor value ``1/rho``.  It is not
    the SNR where the BER first comes within 2x of its floor, which lies
    well below it: for a 2 dB / 8 degree front end (IRR 17.4 dB) the
    simulated curve gets there at about 20.1 dB and ``ber_closed_form`` at
    about 18 dB.  The floor value equals the leakage-free BER at an SNR of
    IRR dB.
    """
    return irr_db + 10.0, irr_db
