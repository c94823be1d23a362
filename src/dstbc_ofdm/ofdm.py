"""CP-OFDM modulation and the subcarrier layout.

Subcarriers are numbered by their 0-based bin in the spectrum vector.  Bin 0
(DC) and bin N/2 (Nyquist) stay empty; the remaining N-2 are active.  Under
receiver I/Q imbalance the demodulated value at bin ``k`` mixes with the
conjugate of bin ``(N - k) % N``, so the receiver works on (k, mirror) pairs.

Both transforms are unitary, ``exp(-2j*pi*m*k/N) / sqrt(N)`` for the DFT, so
either direction preserves power.  The kernels run over the last axis, each
row one OFDM symbol, with any leading axes.
"""
from __future__ import annotations

import numpy as np


def active_indices(n: int) -> np.ndarray:
    """Active bins in ascending order: 1..N-1 without the Nyquist bin N/2."""
    bins = np.arange(1, n, dtype=np.int64)
    return bins[bins != n // 2]


def mirror_permutation(n: int) -> np.ndarray:
    """Bin ``(N - k) % N`` at position ``k``: the image each bin leaks into."""
    return (n - np.arange(n)) % n


def ofdm_modulate(freq: np.ndarray, cp_len: int) -> np.ndarray:
    """Unitary IDFT of each spectrum, then its last ``cp_len`` samples in front."""
    time_domain = np.fft.ifft(freq, axis=-1, norm="ortho")
    n = freq.shape[-1]
    return np.concatenate([time_domain[..., n - cp_len:], time_domain], axis=-1)


def ofdm_demodulate(samples: np.ndarray, cp_len: int) -> np.ndarray:
    """Drop each symbol's cyclic prefix and apply the unitary DFT."""
    return np.fft.fft(samples[..., cp_len:], axis=-1, norm="ortho")
