"""The OFDM subcarrier layout.

Subcarriers are numbered by their 0-based bin in the spectrum vector.  Bin 0
(DC) and bin N/2 (Nyquist) stay empty; the remaining N-2 are active.  Under
receiver I/Q imbalance the demodulated value at bin ``k`` mixes with the
conjugate of its mirror bin ``N - k``, so the receiver works on (k, mirror)
pairs.
"""
from __future__ import annotations

import numpy as np


def pair_bins(n: int) -> np.ndarray:
    """The active bins in pair order: ``1..N/2-1``, then their mirrors ``N-k``."""
    low = np.arange(1, n // 2, dtype=np.int64)
    return np.concatenate([low, n - low])


def pair_image(spectra: np.ndarray) -> np.ndarray:
    """The conjugate of each bin's mirror, for spectra in pair order.

    The last axis holds the bins ``pair_bins`` lists, so the mirrors of one
    half are the other half in the same order: the halves swap.
    """
    half = spectra.shape[-1] // 2
    return np.conj(np.concatenate([spectra[..., half:], spectra[..., :half]], axis=-1))
