"""The OFDM subcarrier layout.

Subcarriers are numbered by their 0-based bin in the spectrum vector.  Bin 0
(DC) and bin N/2 (Nyquist) stay empty; the remaining N-2 are active.  Under
receiver I/Q imbalance the demodulated value at bin ``k`` mixes with the
conjugate of bin ``(N - k) % N``, so the receiver works on (k, mirror) pairs.
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
