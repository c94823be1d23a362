"""CP-OFDM symbol processing and the subcarrier layout.

Subcarriers are numbered 1..N.  Subcarrier 1 (DC) and N/2+1 (Nyquist) stay
empty; the remaining N-2 are active.  Under receiver I/Q imbalance the
demodulated value at subcarrier ``n`` mixes with the conjugate of subcarrier
``N-n+2``, so the receiver works on (n, mirror) pairs.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numerics import dft, idft


@dataclass(frozen=True)
class OfdmConfig:
    n_subcarriers: int = 64
    cp_len: int = 20

    def __post_init__(self) -> None:
        n = self.n_subcarriers
        if n < 4 or (n & (n - 1)) != 0:
            raise ValueError(f"n_subcarriers must be a power of two >= 4, got {n}")
        if not 0 < self.cp_len < n:
            raise ValueError(f"cp_len must lie in (0, {n}), got {self.cp_len}")

    @cached_property
    def active_subcarriers(self) -> np.ndarray:
        """1-based active indices: 2..N without the Nyquist bin N/2+1."""
        n = self.n_subcarriers
        active = np.array([k for k in range(2, n + 1) if k != n // 2 + 1], dtype=np.int64)
        active.flags.writeable = False
        return active

    @property
    def n_active(self) -> int:
        return self.n_subcarriers - 2

    @cached_property
    def active_indices0(self) -> np.ndarray:
        """0-based positions of the active subcarriers in a spectrum vector."""
        idx = self.active_subcarriers - 1
        idx.flags.writeable = False
        return idx

    @cached_property
    def lower_pair_subcarriers(self) -> np.ndarray:
        """1-based lower member of each (n, mirror) pair, i.e. 2..N/2."""
        pairs = np.arange(2, self.n_subcarriers // 2 + 1, dtype=np.int64)
        pairs.flags.writeable = False
        return pairs


def mirror_index(n: int, n_subcarriers: int) -> int:
    """Image subcarrier N-n+2 hit by conjugate leakage; both must be active."""
    _require_active(n, n_subcarriers)
    return n_subcarriers - n + 2


def _require_active(n: int, n_subcarriers: int) -> None:
    if not 2 <= n <= n_subcarriers:
        raise ValueError(f"subcarrier {n} outside 2..{n_subcarriers}")
    if n == n_subcarriers // 2 + 1:
        raise ValueError(f"subcarrier {n} is the empty Nyquist bin")


def ofdm_modulate(freq_symbols: np.ndarray, config: OfdmConfig) -> np.ndarray:
    """Unitary IDFT plus cyclic prefix; inactive bins must be exactly zero."""
    freq_symbols = np.asarray(freq_symbols, dtype=np.complex128)
    n = config.n_subcarriers
    if freq_symbols.shape != (n,):
        raise ValueError(f"expected spectrum of shape ({n},), got {freq_symbols.shape}")
    if freq_symbols[0] != 0 or freq_symbols[n // 2] != 0:
        raise ValueError("DC and Nyquist bins must carry exact zeros")
    time = idft(freq_symbols)
    return np.concatenate([time[-config.cp_len:], time])


def ofdm_demodulate(samples: np.ndarray, config: OfdmConfig) -> np.ndarray:
    """Drop the cyclic prefix and apply the unitary DFT."""
    samples = np.asarray(samples, dtype=np.complex128)
    expected = config.n_subcarriers + config.cp_len
    if samples.shape != (expected,):
        raise ValueError(f"expected {expected} samples, got {samples.shape}")
    return dft(samples[config.cp_len:])
