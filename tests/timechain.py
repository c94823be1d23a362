"""The time-domain link: the oracle for the engine's per-bin link.

A unitary cyclic-prefix modem, the per-antenna linear convolution with
symbol-rate tap updates, AWGN and the receiver I/Q imbalance on the
time-domain samples.  The engine evaluates the same link bin by bin;
``frame_spectra`` here computes it the long way, from the same draws.
"""
from __future__ import annotations

import math

import numpy as np


def ofdm_modulate(freq: np.ndarray, cp_len: int) -> np.ndarray:
    """Unitary IDFT of each spectrum, then its last ``cp_len`` samples in front."""
    time_domain = np.fft.ifft(freq, axis=-1, norm="ortho")
    n = freq.shape[-1]
    return np.concatenate([time_domain[..., n - cp_len:], time_domain], axis=-1)


def ofdm_demodulate(samples: np.ndarray, cp_len: int) -> np.ndarray:
    """Drop each symbol's cyclic prefix and apply the unitary DFT."""
    return np.fft.fft(samples[..., cp_len:], axis=-1, norm="ortho")


def apply_channel(streams: np.ndarray, fading, samples_per_symbol: int) -> np.ndarray:
    """Per frame, the sum of per-antenna linear convolutions with symbol-rate tap updates.

    ``streams`` is (frame, antenna, sample); ``fading.taps`` is (frame,
    symbol, antenna, tap), and each output sample sees its symbol's taps.
    """
    n_frames, n_antennas, total = streams.shape
    received = np.zeros((n_frames, total), dtype=np.complex128)
    for l, pos in enumerate(fading.tap_sample_delays):
        gains = np.repeat(fading.taps[..., l], samples_per_symbol, axis=1)
        for ant in range(n_antennas):
            received[:, pos:] += gains[:, pos:, ant] * streams[:, ant, : total - pos]
    return received


def apply_time_iqi(samples: np.ndarray, params) -> np.ndarray:
    """Distort a complex baseband stream: alpha*y + beta*conj(y)."""
    return params.alpha * samples + params.beta * np.conj(samples)


def frame_spectra(freq_symbols, fading, cp_len, sigma, iqi_params, noise):
    """Transmit, propagate, distort and demodulate a chunk of frames.

    ``freq_symbols`` is (frame, antenna, symbol, subcarrier), on the full
    N-bin grid.  ``noise`` holds each frame's complex samples with standard
    normal real and imaginary parts, or is None when there is no noise.
    Returns the demodulated spectra, (frame, symbol, subcarrier).
    """
    n_frames, _, n_sym, n_sub = freq_symbols.shape
    samples_per_symbol = n_sub + cp_len
    streams = ofdm_modulate(freq_symbols, cp_len).reshape(n_frames, 2, n_sym * samples_per_symbol)
    received = apply_channel(streams, fading, samples_per_symbol)
    if noise is not None:
        received = received + (sigma / math.sqrt(2.0)) * noise
    received = apply_time_iqi(received, iqi_params)
    return ofdm_demodulate(received.reshape(n_frames, n_sym, samples_per_symbol), cp_len)
