"""Byte oracle for ``dstbc_ofdm.channel.realize_fading``.

``realize_fading`` forms its oscillator phasors from cosine and sine
planes and steps them one symbol at a time, each step a sum of two
products by the parts of the step (``numerics.split_product``), on
symbol-major planes.  This file keeps the forms it replaced: ``np.exp`` of
the imaginary angles, one ``np.cumprod`` along the symbols of the (frame,
antenna, tap, symbol, oscillator) phasors, then the tap sum on that layout.
The two must agree bit for bit, since every record downstream is formed
from these taps; ``tests/test_channel.py`` checks that they do.
"""
from __future__ import annotations

import numpy as np

from dstbc_ofdm.channel import DEFAULT_OSCILLATORS, N_TX_ANTENNAS, _oscillators, tap_grid


def realize_fading(profile, sample_period, n_ofdm_symbols, angle_rng, weight_rng, *, samples_per_symbol, frames):
    """Tap gains ``taps[f, s, i, l]``, the phasors formed by ``np.cumprod``."""
    _, powers = tap_grid(profile, sample_period)
    symbol_period = samples_per_symbol * sample_period
    shape = (frames, N_TX_ANTENNAS, powers.shape[0])
    uniforms = angle_rng.random(shape + (DEFAULT_OSCILLATORS,))
    normals = weight_rng.standard_normal(shape + (2, DEFAULT_OSCILLATORS))
    rates, weights = _oscillators(powers[:, None], profile.doppler_hz, uniforms, normals)
    phases = np.empty(rates.shape[:-1] + (n_ofdm_symbols, DEFAULT_OSCILLATORS), dtype=np.complex128)
    phases[..., 0, :] = np.exp(0.5j * symbol_period * rates)
    phases[..., 1:, :] = np.exp(1j * symbol_period * rates)[..., None, :]
    np.cumprod(phases, axis=-2, out=phases)
    return np.ascontiguousarray((phases @ weights[..., None])[..., 0].transpose(0, 3, 1, 2))
