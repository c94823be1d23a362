"""Tapped-delay-line Rayleigh channels with Jakes Doppler correlation.

Profiles follow the ITU outdoor tapped-delay-line tables (delays in seconds,
relative powers in dB, normalised so linear powers sum to one).
``load_profile`` builds every profile: a named one from its table, and
"custom", the only one that takes tables, from the caller's.  Each tap and
each of the two transmit antennas gets an independent sum-of-sinusoids
fading process: oscillators at ``f_d*cos(angle)`` with uniform random
arrival angles and circular complex Gaussian weights.  Gaussian weights make
every tap sample exactly complex normal with the profile power while keeping
the Jakes autocorrelation ``J0(2*pi*f_d*tau)`` over the oscillator ensemble.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

N_TX_ANTENNAS = 2
DEFAULT_OSCILLATORS = 32

# delays in ns, relative powers in dB
_PROFILE_TABLES: dict[str, tuple[tuple[float, ...], tuple[float, ...]]] = {
    "itu-pb": (
        (0.0, 200.0, 800.0, 1200.0, 2300.0, 3700.0),
        (0.0, -0.9, -4.9, -8.0, -7.8, -23.9),
    ),
    "itu-va": (
        (0.0, 310.0, 710.0, 1090.0, 1730.0, 2510.0),
        (0.0, -1.0, -9.0, -10.0, -15.0, -20.0),
    ),
    "flat": ((0.0,), (0.0,)),
}

PROFILE_NAMES = tuple(sorted(_PROFILE_TABLES))


@dataclass(frozen=True)
class ChannelProfile:
    """Power-delay profile plus the Doppler spread it will be animated with."""

    tap_delays_s: tuple[float, ...]
    tap_powers_db: tuple[float, ...]
    doppler_hz: float

    def __post_init__(self) -> None:
        delays = self.tap_delays_s
        if len(delays) == 0 or len(delays) != len(self.tap_powers_db):
            raise ValueError("profile needs matching, non-empty delay and power lists")
        if not np.isfinite([*delays, *self.tap_powers_db, self.doppler_hz]).all():
            raise ValueError("tap delays, tap powers and doppler must be finite")
        if delays[0] != 0.0:
            raise ValueError(f"first tap delay must be 0, got {delays[0]}")
        if any(b >= a for a, b in zip(delays[1:], delays[:-1])):
            raise ValueError("tap delays must be strictly increasing")
        if self.doppler_hz < 0:
            raise ValueError(f"doppler must be non-negative, got {self.doppler_hz}")
        # a linear total that overflows leaves powers of 0 or NaN, one that underflows NaN
        with np.errstate(over="ignore", invalid="ignore"):
            if not self.tap_powers_linear.max() > 0.0:
                raise ValueError(f"tap powers {self.tap_powers_db} dB have no finite linear total")

    def check_phase_step(self, symbol_period: float) -> None:
        """Raise ValueError unless realize_fading's largest phase step per symbol is finite."""
        if not np.isfinite(symbol_period * (2.0 * np.pi * self.doppler_hz)):
            raise ValueError(f"doppler_hz {self.doppler_hz:g} overflows the fading phase step per symbol")

    @property
    def tap_powers_linear(self) -> np.ndarray:
        """Linear tap powers normalised to unit total."""
        linear = 10.0 ** (np.asarray(self.tap_powers_db, dtype=float) / 10.0)
        return linear / linear.sum()


def load_profile(name: str, doppler_hz: float, delays_ns=None, powers_db=None) -> ChannelProfile:
    """Profile ``name`` with the given Doppler.

    A named profile ("itu-pb", "itu-va" or "flat") reads its delay (ns) and
    power (dB) lists from its table and takes none; "custom" takes both.
    """
    if name == "custom":
        if delays_ns is None or powers_db is None:
            raise ValueError("custom channel requires custom_delays_ns and custom_powers_db")
    elif delays_ns is not None or powers_db is not None:
        raise ValueError(f"custom tap tables require channel 'custom', got {name!r}")
    elif name not in _PROFILE_TABLES:
        raise ValueError(f"unknown channel profile {name!r}; expected one of {PROFILE_NAMES}")
    else:
        delays_ns, powers_db = _PROFILE_TABLES[name]
    return ChannelProfile(
        tap_delays_s=tuple(float(d) * 1e-9 for d in delays_ns),
        tap_powers_db=tuple(float(p) for p in powers_db),
        doppler_hz=doppler_hz,
    )


def _oscillators(
    mean_power, doppler_hz: float, uniforms: np.ndarray, normals: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Angular rates and complex weights of oscillators.

    ``uniforms`` has shape (..., oscillator) and gives the arrival angles,
    uniform on [0, 2*pi); ``normals`` has shape (..., 2, oscillator) and
    gives the real, then the imaginary parts of the weights, circular
    Gaussian with total power ``mean_power``, which broadcasts against the
    leading axes.
    """
    angles = 2.0 * np.pi * uniforms
    scale = np.sqrt(mean_power / (2.0 * uniforms.shape[-1]))
    # scale * (real + 1j * imag), written plane by plane: the same bytes
    weights = np.empty(uniforms.shape, dtype=np.complex128)
    np.multiply(scale, normals[..., 0, :], out=weights.real)
    np.multiply(scale, normals[..., 1, :], out=weights.imag)
    return 2.0 * np.pi * doppler_hz * np.cos(angles), weights


class JakesFadingProcess:
    """One time-correlated Rayleigh tap: sum of ``DEFAULT_OSCILLATORS``
    Doppler-shifted oscillators, the count ``realize_fading`` draws per tap.

    ``sample(times)`` is exactly CN(0, mean_power) at every instant and the
    ensemble autocorrelation over (angle, weight) draws is
    ``mean_power * J0(2*pi*doppler_hz*tau)``.
    """

    def __init__(self, mean_power: float, doppler_hz: float, rng: np.random.Generator) -> None:
        if mean_power <= 0:
            raise ValueError("mean_power must be positive")
        # the angles' uniform variates, then the weights' real parts, then
        # their imaginary parts
        uniforms = rng.random(DEFAULT_OSCILLATORS)
        normals = rng.standard_normal((2, DEFAULT_OSCILLATORS))
        self._rates, self._weights = _oscillators(mean_power, doppler_hz, uniforms, normals)
        self.mean_power = mean_power
        self.doppler_hz = doppler_hz

    def sample(self, times: np.ndarray) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        return np.exp(1j * np.outer(times, self._rates)) @ self._weights


@lru_cache(maxsize=16)
def tap_grid(profile: ChannelProfile, sample_period: float) -> tuple[np.ndarray, np.ndarray]:
    """Round delays to the sample grid (half-up) and merge collisions by power.

    Raises ValueError unless the sample period is positive and finite and every
    position fits an int64.  Cached per (profile, sample period), arrays read-only.
    """
    if not 0.0 < sample_period < np.inf:
        raise ValueError(f"sample_period must be positive and finite, got {sample_period}")
    positions = np.floor(np.asarray(profile.tap_delays_s, dtype=float) / sample_period + 0.5)
    # the last tap's is the largest; an int64 cast would wrap it
    if not positions[-1] < 2.0**63:
        raise ValueError(f"tap delay {profile.tap_delays_s[-1]:g} s lies beyond the int64 sample grid")
    positions = positions.astype(np.int64)
    powers = profile.tap_powers_linear
    unique, inverse = np.unique(positions, return_inverse=True)
    merged = np.bincount(inverse, weights=powers)
    unique.flags.writeable = False
    merged.flags.writeable = False
    return unique, merged


def realize_fading(
    profile: ChannelProfile,
    sample_period: float,
    n_ofdm_symbols: int,
    angle_rng: np.random.Generator,
    weight_rng: np.random.Generator,
    *,
    samples_per_symbol: int,
    frames: int,
) -> np.ndarray:
    """Tap gains of ``frames`` frames sampled at OFDM-symbol midpoints.

    Returns the read-only array ``taps[f, s, i, l]``: tap ``l`` of antenna
    ``i`` during OFDM symbol ``s`` of frame ``f``, with the taps merged onto
    the sample grid whose delays ``tap_grid`` gives.

    The oscillators' arrival angles come from ``angle_rng`` and their
    weights from ``weight_rng``, one call each: uniforms of shape (frame,
    antenna, tap, oscillator) and normals of shape (frame, antenna, tap, 2,
    oscillator), the real parts of a tap's weights before their imaginary
    parts.  Each stream is consumed in frame order, so frame ``f`` equals
    what the ``f``-th of F one-frame calls on the same two generators would
    return.

    The oscillators are sampled by a phasor recurrence rather than an ``exp``
    per symbol: each one's phasor at the first midpoint,
    ``exp(1j*rate*T/2)``, is multiplied by its per-symbol step
    ``exp(1j*rate*T)`` along the symbols.  This differs from the ``exp`` of
    ``JakesFadingProcess.sample`` by rounding only, a few ulps per symbol;
    at zero Doppler every step is exactly 1.  All taps of all frames are
    then summed by one stacked matrix-vector product.
    """
    if n_ofdm_symbols < 1:
        raise ValueError("need at least one OFDM symbol")
    if samples_per_symbol < 1:
        raise ValueError("samples_per_symbol must be positive")
    if frames < 1:
        raise ValueError(f"frames must be positive, got {frames}")
    _, powers = tap_grid(profile, sample_period)
    symbol_period = samples_per_symbol * sample_period
    profile.check_phase_step(symbol_period)
    shape = (frames, N_TX_ANTENNAS, powers.shape[0])
    uniforms = angle_rng.random(shape + (DEFAULT_OSCILLATORS,))
    normals = weight_rng.standard_normal(shape + (2, DEFAULT_OSCILLATORS))
    rates, weights = _oscillators(powers[:, None], profile.doppler_hz, uniforms, normals)
    # exp(1j * rate * (s + 0.5) * T) as a running product over the symbols s
    phases = np.empty(rates.shape[:-1] + (n_ofdm_symbols, DEFAULT_OSCILLATORS), dtype=np.complex128)
    phases[..., 0, :] = np.exp(0.5j * symbol_period * rates)
    phases[..., 1:, :] = np.exp(1j * symbol_period * rates)[..., None, :]
    np.cumprod(phases, axis=-2, out=phases)
    # (frame, antenna, tap, symbol) -> (frame, symbol, antenna, tap)
    taps = np.ascontiguousarray((phases @ weights[..., None])[..., 0].transpose(0, 3, 1, 2))
    taps.flags.writeable = False
    return taps


def subcarrier_gains(taps: np.ndarray, tap_sample_delays: np.ndarray, n: int) -> np.ndarray:
    """Per-subcarrier gains seen after causal convolution and CP removal.

    ``taps`` holds tap gains on its last axis, at the sample delays
    ``tap_sample_delays``, with any leading axes.  The result replaces that
    axis by N bins: ``gains[..., k] = sum_l h_l * exp(-2j*pi*k*d_l/N)``.
    """
    dense = np.zeros(taps.shape[:-1] + (n,), dtype=np.complex128)
    dense[..., tap_sample_delays] = taps
    return np.fft.fft(dense, axis=-1)
