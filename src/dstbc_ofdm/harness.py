"""End-to-end link simulation: bits through fading, imbalance and detection.

A run point simulates frames until enough bits are counted.  Each frame draws
a fresh fading realization and carries one reference space-time block (for
the differential modes) followed by ``blocks_per_frame`` information blocks;
coherent frames carry information blocks only.  Per OFDM symbol the two
antenna waveforms are convolved with the time-varying taps (linear
convolution with memory across symbols; the cyclic prefix restores
circularity), summed, hit with AWGN and then with the receiver I/Q
imbalance, and demodulated.

Frames are simulated in chunks of at most ``_CHUNK_SAMPLES`` time-domain
samples (or one frame, if that is longer), each stage running once per chunk
over a leading frame axis.  The point's
generator still makes every frame's draws in frame order (its two fading
substreams, then its bits, then its noise), so records do not depend on the
chunk size.

SNR is the ratio of received signal power per active subcarrier (unit by
construction: unit-power channels, unitary space-time blocks) to the noise
variance per complex sample, both taken before the imbalance stage.
"""
from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .channel import (
    ChannelProfile,
    FadingRealization,
    PROFILE_NAMES,
    custom_profile,
    load_profile,
    realize_fading,
    subcarrier_gains,
    tap_grid,
)
from .compensator import CompensatorState, decision_directed_pass, gamma_true
from .iqi import derive_iqi_params, apply_rx_iqi
from .numerics import SUPPORTED_PSK_ORDERS, bits_to_indices, psk_constellation
from .ofdm import active_indices, mirror_permutation, ofdm_demodulate, ofdm_modulate
from .stbc import coherent_detect, differential_detect, differential_encode

DETECTION_MODES = ("differential", "coherent")
COMPENSATION_MODES = ("off", "genie_gamma", "lms")

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Time-domain samples per chunk of frames: one default differential frame,
# 42 OFDM symbols (2 * 20 information symbols plus the reference block) of
# 64 + 20 samples.  Shorter frames are batched max(1, _CHUNK_SAMPLES //
# frame samples) at a time; on the default grid that is 42 // n_symbols.  A
# chunk of several frames thus stays below numpy's 256 KiB threshold for
# reusing temporaries in place, whose loops round differently in the last
# bit, so chunks give the same bits as frame-by-frame simulation.
_CHUNK_SAMPLES = 42 * 84


class ConfigError(ValueError):
    """Raised for invalid or inconsistent simulation configuration."""


@dataclass(frozen=True)
class SimConfig:
    n_subcarriers: int = 64
    cp_len: int = 20
    psk_order: int = 8
    bandwidth_hz: float = 5e6
    carrier_hz: float = 2.5e9
    channel: str = "itu-pb"
    doppler_hz: float = 11.6
    custom_delays_ns: tuple[float, ...] | None = None
    custom_powers_db: tuple[float, ...] | None = None
    iqi_kappa_db: float = 0.0
    iqi_phi_deg: float = 0.0
    detection: str = "differential"
    compensation: str = "off"
    snr_grid_db: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)
    min_bits: int = 2_000_000
    max_block_pairs: int = 50_000_000
    blocks_per_frame: int = 20
    lms_step_size: float = 0.005
    seed: int = 20240

    @property
    def sample_period(self) -> float:
        return 1.0 / self.bandwidth_hz

    def validate(self) -> None:
        n = self.n_subcarriers
        if n < 8 or (n & (n - 1)) != 0:
            raise ConfigError(f"n_subcarriers must be a power of two >= 8, got {n}")
        if not 0 < self.cp_len < n:
            raise ConfigError(f"cp_len must lie in (0, {n}), got {self.cp_len}")
        if self.psk_order not in SUPPORTED_PSK_ORDERS:
            raise ConfigError(f"psk_order must be one of {SUPPORTED_PSK_ORDERS}, got {self.psk_order}")
        if self.bandwidth_hz <= 0 or self.carrier_hz <= 0:
            raise ConfigError("bandwidth_hz and carrier_hz must be positive")
        if self.detection not in DETECTION_MODES:
            raise ConfigError(f"detection must be one of {DETECTION_MODES}, got {self.detection!r}")
        if self.compensation not in COMPENSATION_MODES:
            raise ConfigError(
                f"compensation must be one of {COMPENSATION_MODES}, got {self.compensation!r}"
            )
        if self.doppler_hz < 0:
            raise ConfigError(f"doppler_hz must be non-negative, got {self.doppler_hz}")
        if self.min_bits < 1 or self.max_block_pairs < 1 or self.blocks_per_frame < 1:
            raise ConfigError("min_bits, max_block_pairs and blocks_per_frame must be positive")
        if self.lms_step_size <= 0:
            raise ConfigError(f"lms_step_size must be positive, got {self.lms_step_size}")
        if self.compensation != "off" and self.detection != "differential":
            raise ConfigError("compensation modes require differential detection")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not self.snr_grid_db:
            raise ConfigError("snr_grid_db must not be empty")
        for value in self.snr_grid_db:
            if math.isnan(value):
                raise ConfigError("snr_grid_db values must not be NaN")
            _snr_key(value)
        try:
            profile = resolve_profile(self)
            positions, _ = tap_grid(profile, self.sample_period)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if positions[-1] > self.cp_len:
            raise ConfigError(
                f"channel delay spread {positions[-1]} samples exceeds cp_len {self.cp_len}"
            )
        try:
            derive_iqi_params(self.iqi_kappa_db, self.iqi_phi_deg)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


def resolve_profile(cfg: SimConfig) -> ChannelProfile:
    """Channel profile named by the config (including custom tap tables)."""
    if cfg.channel == "custom":
        if cfg.custom_delays_ns is None or cfg.custom_powers_db is None:
            raise ConfigError("custom channel requires custom_delays_ns and custom_powers_db")
        return custom_profile(cfg.custom_delays_ns, cfg.custom_powers_db, cfg.doppler_hz)
    if cfg.channel not in PROFILE_NAMES:
        raise ConfigError(f"unknown channel {cfg.channel!r}; expected one of {PROFILE_NAMES} or 'custom'")
    return load_profile(cfg.channel, cfg.doppler_hz)


@dataclass(frozen=True)
class BerRecord:
    """Outcome of one simulated SNR point (elapsed time excluded from equality)."""

    snr_db: float
    detection: str
    compensation: str
    channel: str
    doppler_hz: float
    bits: int
    bit_errors: int
    ber: float
    seed: int
    elapsed_s: float = field(compare=False, default=0.0)


def _snr_key(snr_db: float) -> int:
    """Non-negative integer naming an SNR value: +inf, or finite within 1000 dB."""
    if math.isinf(snr_db) and snr_db > 0:
        return 1 << 41
    if abs(snr_db) <= 1000.0:
        return int(round(snr_db * 1e6)) + (1 << 40)
    raise ConfigError(f"snr_db {snr_db} out of supported range")


def _point_rng(seed: int, snr_db: float) -> np.random.Generator:
    """Per-point generator keyed by (seed, SNR value) so grid order is irrelevant."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), _snr_key(snr_db)]))


def _frame_count(min_bits: int, bits_per_frame: int, max_blocks: int, blocks_per_frame: int) -> int:
    """Frames a point simulates: until ``min_bits`` are counted or ``max_blocks`` are sent."""
    return min(-(-min_bits // bits_per_frame), -(-max_blocks // blocks_per_frame))


def _apply_channel(
    streams: np.ndarray,
    fading: FadingRealization,
    samples_per_symbol: int,
) -> np.ndarray:
    """Per frame, the sum of per-antenna linear convolutions with symbol-rate tap updates.

    ``streams`` is (frame, antenna, sample); ``fading.taps`` has the same
    leading frame axis.
    """
    n_frames, n_antennas, total = streams.shape
    received = np.zeros((n_frames, total), dtype=np.complex128)
    positions = fading.tap_sample_delays
    for l, pos in enumerate(positions):
        gains = np.repeat(fading.taps[..., l], samples_per_symbol, axis=1)
        for ant in range(n_antennas):
            if pos == 0:
                received += gains[..., ant] * streams[:, ant]
            else:
                received[:, pos:] += gains[:, pos:, ant] * streams[:, ant, : total - pos]
    return received


def _frame_spectra(
    freq_symbols: np.ndarray,
    fading: FadingRealization,
    cp_len: int,
    sigma: float,
    iqi_params,
    noise: np.ndarray | None,
) -> np.ndarray:
    """Transmit, propagate, distort and demodulate a chunk of frames.

    ``freq_symbols`` is (frame, antenna, symbol, subcarrier).  ``noise``
    holds each frame's complex samples with standard normal real and
    imaginary parts, or is None when there is no noise.
    """
    n_frames, _, n_sym, n_sub = freq_symbols.shape
    samples_per_symbol = n_sub + cp_len
    streams = ofdm_modulate(freq_symbols, cp_len).reshape(n_frames, 2, n_sym * samples_per_symbol)
    received = _apply_channel(streams, fading, samples_per_symbol)
    if noise is not None:
        received = received + (sigma * _INV_SQRT2) * noise
    received = apply_rx_iqi(received, iqi_params)
    return ofdm_demodulate(received.reshape(n_frames, n_sym, samples_per_symbol), cp_len)


def _popcount_table(order: int) -> np.ndarray:
    return np.array([bin(v).count("1") for v in range(order)], dtype=np.int64)


class _PointEngine:
    """Shared state for simulating one (config, SNR) point in chunks of frames."""

    def __init__(self, cfg: SimConfig, snr_db: float, seed: int):
        cfg.validate()
        self.cfg = cfg
        self.snr_db = float(snr_db)
        self.seed = int(seed)
        self.profile = resolve_profile(cfg)
        self.constellation = psk_constellation(cfg.psk_order)
        self.iqi = derive_iqi_params(cfg.iqi_kappa_db, cfg.iqi_phi_deg)
        self.rng = _point_rng(seed, snr_db)
        self.sigma_sq = 0.0 if math.isinf(snr_db) else 10.0 ** (-snr_db / 10.0)
        n = cfg.n_subcarriers
        self.act0 = active_indices(n)
        self.mirror_perm = mirror_permutation(n)
        self.low0 = np.arange(1, n // 2, dtype=np.int64)
        self.mir0 = self.mirror_perm[self.low0]
        act_pos = np.full(n, -1, dtype=np.int64)
        act_pos[self.act0] = np.arange(self.act0.shape[0])
        self.low_pos = act_pos[self.low0]
        self.mir_pos = act_pos[self.mir0]
        self.popcount = _popcount_table(cfg.psk_order)
        self.labels = self.constellation.bits_of_index
        self.comp_state = CompensatorState(0.0 + 0.0j, cfg.lms_step_size, 0)
        self.gamma_trace: list[np.ndarray] = []
        is_differential = cfg.detection == "differential"
        self.n_blocks = cfg.blocks_per_frame
        self.n_symbols = 2 * self.n_blocks + (2 if is_differential else 0)

    # ---- per-chunk steps; arrays carry a leading frame axis -------------

    def _draw_bits_and_noise(self, n_frames: int, samples: int, noisy: bool):
        """Each frame's bits, then its noise, frame after frame.

        Returns the bits, (frame, block, subcarrier, antenna, bit), and the
        noise, (frame, sample) or None: complex samples whose real and
        imaginary parts are consecutive standard normal draws.
        """
        bps = self.constellation.bits_per_symbol
        shape = (self.n_blocks, self.act0.shape[0], 2, bps)
        bits = np.empty((n_frames,) + shape, dtype=np.int8)
        noise = np.empty((n_frames, samples), dtype=np.complex128) if noisy else None
        for k in range(n_frames):
            bits[k] = self.rng.integers(0, 2, size=shape, dtype=np.int8)
            if noisy:
                self.rng.standard_normal(out=noise[k].view(np.float64))
        return bits, noise

    def _true_indices(self, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        indices = bits_to_indices(bits, self.cfg.psk_order).reshape(bits.shape[:-1])
        return indices[..., 0], indices[..., 1]

    def _transmit_symbols(self, idx1: np.ndarray, idx2: np.ndarray) -> np.ndarray:
        """Frequency-domain antenna symbols, (frame, antenna, symbol, subcarrier)."""
        cfg = self.cfg
        points = self.constellation.points
        x1 = points[idx1]
        x2 = points[idx2]
        n_frames = idx1.shape[0]
        freq = np.zeros((n_frames, 2, self.n_symbols, cfg.n_subcarriers), dtype=np.complex128)
        if cfg.detection == "differential":
            # block-major, so that each step of the recursion reads and
            # writes whole (frame, subcarrier) planes
            s_a, s_b = differential_encode(
                (x1 * _INV_SQRT2).transpose(1, 0, 2), (x2 * _INV_SQRT2).transpose(1, 0, 2)
            )
            s_a = s_a.transpose(1, 0, 2)
            s_b = s_b.transpose(1, 0, 2)
        else:
            s_a = x1 * _INV_SQRT2
            s_b = x2 * _INV_SQRT2
        freq[:, 0, 0::2][..., self.act0] = s_a
        freq[:, 1, 0::2][..., self.act0] = -np.conj(s_b)
        freq[:, 0, 1::2][..., self.act0] = s_b
        freq[:, 1, 1::2][..., self.act0] = np.conj(s_a)
        return freq

    def _count_index_errors(self, det1, det2, idx1, idx2) -> int:
        e1 = self.popcount[self.labels[det1] ^ self.labels[idx1]].sum()
        e2 = self.popcount[self.labels[det2] ^ self.labels[idx2]].sum()
        return int(e1 + e2)

    def _detect_differential(self, z: np.ndarray, idx1, idx2) -> int:
        za = z[:, 0::2][..., self.act0]
        zb = z[:, 1::2][..., self.act0]
        det1, det2 = differential_detect(
            za[:, :-1], zb[:, :-1], za[:, 1:], zb[:, 1:], self.cfg.psk_order
        )
        return self._count_index_errors(det1, det2, idx1, idx2)

    def _detect_coherent(self, z: np.ndarray, fading: FadingRealization, idx1, idx2) -> int:
        # gains of the first symbol of each block only
        gains = subcarrier_gains(
            fading.taps[:, 0::2], fading.tap_sample_delays, self.cfg.n_subcarriers
        )
        lam1 = gains[:, :, 0][..., self.act0]
        lam2 = gains[:, :, 1][..., self.act0]
        za = z[:, 0::2][..., self.act0]
        zb = z[:, 1::2][..., self.act0]
        det1, det2 = coherent_detect(za, zb, lam1, lam2, self.cfg.psk_order)
        return self._count_index_errors(det1, det2, idx1, idx2)

    def _detect_lms(self, z: np.ndarray, bits: np.ndarray, collect_trace: bool) -> int:
        """Errors of one frame through the LMS pass; ``z`` and ``bits`` have no frame axis."""
        det_bits, self.comp_state, trace = decision_directed_pass(
            z[:, self.low0], np.conj(z[:, self.mir0]), self.comp_state, self.constellation
        )
        if collect_trace:
            self.gamma_trace.append(trace)
        # per (block, pair) the stream carries the lower subcarrier's two
        # symbols then the mirror's two symbols
        true_bits = np.concatenate(
            [
                bits[:, self.low_pos],
                bits[:, self.mir_pos],
            ],
            axis=2,
        ).reshape(-1)
        return int(np.count_nonzero(det_bits != true_bits))

    def run(self, collect_trace: bool = False) -> BerRecord:
        cfg = self.cfg
        start = time.perf_counter()
        bps = self.constellation.bits_per_symbol
        bits_per_frame = self.n_blocks * self.act0.shape[0] * 2 * bps
        n_frames = _frame_count(cfg.min_bits, bits_per_frame, cfg.max_block_pairs, self.n_blocks)
        samples_per_symbol = cfg.n_subcarriers + cfg.cp_len
        chunk = max(1, _CHUNK_SAMPLES // (self.n_symbols * samples_per_symbol))
        sigma = math.sqrt(self.sigma_sq)
        gamma = gamma_true(self.iqi) if cfg.compensation == "genie_gamma" else None
        total_errors = 0
        for first in range(0, n_frames, chunk):
            n = min(chunk, n_frames - first)
            fading = realize_fading(
                self.profile,
                cfg.sample_period,
                self.n_symbols,
                self.rng,
                samples_per_symbol=samples_per_symbol,
                frames=n,
            )
            bits, noise = self._draw_bits_and_noise(
                n, self.n_symbols * samples_per_symbol, sigma > 0.0
            )
            idx1, idx2 = self._true_indices(bits)
            freq = self._transmit_symbols(idx1, idx2)
            z = _frame_spectra(freq, fading, cfg.cp_len, sigma, self.iqi, noise)
            if cfg.compensation == "lms":
                for k in range(n):
                    total_errors += self._detect_lms(z[k], bits[k], collect_trace)
            else:
                if gamma is not None:
                    z = z + gamma * np.conj(z[..., self.mirror_perm])
                if cfg.detection == "differential":
                    total_errors += self._detect_differential(z, idx1, idx2)
                else:
                    total_errors += self._detect_coherent(z, fading, idx1, idx2)
        total_bits = n_frames * bits_per_frame
        elapsed = time.perf_counter() - start
        return BerRecord(
            snr_db=self.snr_db,
            detection=cfg.detection,
            compensation=cfg.compensation,
            channel=cfg.channel,
            doppler_hz=cfg.doppler_hz,
            bits=total_bits,
            bit_errors=total_errors,
            ber=total_errors / total_bits,
            seed=self.seed,
            elapsed_s=elapsed,
        )


def run_point(cfg: SimConfig, snr_db: float, seed: int | None = None) -> BerRecord:
    """Simulate one SNR point; identical (cfg, snr_db, seed) gives identical output."""
    engine = _PointEngine(cfg, snr_db, cfg.seed if seed is None else seed)
    return engine.run()


def run_point_with_trace(
    cfg: SimConfig, snr_db: float, seed: int | None = None
) -> tuple[BerRecord, np.ndarray]:
    """Like run_point but also returns the LMS gamma trajectory (per update)."""
    engine = _PointEngine(cfg, snr_db, cfg.seed if seed is None else seed)
    record = engine.run(collect_trace=True)
    if engine.gamma_trace:
        trace = np.concatenate(engine.gamma_trace)
    else:
        trace = np.empty(0, dtype=np.complex128)
    return record, trace


def _run_point_args(args) -> BerRecord:
    cfg, snr_db = args
    return run_point(cfg, snr_db)


def run_sweep(cfg: SimConfig, workers: int = 1) -> list[BerRecord]:
    """Simulate every SNR grid point, sorted ascending; points are independent."""
    cfg.validate()
    grid = sorted(set(float(s) for s in cfg.snr_grid_db))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run_point_args, [(cfg, s) for s in grid]))
    else:
        records = [run_point(cfg, s) for s in grid]
    return records


def write_records_csv(path, records) -> None:
    """Write sweep results, one column per BerRecord field, floats at 9 significant digits."""
    import csv as _csv

    columns = fields(BerRecord)
    with open(path, "w", newline="") as handle:
        writer = _csv.writer(handle)
        writer.writerow([f.name for f in columns])
        for r in records:
            writer.writerow(
                [f"{getattr(r, f.name):.9g}" if f.type == "float" else getattr(r, f.name) for f in columns]
            )
