"""End-to-end link simulation: bits through fading, imbalance and detection.

A run point simulates frames until enough bits are counted.  Each frame draws
a fresh fading realization and carries one reference space-time block (for
the differential modes) followed by ``blocks_per_frame`` information blocks;
coherent frames carry information blocks only.

The link is evaluated per OFDM symbol and per bin, on the active (k, mirror)
pairs: ``Y = H0*X0 + H1*X1 + N`` with the gains of the symbol's taps, then
the receiver I/Q imbalance ``alpha*Y + beta*conj(Y of the mirror)``.  That is
exactly what a cyclic-prefix modem, a time-domain convolution with
symbol-rate tap updates, imbalance on the samples and a DFT would give:
taps are constant over a symbol and ``SimConfig.validate`` bounds the delay
spread by the cyclic prefix, so each symbol's body reads only its own
samples through its own taps.  A unitary DFT of white noise is white, so
the noise is drawn per symbol and pair bin, and each block's two symbol
indices are drawn uniformly (uniform bits under the Gray labelling),
already in pair order.

Frames are simulated in chunks of at most ``_CHUNK_SAMPLES`` time-domain
samples (or one frame, if that is longer), each stage running once per chunk
over a leading frame axis.  A point's seed spawns four independent streams:
the fading's arrival angles, its oscillator weights, the symbol indices and
the noise.  A chunk draws from each stream once, in frame order, so records
do not depend on the chunk size.

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
    custom_profile,
    load_profile,
    realize_fading,
    subcarrier_gains,
    tap_grid,
)
from .compensator import decision_directed_pass, detect_pairs, gamma_true
from .iqi import derive_iqi_params, apply_rx_iqi
from .numerics import check_psk_order, psk_constellation
from .ofdm import pair_bins
from .stbc import INFO_SCALE, alamouti_detect, differential_encode

DETECTION_MODES = ("differential", "coherent")
COMPENSATION_MODES = ("off", "genie_gamma", "lms")

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Air time per chunk of frames, in sample periods: one default differential
# frame, 42 OFDM symbols (2 * 20 information symbols plus the reference
# block) of 64 + 20 samples.  Shorter frames are batched max(1,
# _CHUNK_SAMPLES // frame samples) at a time; on the default grid that is
# 42 // n_symbols.  As N < N + cp_len, a chunk of several frames holds fewer
# than _CHUNK_SAMPLES (frame, symbol, bin) values per antenna, so its
# per-bin arrays, the N-bin gains included, stay below numpy's 256 KiB
# threshold for reusing temporaries in place, whose loops round differently
# in the last bit; chunks thus give the same bits as frame-by-frame
# simulation.
_CHUNK_SAMPLES = 42 * 84


class ConfigError(ValueError):
    """Raised for invalid or inconsistent simulation configuration."""


@dataclass(frozen=True)
class SimConfig:
    n_subcarriers: int = 64
    cp_len: int = 20
    psk_order: int = 8
    bandwidth_hz: float = 5e6
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
    blocks_per_frame: int = 20
    lms_step_size: float = 0.005
    seed: int = 20240

    def __post_init__(self) -> None:
        self.validate()

    @property
    def sample_period(self) -> float:
        return 1.0 / self.bandwidth_hz

    def validate(self) -> None:
        """Raise ConfigError for any config that would fail later; construction calls it.

        The one fault no check here can see is an ``lms_step_size`` so large
        that gamma diverges: only the draws reveal it, and the LMS pass then
        raises ConfigError mid-run.
        """
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "str" or (value is None and f.type.endswith("| None")):
                continue
            if f.type == "int":
                if not isinstance(value, int) or isinstance(value, bool):
                    raise ConfigError(f"{f.name} must be an integer, got {value!r}")
                continue
            # a float, or a tuple of them
            values = (value,) if f.type == "float" else value
            if not isinstance(values, (tuple, list)) or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
            ):
                kind = "a number" if f.type == "float" else "a tuple of numbers"
                raise ConfigError(f"{f.name} must be {kind}, got {value!r}")
            # SNR grids take +inf, so they have rules of their own below
            if f.name != "snr_grid_db" and not all(math.isfinite(v) for v in values):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        n = self.n_subcarriers
        if n < 8 or (n & (n - 1)) != 0:
            raise ConfigError(f"n_subcarriers must be a power of two >= 8, got {n}")
        if not 0 < self.cp_len < n:
            raise ConfigError(f"cp_len must lie in (0, {n}), got {self.cp_len}")
        if self.bandwidth_hz <= 0:
            raise ConfigError(f"bandwidth_hz must be positive, got {self.bandwidth_hz}")
        if self.detection not in DETECTION_MODES:
            raise ConfigError(f"detection must be one of {DETECTION_MODES}, got {self.detection!r}")
        if self.compensation not in COMPENSATION_MODES:
            raise ConfigError(
                f"compensation must be one of {COMPENSATION_MODES}, got {self.compensation!r}"
            )
        if self.min_bits < 1 or self.blocks_per_frame < 1:
            raise ConfigError("min_bits and blocks_per_frame must be positive")
        if self.lms_step_size <= 0:
            raise ConfigError(f"lms_step_size must be positive, got {self.lms_step_size}")
        if self.compensation != "off" and self.detection != "differential":
            raise ConfigError("compensation modes require differential detection")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if not self.snr_grid_db:
            raise ConfigError("snr_grid_db must not be empty")
        for value in self.snr_grid_db:
            if math.isnan(value):
                raise ConfigError("snr_grid_db values must not be NaN")
            _snr_key(value)
        # the PSK order, the channel profile (its Doppler included) and the
        # imbalance are checked by the code that builds them
        try:
            check_psk_order(self.psk_order)
            profile = resolve_profile(self)
            derive_iqi_params(self.iqi_kappa_db, self.iqi_phi_deg)
        except OverflowError as exc:
            raise ConfigError(
                f"iqi_kappa_db {self.iqi_kappa_db:g} dB overflows the imbalance coefficients"
            ) from exc
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        # the last tap's sample position, rounded as tap_grid rounds it but
        # kept a float: tap_grid's int64 cast would wrap a huge one round
        spread = np.floor(profile.tap_delays_s[-1] / self.sample_period + 0.5)
        if spread > self.cp_len:
            raise ConfigError(f"channel delay spread {spread:.15g} samples exceeds cp_len {self.cp_len}")


def resolve_profile(cfg: SimConfig) -> ChannelProfile:
    """Channel profile named by the config; only channel "custom" takes tap tables."""
    tables = (cfg.custom_delays_ns, cfg.custom_powers_db)
    if cfg.channel != "custom":
        if tables != (None, None):
            raise ValueError(f"custom tap tables require channel 'custom', got {cfg.channel!r}")
        return load_profile(cfg.channel, cfg.doppler_hz)
    if None in tables:
        raise ValueError("custom channel requires custom_delays_ns and custom_powers_db")
    return custom_profile(*tables, cfg.doppler_hz)


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
    raise ConfigError(f"snr_db {snr_db:g} out of supported range: finite within 1000 dB, or inf")


class _PointEngine:
    """Shared state for simulating one (config, SNR) point in chunks of frames."""

    def __init__(self, cfg: SimConfig, snr_db: float):
        self.cfg = cfg
        self.snr_db = float(snr_db)
        self.profile = resolve_profile(cfg)
        self.tap_sample_delays = tap_grid(self.profile, cfg.sample_period)[0]
        self.constellation = psk_constellation(cfg.psk_order)
        self.iqi = derive_iqi_params(cfg.iqi_kappa_db, cfg.iqi_phi_deg)
        # keyed by (seed, SNR value), so grid order is irrelevant
        streams = np.random.SeedSequence([cfg.seed, _snr_key(snr_db)]).spawn(4)
        self.angle_rng, self.weight_rng, self.index_rng, self.noise_rng = (
            np.random.default_rng(s) for s in streams
        )
        self.sigma = 0.0 if math.isinf(snr_db) else math.sqrt(10.0 ** (-snr_db / 10.0))
        n = cfg.n_subcarriers
        self.samples_per_symbol = n + cfg.cp_len
        self.pair_bins = pair_bins(n)
        # bit_errors[decided * M + sent]: the bits in which two symbol labels
        # differ; the M x M table is kept flat, as one-axis lookups are faster
        labels = self.constellation.bits_of_index.tolist()
        self.bit_errors = np.array([bin(d ^ t).count("1") for d in labels for t in labels])
        self.gamma = 0.0 + 0.0j
        self.gamma_trace: list[np.ndarray] = []
        is_differential = cfg.detection == "differential"
        self.n_blocks = cfg.blocks_per_frame
        self.n_symbols = 2 * self.n_blocks + (2 if is_differential else 0)

    # ---- per-chunk steps; arrays carry a leading frame axis -------------

    def _draw_indices_and_noise(self, n_frames: int, noisy: bool):
        """The symbol indices and the noise of the next ``n_frames`` frames.

        Returns the two symbol indices of every block, each (frame, block,
        pair bin), and the noise, (frame, symbol, pair bin) or None: complex
        values whose real and imaginary parts are consecutive standard normal
        draws.  Each stream is consumed value by value (the bit generator
        keeps the unused half of a 64-bit word for the next ``integers``
        call), so one call for F frames equals F one-frame calls.
        """
        shape = (n_frames, self.n_blocks, self.pair_bins.shape[0], 2)
        indices = self.index_rng.integers(0, self.cfg.psk_order, size=shape)
        noise = None
        if noisy:
            normals = self.noise_rng.standard_normal((n_frames, self.n_symbols) + shape[2:])
            noise = normals.view(np.complex128)[..., 0]
        return indices[..., 0], indices[..., 1], noise

    def _transmit_symbols(self, idx1: np.ndarray, idx2: np.ndarray) -> np.ndarray:
        """Both antennas' symbols on the pair bins, (frame, symbol, antenna, pair bin)."""
        points = self.constellation.points
        u_a = points[idx1] * INFO_SCALE
        u_b = points[idx2] * INFO_SCALE
        if self.cfg.detection == "differential":
            # block-major, so that each step of the recursion reads and
            # writes whole (frame, subcarrier) planes
            s_a, s_b = differential_encode(u_a.transpose(1, 0, 2), u_b.transpose(1, 0, 2))
            u_a = s_a.transpose(1, 0, 2)
            u_b = s_b.transpose(1, 0, 2)
        n_frames, _, n_bins = idx1.shape
        tx = np.empty((n_frames, self.n_symbols, 2, n_bins), dtype=np.complex128)
        tx[:, 0::2, 0] = u_a
        tx[:, 0::2, 1] = -np.conj(u_b)
        tx[:, 1::2, 0] = u_b
        tx[:, 1::2, 1] = np.conj(u_a)
        return tx

    def _received_spectra(self, tx: np.ndarray, gains: np.ndarray, noise: np.ndarray | None) -> np.ndarray:
        """The received spectra at the pair bins, (frame, symbol, pair bin).

        ``tx`` holds the antennas' symbols and ``gains`` their subcarrier
        gains, both (frame, symbol, antenna, pair bin).  ``noise`` holds each
        bin's noise with standard normal real and imaginary parts, (frame,
        symbol, pair bin), or is None when there is no noise.
        """
        y = gains[:, :, 0] * tx[:, :, 0] + gains[:, :, 1] * tx[:, :, 1]
        if noise is not None:
            y += (self.sigma * _INV_SQRT2) * noise
        return apply_rx_iqi(y, self.iqi)

    def _adapt_gamma(self, values: np.ndarray, collect_trace: bool) -> np.ndarray:
        """The gamma each observation of a chunk saw, (frame, block pair, pair).

        ``values`` is the chunk's spectra in pair order; the LMS pass runs
        frame after frame, each starting from the gamma the last one ended with.
        """
        half = values.shape[-1] // 2
        seen = []
        for frame in values:
            try:
                trajectory = decision_directed_pass(
                    frame[:, :half], np.conj(frame[:, half:]), self.gamma,
                    self.cfg.lms_step_size, self.constellation,
                )
            except (ValueError, OverflowError) as exc:
                # a non-finite decision statistic: gamma has run away
                raise ConfigError(
                    f"lms_step_size {self.cfg.lms_step_size:g} is too large: gamma diverged"
                ) from exc
            seen.append(np.concatenate([[self.gamma], trajectory[1:-1:2]]))
            self.gamma = trajectory[-1]
            if collect_trace:
                self.gamma_trace.append(trajectory)
        return np.reshape(seen, (values.shape[0], self.n_blocks, half))

    def _chunk_errors(self, n_frames: int, gamma, collect_trace: bool) -> int:
        """Simulate the next ``n_frames`` frames and count their bit errors.

        ``gamma`` is the genie's compensation coefficient, or None.  The
        chunk's arrays are freed on return, before the next chunk draws its
        own, which keeps the working set to one chunk.
        """
        cfg = self.cfg
        taps = realize_fading(
            self.profile,
            cfg.sample_period,
            self.n_symbols,
            self.angle_rng,
            self.weight_rng,
            samples_per_symbol=self.samples_per_symbol,
            frames=n_frames,
        )
        idx1, idx2, noise = self._draw_indices_and_noise(n_frames, self.sigma > 0.0)
        gains = subcarrier_gains(taps, self.tap_sample_delays, cfg.n_subcarriers)[..., self.pair_bins]
        values = self._received_spectra(self._transmit_symbols(idx1, idx2), gains, noise)
        if cfg.detection == "coherent":
            # the channel is the reference block: its gains at the first
            # symbol of each block, at both antennas
            ref = gains[:, 0::2]
            det1, det2 = alamouti_detect(
                ref[:, :, 0], ref[:, :, 1], values[:, 0::2], values[:, 1::2], cfg.psk_order
            )
        else:
            if cfg.compensation == "lms":
                gamma = self._adapt_gamma(values, collect_trace)
            det1, det2 = detect_pairs(values, gamma, cfg.psk_order)
        return int(
            self.bit_errors[det1 * cfg.psk_order + idx1].sum()
            + self.bit_errors[det2 * cfg.psk_order + idx2].sum()
        )

    def run(self, collect_trace: bool = False) -> BerRecord:
        cfg = self.cfg
        start = time.perf_counter()
        bps = self.constellation.bits_per_symbol
        bits_per_frame = self.n_blocks * self.pair_bins.shape[0] * 2 * bps
        n_frames = -(-cfg.min_bits // bits_per_frame)
        chunk = max(1, _CHUNK_SAMPLES // (self.n_symbols * self.samples_per_symbol))
        gamma = gamma_true(self.iqi) if cfg.compensation == "genie_gamma" else None
        total_errors = 0
        for first in range(0, n_frames, chunk):
            total_errors += self._chunk_errors(min(chunk, n_frames - first), gamma, collect_trace)
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
            seed=cfg.seed,
            elapsed_s=elapsed,
        )


def run_point(cfg: SimConfig, snr_db: float) -> BerRecord:
    """Simulate one SNR point; identical (cfg, snr_db) gives identical output."""
    return _PointEngine(cfg, snr_db).run()


def run_point_with_trace(cfg: SimConfig, snr_db: float) -> tuple[BerRecord, np.ndarray]:
    """Like run_point but also returns the LMS gamma trajectory (per update)."""
    engine = _PointEngine(cfg, snr_db)
    record = engine.run(collect_trace=True)
    if engine.gamma_trace:
        trace = np.concatenate(engine.gamma_trace)
    else:
        trace = np.empty(0, dtype=np.complex128)
    return record, trace


def run_sweep(cfg: SimConfig, workers: int = 1) -> list[BerRecord]:
    """Simulate every SNR grid point, sorted ascending; points are independent.

    Runs up to ``workers`` processes, never more than there are points.
    """
    grid = sorted(set(float(s) for s in cfg.snr_grid_db))
    workers = min(workers, len(grid))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run_point, [cfg] * len(grid), grid))
    return [run_point(cfg, s) for s in grid]
