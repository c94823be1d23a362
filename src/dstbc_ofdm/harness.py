"""End-to-end link simulation: bits through fading, imbalance and detection.

A run point simulates frames until enough bits are counted.  Each frame draws
a fresh fading realization and carries one reference space-time block (for
the differential modes) followed by ``blocks_per_frame`` information blocks;
coherent frames carry information blocks only.

The link is evaluated per OFDM symbol and per bin, on the active (k, mirror)
pairs, straight from each space-time block's top row ``(s_a, s_b)``: the
block's two symbols receive ``Y = H0*s_a - H1*conj(s_b) + N`` and ``Y =
H0*s_b + H1*conj(s_a) + N`` with the gains of each symbol's taps, then the
receiver I/Q imbalance ``alpha*Y + beta*conj(Y of the mirror)``.  That is
exactly what a cyclic-prefix modem, a time-domain convolution with
symbol-rate tap updates, imbalance on the samples and a DFT would give:
taps are constant over a symbol and ``SimConfig.validate`` bounds the delay
spread by the cyclic prefix, so each symbol's body reads only its own
samples through its own taps.  A unitary DFT of white noise is white, so
the noise is drawn per symbol and pair bin, and each block's two symbol
indices are drawn uniformly (uniform bits under the Gray labelling),
already in pair order.

Frames are simulated in chunks of at most ``_CHUNK_SAMPLES`` time-domain
samples (or one frame, if that is longer): four default frames, more of
shorter ones.  Each stage runs once per chunk over a leading frame axis, so
its numpy call overhead is paid once per chunk, not once per frame.  A
config's seed spawns four independent streams: the fading's arrival angles,
its oscillator weights, the symbol indices and the noise.  A chunk draws
from each stream once, in frame order, so records do not depend on the
chunk size.

The streams are keyed by the seed alone, so every SNR point of a config
sees the same fading, symbols and standard normal noise draws (common
random numbers): only the noise scale, and with it the imbalance stage,
the compensation and detection, differ between points.  A group of points
therefore runs in lockstep: each chunk's fading, draws, subcarrier gains
and clean spectra (differential encoding and antenna map) are formed once,
then each point's receiver adds its scaled noise and runs the rest.  A
point's record does not depend on the other points of its group, so a
sweep, a single point, any grid order and any worker count agree record
for record.  Each point's BER has the distribution an independent run
would give it, so its per-point uncertainty is unchanged; but the points'
errors are positively correlated, so differences between points (and
between configs at one seed) are paired comparisons with less spread than
independent runs give, while a whole curve can sit high or low together
and its points are not independent samples of one another.

A differential receiver's one compensation state is gamma: none, the
genie's exact value, or the LMS pass's running estimate.

A config names its channel, and ``SimConfig.profile`` builds it with
``channel.load_profile``, which owns the profile tables and the rule that
only "custom" takes tap tables.

SNR is the ratio of received signal power per active subcarrier (unit by
construction: unit-power channels, unitary space-time blocks) to the noise
variance per complex sample, both taken before the imbalance stage.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .channel import ChannelProfile, load_profile, realize_fading, subcarrier_gains, tap_grid
from .compensator import decision_directed_pass, detect_pairs, gamma_true
from .iqi import derive_iqi_params, apply_rx_iqi
from .numerics import check_psk_order, psk_constellation
from .ofdm import pair_bins
from .stbc import INFO_SCALE, alamouti_detect, differential_encode

DETECTION_MODES = ("differential", "coherent")
COMPENSATION_MODES = ("off", "genie_gamma", "lms")

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Air time per chunk of frames, in sample periods: four default differential
# frames, each 42 OFDM symbols (2 * 20 information symbols plus the
# reference block) of 64 + 20 samples.  A chunk holds max(1, _CHUNK_SAMPLES
# // frame samples) frames; on the default grid that is 168 // n_symbols, so
# 4 default frames and 21 four-block coherent ones.  As N < N + cp_len, a
# chunk holds fewer than _CHUNK_SAMPLES (frame, symbol, bin) values per
# antenna, and 14,112 is below 16,384: its per-bin arrays stay under numpy's
# 256 KiB size for multiplying into a temporary in place, a loop that rounds
# differently in the last bit.  Past it (long frames, larger chunks) the link
# step and stbc.alamouti_statistics bind their conjugates to names, which
# leaves numpy no temporary to multiply into, so chunks give the same bits as
# frame-by-frame simulation.  Eight default frames were measured and
# rejected: peak memory rose about 9-10% (lms-track 42.8 -> 47.0 MB in the
# benchmark), at its 10% bound.
_CHUNK_SAMPLES = 4 * 42 * 84


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

    @property
    def profile(self) -> ChannelProfile:
        return load_profile(self.channel, self.doppler_hz, self.custom_delays_ns, self.custom_powers_db)

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
            _check_snr_db(value)
        # the PSK order, the channel profile (its Doppler included) and the
        # imbalance are checked by the code that builds them
        try:
            check_psk_order(self.psk_order)
            profile = self.profile
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


@dataclass(frozen=True)
class BerRecord:
    """Outcome of one simulated SNR point (elapsed time excluded from equality).

    Points simulated together in one group (a sweep, or one worker's share
    of it) run in lockstep, so ``elapsed_s`` is an even share of the
    group's wall time, not the point's own.
    """

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


def _check_snr_db(snr_db: float) -> None:
    """Raise ConfigError unless an SNR value is +inf, or finite within 1000 dB."""
    if not (snr_db == math.inf or abs(snr_db) <= 1000.0):
        raise ConfigError(f"snr_db {snr_db:g} out of supported range: finite within 1000 dB, or inf")


@dataclass
class _Receiver:
    """One SNR point of a group: its noise scale and its compensation state.

    ``gamma`` is none, the genie's exact value, or the LMS pass's running
    estimate, whose trajectory ``gamma_trace`` keeps on request.
    """

    snr_db: float
    sigma: float
    gamma: complex | None
    gamma_trace: list[np.ndarray] | None


class _GroupEngine:
    """Simulates a group of SNR points of one config in lockstep, in chunks of frames."""

    def __init__(self, cfg: SimConfig, snr_dbs, keep_trace: bool = False):
        for snr_db in snr_dbs:
            _check_snr_db(snr_db)
        self.cfg = cfg
        self.profile = cfg.profile
        self.tap_sample_delays = tap_grid(self.profile, cfg.sample_period)[0]
        self.constellation = psk_constellation(cfg.psk_order)
        # the info matrices' entries: the same bytes as scaling after the gather
        self.info_points = self.constellation.points * INFO_SCALE
        self.iqi = derive_iqi_params(cfg.iqi_kappa_db, cfg.iqi_phi_deg)
        # keyed by the seed alone: every point of the config sees the same draws
        streams = np.random.SeedSequence([cfg.seed]).spawn(4)
        self.angle_rng, self.weight_rng, self.index_rng, self.noise_rng = (
            np.random.default_rng(s) for s in streams
        )
        gamma = {"off": None, "genie_gamma": gamma_true(self.iqi), "lms": 0j}[cfg.compensation]
        self.receivers = [
            _Receiver(
                float(snr_db),
                0.0 if math.isinf(snr_db) else math.sqrt(10.0 ** (-snr_db / 10.0)),
                gamma,
                [] if keep_trace else None,
            )
            for snr_db in snr_dbs
        ]
        n = cfg.n_subcarriers
        self.samples_per_symbol = n + cfg.cp_len
        self.pair_bins = pair_bins(n)
        # bit_errors[decided * M + sent]: the bits in which two symbol labels
        # differ; the M x M table is kept flat, as one-axis lookups are faster
        labels = self.constellation.bits_of_index.tolist()
        self.bit_errors = np.array([bin(d ^ t).count("1") for d in labels for t in labels])
        self.n_blocks = cfg.blocks_per_frame
        self.n_symbols = 2 * self.n_blocks + (2 if cfg.detection == "differential" else 0)

    # ---- per-chunk steps; arrays carry a leading frame axis -------------

    def _draw_indices_and_noise(self, n_frames: int):
        """The symbol indices and the noise of the next ``n_frames`` frames.

        Returns the two symbol indices of every block, each (frame, block,
        pair bin), and the noise, (frame, symbol, pair bin), or None when no
        receiver of the group is noisy: complex values whose real and
        imaginary parts are consecutive standard normal draws.  Each stream
        is consumed value by value (the bit generator keeps the unused half
        of a 64-bit word for the next ``integers`` call), so one call for F
        frames equals F one-frame calls.
        """
        shape = (n_frames, self.n_blocks, self.pair_bins.shape[0], 2)
        indices = self.index_rng.integers(0, self.cfg.psk_order, size=shape)
        noise = None
        if any(rx.sigma > 0.0 for rx in self.receivers):
            normals = self.noise_rng.standard_normal((n_frames, self.n_symbols) + shape[2:])
            noise = normals.view(np.complex128)[..., 0]
        return indices[..., 0], indices[..., 1], noise

    def _clean_spectra(self, idx1, idx2, gains) -> np.ndarray:
        """The noiseless spectra at the pair bins, (frame, symbol, pair bin).

        ``idx1`` and ``idx2`` are ``_draw_indices_and_noise``'s indices and
        ``gains`` the antennas' subcarrier gains, (frame, symbol, antenna,
        pair bin).  A block with top row (s_a, s_b) sends s_a and -conj(s_b)
        from the two antennas, then s_b and conj(s_a).
        """
        s_a = self.info_points[idx1]
        s_b = self.info_points[idx2]
        if self.cfg.detection == "differential":
            # block-major, so that each step of the recursion reads and
            # writes whole (frame, subcarrier) planes
            s_a, s_b = differential_encode(s_a.transpose(1, 0, 2), s_b.transpose(1, 0, 2))
            s_a = s_a.transpose(1, 0, 2)
            s_b = s_b.transpose(1, 0, 2)
        # bound to names, as in stbc.alamouti_statistics, so that numpy
        # never multiplies into them in place
        s_a_c = np.conj(s_a)
        s_b_c = np.conj(s_b)
        y = np.empty(gains.shape[:2] + gains.shape[3:], dtype=np.complex128)
        y[:, 0::2] = gains[:, 0::2, 0] * s_a - gains[:, 0::2, 1] * s_b_c
        y[:, 1::2] = gains[:, 1::2, 0] * s_b + gains[:, 1::2, 1] * s_a_c
        return y

    def _received_spectra(self, clean, noise, sigma: float) -> np.ndarray:
        """One receiver's spectra: ``clean`` plus ``sigma / sqrt(2)`` times
        ``noise``, through the imbalance; ``clean`` is left as it is for the
        group's other receivers.
        """
        if noise is not None and sigma > 0.0:
            clean = clean + (sigma * _INV_SQRT2) * noise
        return apply_rx_iqi(clean, self.iqi)

    def _adapt_gamma(self, values: np.ndarray, rx: _Receiver) -> np.ndarray:
        """The gamma each observation of a chunk saw, (frame, block pair, pair).

        ``values`` is the receiver's spectra in pair order; the LMS pass runs
        frame after frame, each starting from the gamma the last one ended with.
        """
        half = values.shape[-1] // 2
        seen = []
        for frame in values:
            try:
                trajectory = decision_directed_pass(
                    frame[:, :half], np.conj(frame[:, half:]), rx.gamma,
                    self.cfg.lms_step_size, self.constellation,
                )
            except (ValueError, OverflowError) as exc:
                # a non-finite decision statistic: gamma has run away
                raise ConfigError(
                    f"lms_step_size {self.cfg.lms_step_size:g} is too large: gamma diverged"
                ) from exc
            seen.append(np.concatenate([[rx.gamma], trajectory[1:-1:2]]))
            rx.gamma = trajectory[-1]
            if rx.gamma_trace is not None:
                rx.gamma_trace.append(trajectory)
        return np.reshape(seen, (values.shape[0], self.n_blocks, half))

    def _chunk_errors(self, n_frames: int) -> list[int]:
        """Simulate the next ``n_frames`` frames and count each receiver's bit errors.

        The fading, the draws, the gains and the clean spectra are formed
        once for the group; each receiver then adds its noise and runs the
        imbalance, its compensation and detection.  The chunk's arrays are
        freed on return, before the next chunk draws its own, which keeps
        the working set to one chunk and one receiver's spectra.
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
        idx1, idx2, noise = self._draw_indices_and_noise(n_frames)
        gains = subcarrier_gains(taps, self.tap_sample_delays, cfg.n_subcarriers)[..., self.pair_bins]
        del taps
        clean = self._clean_spectra(idx1, idx2, gains)
        # the coherent receiver's channel is the reference block: its gains
        # at the first symbol of each block, at both antennas
        ref = gains[:, 0::2]
        errors = []
        for rx in self.receivers:
            values = self._received_spectra(clean, noise, rx.sigma)
            if cfg.detection == "coherent":
                det1, det2 = alamouti_detect(
                    ref[:, :, 0], ref[:, :, 1], values[:, 0::2], values[:, 1::2], cfg.psk_order
                )
            else:
                gamma = self._adapt_gamma(values, rx) if cfg.compensation == "lms" else rx.gamma
                det1, det2 = detect_pairs(values, gamma, cfg.psk_order)
            errors.append(int(
                self.bit_errors[det1 * cfg.psk_order + idx1].sum()
                + self.bit_errors[det2 * cfg.psk_order + idx2].sum()
            ))
            # freed before the next receiver allocates its own, as the taps
            # were once the gains were formed: with both kept alive a
            # four-point floor-sweep rep took about 2,500 minor page faults
            # (a median of 26 without), plausibly glibc trimming and
            # regrowing its heap at every chunk
            del values, det1, det2
        return errors

    def run(self) -> list[BerRecord]:
        """One record per receiver; each gets an even share of the group's wall time."""
        cfg = self.cfg
        start = time.perf_counter()
        bps = self.constellation.bits_per_symbol
        bits_per_frame = self.n_blocks * self.pair_bins.shape[0] * 2 * bps
        n_frames = -(-cfg.min_bits // bits_per_frame)
        chunk = max(1, _CHUNK_SAMPLES // (self.n_symbols * self.samples_per_symbol))
        total_errors = np.zeros(len(self.receivers), dtype=np.int64)
        for first in range(0, n_frames, chunk):
            total_errors += self._chunk_errors(min(chunk, n_frames - first))
        total_bits = n_frames * bits_per_frame
        elapsed = (time.perf_counter() - start) / len(self.receivers)
        return [
            BerRecord(
                snr_db=rx.snr_db,
                detection=cfg.detection,
                compensation=cfg.compensation,
                channel=cfg.channel,
                doppler_hz=cfg.doppler_hz,
                bits=total_bits,
                bit_errors=errors,
                ber=errors / total_bits,
                seed=cfg.seed,
                elapsed_s=elapsed,
            )
            for rx, errors in zip(self.receivers, total_errors.tolist())
        ]


def _run_group(cfg: SimConfig, snr_dbs) -> list[BerRecord]:
    """Records of a group of SNR points, in the group's order."""
    return _GroupEngine(cfg, snr_dbs).run()


def run_point(cfg: SimConfig, snr_db: float) -> BerRecord:
    """Simulate one SNR point; identical (cfg, snr_db) gives identical output."""
    return _run_group(cfg, [snr_db])[0]


def run_point_with_trace(cfg: SimConfig, snr_db: float) -> tuple[BerRecord, np.ndarray]:
    """Like run_point but also returns the LMS gamma trajectory (per update)."""
    engine = _GroupEngine(cfg, [snr_db], keep_trace=True)
    [record] = engine.run()
    trace = engine.receivers[0].gamma_trace
    return record, np.concatenate(trace) if trace else np.empty(0, dtype=np.complex128)


def run_sweep(cfg: SimConfig, workers: int = 1) -> list[BerRecord]:
    """Simulate every SNR grid point, sorted ascending.

    The points share every draw (see the module docstring), so each record
    equals ``run_point`` at its SNR, whatever the rest of the grid.  Runs up
    to ``workers`` processes, never more than there are points, each on an
    interleaved group of the grid.
    """
    grid = sorted(set(float(s) for s in cfg.snr_grid_db))
    workers = min(workers, len(grid))
    if workers > 1:
        # imported here: concurrent.futures loads multiprocessing and
        # logging, which only a parallel sweep needs
        from concurrent.futures import ProcessPoolExecutor

        groups = [grid[i::workers] for i in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = [r for group in pool.map(_run_group, [cfg] * workers, groups) for r in group]
        return sorted(records, key=lambda r: r.snr_db)
    return _run_group(cfg, grid)
