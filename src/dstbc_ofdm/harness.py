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
samples (or one frame, if that is longer): eight default frames, more of
shorter ones.  A point's frames go to the fewest chunks that fit, all of
one size but a last one that is no larger: 9 default frames go 5 and 4,
not 8 and 1.  Each stage runs once per chunk over a leading frame axis, so
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
genie's exact value, or the LMS pass's running estimate.  The LMS pass runs
once per chunk and receiver, through the chunk's frames in frame order, so
its trajectory too does not depend on the chunk size.

A config names its channel; ``channel`` builds it (``load_profile``) and
owns its sampled form (``tap_grid``, ``ChannelProfile.check_phase_step``).

SNR is the ratio of received signal power per active subcarrier (unit by
construction: unit-power channels, unitary space-time blocks) to the noise
variance per complex sample, both taken before the imbalance stage.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields, replace

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

# Air time per chunk of frames, in sample periods: eight default differential
# frames, each 42 OFDM symbols (2 * 20 information symbols plus the
# reference block) of 64 + 20 samples.  A chunk holds at most max(1,
# _CHUNK_SAMPLES // frame samples) frames; on the default grid that is 336
# // n_symbols, so 8 default frames and 42 four-block coherent ones.  A
# point's frames go to the fewest chunks within that budget, all of one size
# but the last: 9 default frames go 5 and 4, 21 go 7, 7 and 7.  Each stage
# pays its call overhead once per chunk, whatever the chunk's size.  A
# default chunk's arrays pass numpy's 256 KiB size for multiplying into a
# temporary in place, a loop that rounds differently in the last bit; the
# link step, the imbalance, the compensation and stbc.alamouti_statistics
# bind their operands to names, which leaves numpy no temporary to multiply
# into, so chunks give the same bits as frame-by-frame simulation.  Memory
# stays small because the taps and gains leave scope before the receivers
# run and the LMS pass takes half-width images and pairwise products.
_CHUNK_SAMPLES = 8 * 42 * 84

# The heap policy: one 4 MiB block, allocated and freed at import.  When
# glibc frees a block it had mmapped, it raises its mmap threshold to that
# block's size and its trim threshold to twice that (mallopt(3),
# M_MMAP_THRESHOLD).  So every chunk array stays on the heap (the largest,
# a full chunk's phasors, 8 default or 42 coherent frames, is about 2 MiB),
# whose top is trimmed only once 8 MiB, more than a chunk's working set, lie
# free there; without it, the allocation order of a chunk's temporaries
# decided whether its pages were unmapped and faulted back in, at up to 30%
# end to end.  On other allocators this is one untouched allocation.
np.empty(1 << 19)


# The largest FFT of a deployed OFDM standard (DVB-T2's 32K mode).  A frame
# is never split across chunks, so a grid far past it fails only when a
# chunk allocates (2**60 subcarriers asked numpy for 4 EiB).
_MAX_SUBCARRIERS = 2**15


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

        No check here bounds ``lms_step_size``: whether gamma settles depends
        on the draws.  A step too large for it to settle runs to the end with
        a BER far above a settled gamma's; only one so large that gamma
        overflows makes the LMS pass raise ConfigError mid-run.
        """
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "str" or (value is None and f.type.endswith("| None")):
                continue
            if f.type == "int":
                if not isinstance(value, int) or isinstance(value, bool):
                    raise ConfigError(f"{f.name} must be a Python int (not bool), got {value!r}")
                continue
            # a float, or a tuple of them
            values = (value,) if f.type == "float" else value
            if not isinstance(values, (tuple, list)) or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
            ):
                kind = "Python int or float" if f.type == "float" else "tuple of Python ints or floats"
                raise ConfigError(f"{f.name} must be a {kind} (not bool), got {value!r}")
            # SNR grids take +inf, so they have rules of their own below
            if f.name != "snr_grid_db" and not all(math.isfinite(v) for v in values):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        n = self.n_subcarriers
        if n < 8 or (n & (n - 1)) != 0:
            raise ConfigError(f"n_subcarriers must be a power of two >= 8, got {n}")
        if n > _MAX_SUBCARRIERS:
            largest = _MAX_SUBCARRIERS.bit_length() - 1
            raise ConfigError(f"n_subcarriers 2**{n.bit_length() - 1} exceeds the largest grid, 2**{largest}")
        if not 0 < self.cp_len < n:
            raise ConfigError(f"cp_len must lie in (0, {n}), got {self.cp_len}")
        if self.bandwidth_hz <= 0:
            raise ConfigError(f"bandwidth_hz must be positive, got {self.bandwidth_hz}")
        if self.detection not in DETECTION_MODES:
            raise ConfigError(f"detection must be one of {DETECTION_MODES}, got {self.detection!r}")
        if self.compensation not in COMPENSATION_MODES:
            raise ConfigError(f"compensation must be one of {COMPENSATION_MODES}, got {self.compensation!r}")
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
            if not (value == math.inf or abs(value) <= 1000.0):
                raise ConfigError(f"snr_db {value:g} out of supported range: finite within 1000 dB, or inf")
        # each of these is checked by the code that builds or samples it
        try:
            check_psk_order(self.psk_order)
            profile = self.profile
            spread = tap_grid(profile, self.sample_period)[0][-1]
            profile.check_phase_step((n + self.cp_len) * self.sample_period)
            derive_iqi_params(self.iqi_kappa_db, self.iqi_phi_deg)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if spread > self.cp_len:
            raise ConfigError(f"channel delay spread {spread} samples exceeds cp_len {self.cp_len}")


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
    """Simulates the distinct SNR points of one config in lockstep, in chunks of frames."""

    def __init__(self, cfg: SimConfig, keep_trace: bool = False):
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
                snr_db,
                0.0 if math.isinf(snr_db) else math.sqrt(10.0 ** (-snr_db / 10.0)),
                gamma,
                [] if keep_trace else None,
            )
            for snr_db in sorted(set(float(s) for s in cfg.snr_grid_db))
        ]
        n = cfg.n_subcarriers
        self.samples_per_symbol = n + cfg.cp_len
        self.pair_bins = pair_bins(n)
        self.n_blocks = cfg.blocks_per_frame
        self.n_symbols = 2 * self.n_blocks + (2 if cfg.detection == "differential" else 0)

    # ---- per-chunk steps; arrays carry a leading frame axis -------------

    def _draw_indices_and_noise(self, n_frames: int):
        """The symbol indices and the noise of the next ``n_frames`` frames.

        Returns the two symbol indices of every block, each a contiguous
        (frame, block, pair bin) array, and the noise, (frame, symbol, pair
        bin): complex values whose real and imaginary parts are consecutive
        standard normal draws.  Each stream is consumed value by value (the
        bit generator keeps the unused half of a 64-bit word for the next
        ``integers`` call), so one call for F frames equals F one-frame calls.
        """
        shape = (n_frames, self.n_blocks, self.pair_bins.shape[0], 2)
        indices = self.index_rng.integers(0, self.cfg.psk_order, size=shape)
        normals = self.noise_rng.standard_normal((n_frames, self.n_symbols) + shape[2:])
        # one copy, index-major: each index's plane is contiguous
        idx1, idx2 = np.moveaxis(indices, -1, 0).copy()
        return idx1, idx2, normals.view(np.complex128)[..., 0]

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
        ``noise``, through the imbalance.  A noiseless receiver without
        imbalance gets the group's read-only ``clean`` array itself.
        """
        if sigma > 0.0:
            clean = clean + (sigma * _INV_SQRT2) * noise
        return apply_rx_iqi(clean, self.iqi)

    def _adapt_gamma(self, values: np.ndarray, rx: _Receiver) -> np.ndarray:
        """The gamma each observation of a chunk saw, (frame, block pair, pair).

        ``values`` is the receiver's spectra in pair order; one LMS pass runs
        over the chunk's frames in frame order, from the gamma the last chunk
        ended with.  Its image is the conjugate of the mirror half, the
        half of ``ofdm.pair_image(values)`` it reads.
        """
        half = values.shape[-1] // 2
        try:
            trajectory = decision_directed_pass(
                values[..., :half], np.conj(values[..., half:]), rx.gamma,
                self.cfg.lms_step_size, self.constellation,
            )
        except (ValueError, OverflowError) as exc:
            # a non-finite decision statistic: gamma has run away
            raise ConfigError(
                f"lms_step_size {self.cfg.lms_step_size:g} is too large: gamma diverged"
            ) from exc
        seen = np.concatenate([[rx.gamma], trajectory[1:-1:2]])
        rx.gamma = trajectory[-1]
        if rx.gamma_trace is not None:
            rx.gamma_trace.append(trajectory)
        return seen.reshape(values.shape[0], self.n_blocks, half)

    def _front_end(self, n_frames: int):
        """The group's shared part of the next ``n_frames`` frames.

        Returns the symbol indices and the noise of
        ``_draw_indices_and_noise``, the clean spectra, read-only as the
        receivers share them, and, for the coherent receiver, its channel:
        the gains at the first symbol of each block, one contiguous (frame,
        block, pair bin) array per antenna.  The taps and the other symbols'
        gains go out of scope on return, before any receiver runs.
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
        gains = subcarrier_gains(taps, self.tap_sample_delays, cfg.n_subcarriers)
        gains = gains.take(self.pair_bins, axis=-1)
        clean = self._clean_spectra(idx1, idx2, gains)
        clean.flags.writeable = False
        # one copy, antenna-major: each antenna's plane is contiguous
        ref = np.moveaxis(gains[:, 0::2], 2, 0).copy() if cfg.detection == "coherent" else None
        return idx1, idx2, noise, clean, ref

    def _chunk_errors(self, n_frames: int) -> list[int]:
        """Simulate the next ``n_frames`` frames and count each receiver's bit errors.

        The fading, the draws, the gains and the clean spectra are formed
        once for the group; each receiver then adds its noise and runs the
        imbalance, its compensation and detection.
        """
        cfg = self.cfg
        idx1, idx2, noise, clean, ref = self._front_end(n_frames)
        bit_errors = self.constellation.bit_errors
        errors = []
        for rx in self.receivers:
            values = self._received_spectra(clean, noise, rx.sigma)
            if ref is not None:
                det1, det2 = alamouti_detect(*ref, values[:, 0::2], values[:, 1::2], cfg.psk_order)
            else:
                gamma = self._adapt_gamma(values, rx) if cfg.compensation == "lms" else rx.gamma
                det1, det2 = detect_pairs(values, gamma, cfg.psk_order)
            errors.append(int(
                bit_errors[det1 * cfg.psk_order + idx1].sum()
                + bit_errors[det2 * cfg.psk_order + idx2].sum()
            ))
        return errors

    def run(self) -> list[BerRecord]:
        """One record per receiver; each gets an even share of the group's wall time."""
        cfg = self.cfg
        start = time.perf_counter()
        bps = self.constellation.bits_per_symbol
        bits_per_frame = self.n_blocks * self.pair_bins.shape[0] * 2 * bps
        n_frames = -(-cfg.min_bits // bits_per_frame)
        # the fewest chunks within the budget, all of one size but the last
        budget = max(1, _CHUNK_SAMPLES // (self.n_symbols * self.samples_per_symbol))
        chunk = -(-n_frames // -(-n_frames // budget))
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


def run_point(cfg: SimConfig, snr_db: float) -> BerRecord:
    """Simulate one SNR point; identical (cfg, snr_db) gives identical output.

    The point runs as the config with ``snr_grid_db=(snr_db,)``, so ``snr_db``
    obeys the grid's rules and a bad one raises ConfigError before any frame.
    """
    return _GroupEngine(replace(cfg, snr_grid_db=(snr_db,))).run()[0]


def run_point_with_trace(cfg: SimConfig, snr_db: float) -> tuple[BerRecord, np.ndarray]:
    """Like run_point but also returns the LMS gamma trajectory (per update)."""
    engine = _GroupEngine(replace(cfg, snr_grid_db=(snr_db,)), keep_trace=True)
    [record] = engine.run()
    trace = engine.receivers[0].gamma_trace
    return record, np.concatenate(trace) if trace else np.empty(0, dtype=np.complex128)


def run_sweep(cfg: SimConfig, workers: int = 1) -> list[BerRecord]:
    """Simulate every distinct SNR grid point, sorted ascending.

    The points share every draw (see the module docstring), so each record
    equals ``run_point`` at its SNR, whatever the rest of the grid.  Runs up
    to ``workers`` processes, never more than there are points, each on an
    interleaved share of the grid; ``workers`` must be a positive int, or
    ConfigError is raised before any frame.
    """
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise ConfigError(f"workers must be a positive integer, got {workers!r}")
    grid = sorted(set(float(s) for s in cfg.snr_grid_db))
    workers = min(workers, len(grid))
    if workers > 1:
        # imported here: concurrent.futures loads multiprocessing and
        # logging, which only a parallel sweep needs
        from concurrent.futures import ProcessPoolExecutor

        # each worker runs its interleaved share as a serial sweep
        shares = [replace(cfg, snr_grid_db=tuple(grid[i::workers])) for i in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = [r for share in pool.map(run_sweep, shares) for r in share]
        return sorted(records, key=lambda r: r.snr_db)
    return _GroupEngine(cfg).run()
