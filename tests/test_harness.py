"""Unit tests for the end-to-end simulation harness."""
import concurrent.futures
import dataclasses
import hashlib
import math
import platform
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dstbc_ofdm import (
    BerRecord,
    ConfigError,
    SimConfig,
    run_point,
    run_point_with_trace,
    run_sweep,
    tap_grid,
)
from dstbc_ofdm import harness
from dstbc_ofdm.channel import PROFILE_NAMES
from dstbc_ofdm.numerics import SUPPORTED_PSK_ORDERS

from conftest import count_package_calls


class SerialPool:
    """A process pool that runs its map in this process, in order."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def small_cfg(**overrides):
    base = dict(min_bits=20_000, seed=5)
    base.update(overrides)
    return SimConfig(**base)


def test_default_config_is_valid():
    SimConfig().validate()


@pytest.mark.parametrize(
    "overrides",
    [
        dict(n_subcarriers=48),
        dict(n_subcarriers=4),
        dict(cp_len=0),
        dict(cp_len=64),
        dict(psk_order=3),
        dict(bandwidth_hz=0.0),
        dict(detection="semi-blind"),
        dict(compensation="zf"),
        dict(channel="cost207"),
        dict(doppler_hz=-2.0),
        dict(min_bits=0),
        dict(blocks_per_frame=0),
        dict(lms_step_size=0.0),
        dict(seed=-1),
        dict(snr_grid_db=()),
        dict(snr_grid_db=(10.0, math.nan)),
        dict(snr_grid_db=(10.0, 2000.0)),
        dict(snr_grid_db=(10.0, -math.inf)),
        dict(seed=True),
        dict(detection="coherent", compensation="lms"),
        dict(channel="custom"),
        # tap tables are read only by the custom channel, never ignored
        dict(channel="itu-pb", custom_delays_ns=(0, 100), custom_powers_db=(0, -3)),
        dict(channel="flat", custom_powers_db=(0.0,)),
        dict(cp_len=10),  # ITU-PB spreads over 19 samples
        # delays of ~1e302 samples and of 5e27, which tap_grid refuses: an
        # int64 cast would wrap them to a negative spread
        dict(bandwidth_hz=1e308),
        dict(channel="custom", custom_delays_ns=(0.0, 1e30), custom_powers_db=(0.0, -3.0)),
        # finite dB powers whose linear total underflows to 0 or overflows:
        # NaN tap powers, a garbage BER near 0.5
        dict(channel="custom", custom_delays_ns=(0.0, 400.0), custom_powers_db=(-4000.0, -4000.0)),
        dict(channel="custom", custom_delays_ns=(0.0, 400.0), custom_powers_db=(0, 4000)),
        # a power of two too large for a float, named by the grid bound
        dict(n_subcarriers=2**1100),
        # a power of two past the largest grid, which constructed and whose
        # first chunk then asked numpy for 4 EiB
        dict(n_subcarriers=2**60, min_bits=1000),
        # non-finite floats are named, not simulated into a garbage BER or
        # left to fail mid-run
        dict(doppler_hz=math.nan),
        dict(doppler_hz=math.inf),
        dict(iqi_kappa_db=math.nan),
        dict(iqi_phi_deg=math.inf),
        dict(bandwidth_hz=math.nan),
        dict(lms_step_size=math.nan, compensation="lms"),
        dict(lms_step_size=math.inf, compensation="lms"),
        dict(channel="custom", custom_delays_ns=(0.0, 400.0), custom_powers_db=(0.0, math.nan)),
        dict(channel="custom", custom_delays_ns=(0.0, 400.0), custom_powers_db=(0.0, math.inf)),
        dict(channel="custom", custom_delays_ns=(0.0, math.nan), custom_powers_db=(0.0, -3.0)),
        # values of the wrong type are named too, not left to raise a
        # TypeError mid-run or to run silently
        dict(cp_len=20.5),
        dict(min_bits=1500.5),
        dict(blocks_per_frame=2.0),
        dict(blocks_per_frame=True),
        dict(psk_order=8.0),
        dict(min_bits=True),
        dict(channel="flat", cp_len=True),
        dict(n_subcarriers=64.0),
        dict(snr_grid_db=("10",)),
        dict(snr_grid_db=10.0),
        dict(doppler_hz="11.6"),
        dict(iqi_kappa_db=None),
        dict(channel="custom", custom_delays_ns=(0.0, "400"), custom_powers_db=(0.0, -3.0)),
        # finite values whose fading phase step per OFDM symbol overflows
        dict(doppler_hz=1e308),
        dict(bandwidth_hz=1e-300, doppler_hz=1e10),
        # a finite gain ratio whose |beta|**2 overflows a float
        dict(iqi_kappa_db=4000.0),
    ],
)
def test_validation_rejects_bad_configs(overrides):
    with pytest.raises(ConfigError) as excinfo:
        SimConfig(**overrides).validate()
    # SNR grids take +inf, so they have rules of their own
    bad = [k for k, v in overrides.items() if k != "snr_grid_db" and has_non_finite(v)]
    if bad:
        assert str(excinfo.value).startswith(f"{bad[0]} must be finite")
    mistyped = [k for k, v in overrides.items() if has_wrong_type(k, v)]
    if mistyped:
        assert str(excinfo.value).startswith(f"{mistyped[0]} must be")


@pytest.mark.parametrize("overrides", [dict(doppler_hz=1e308), dict(bandwidth_hz=1e-300, doppler_hz=1e10)])
def test_overflowing_doppler_step_names_doppler(overrides):
    # not a garbage BER at run time, nor an LMS divergence blamed on its step size
    with pytest.raises(ConfigError, match="^doppler_hz "):
        SimConfig(compensation="lms", **overrides)


def has_non_finite(value) -> bool:
    values = value if isinstance(value, tuple) else (value,)
    return any(isinstance(v, float) and not math.isfinite(v) for v in values)


def has_wrong_type(name, value) -> bool:
    annotation = {f.name: f.type for f in dataclasses.fields(SimConfig)}[name]
    if annotation == "int":
        return type(value) is not int
    if annotation == "float":
        return type(value) not in (int, float)
    if annotation.startswith("tuple"):
        values = value if isinstance(value, tuple) else ("not a tuple",)
        return any(type(v) not in (int, float) for v in values)
    return False


@pytest.mark.parametrize(
    "make",
    [lambda: SimConfig(psk_order=3), lambda: dataclasses.replace(SimConfig(), doppler_hz=-2.0)],
    ids=["psk_order", "replaced_doppler"],
)
def test_construction_rejects_bad_configs(make):
    with pytest.raises(ConfigError):
        make()


@pytest.mark.parametrize(
    "overrides, message",
    [
        (dict(seed=np.int64(3)), "seed must be a Python int (not bool), got np.int64(3)"),
        (dict(snr_grid_db=tuple(np.arange(0, 15, 5))),
         "snr_grid_db must be a tuple of Python ints or floats (not bool), "
         "got (np.int64(0), np.int64(5), np.int64(10))"),
        (dict(doppler_hz=np.float32(11.5)),
         "doppler_hz must be a Python int or float (not bool), got np.float32(11.5)"),
    ],
    ids=["int64_seed", "int64_grid", "float32_doppler"],
)
def test_numpy_numbers_are_rejected_by_what_is_accepted(overrides, message):
    with pytest.raises(ConfigError) as excinfo:
        small_cfg(**overrides)
    assert str(excinfo.value) == message


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def finite_config_fields(draw):
    """SimConfig keywords of the right types and finite values.

    The fields the channel's sampled form reads are valid in half of the
    examples and take any finite values in the other half; tap tables mix
    plausible values with any finite ones.  The other fields stay valid, so
    that many configs get as far as the channel's rules.
    """
    n = draw(st.sampled_from([64, 1024]))
    detection = draw(st.sampled_from(harness.DETECTION_MODES))
    kw = dict(
        n_subcarriers=n,
        cp_len=draw(st.integers(20, n - 1)),
        bandwidth_hz=draw(st.sampled_from([5e6, 1.0])),
        channel=draw(st.sampled_from([*PROFILE_NAMES, "custom", "custom", "custom"])),
        doppler_hz=draw(st.sampled_from([0.0, 11.6, 463.0])),
        psk_order=draw(st.sampled_from(SUPPORTED_PSK_ORDERS)),
        iqi_kappa_db=draw(st.floats(-3.0, 3.0)),
        iqi_phi_deg=draw(st.floats(-10.0, 10.0)),
        detection=detection,
        compensation="off" if detection == "coherent" else draw(st.sampled_from(harness.COMPENSATION_MODES)),
        snr_grid_db=tuple(draw(st.lists(st.floats(-10.0, 40.0), min_size=1, max_size=3))),
        min_bits=draw(st.integers(1, 10**7)),
        blocks_per_frame=draw(st.integers(1, 40)),
        lms_step_size=draw(st.floats(1e-4, 0.1)),
        seed=draw(st.integers(0, 2**32)),
    )
    if draw(st.booleans()):
        wide = dict(n_subcarriers=st.integers(), cp_len=st.integers(), bandwidth_hz=FINITE, doppler_hz=FINITE)
        kw.update(draw(st.fixed_dictionaries({}, optional=wide)))
    if kw["channel"] == "custom":
        delays = st.lists(st.floats(1.0, 4000.0) | st.floats(0.0, exclude_min=True), max_size=3)
        kw["custom_delays_ns"] = (0.0, *sorted(set(draw(delays))))
        # 10 ** (dB / 10) leaves the float range near +-3,000 dB
        powers = st.floats(-30.0, 0.0) | st.floats(-5000.0, 5000.0) | FINITE
        kw["custom_powers_db"] = tuple(draw(powers) for _ in kw["custom_delays_ns"])
    return kw


@settings(max_examples=300, deadline=None, derandomize=True)
@given(finite_config_fields())
def test_a_config_that_constructs_has_a_sampled_channel(kw):
    # construction refuses the config, or its channel samples into finite
    # unit-total tap powers on a grid within the cyclic prefix
    try:
        cfg = SimConfig(**kw)
    except ConfigError:
        return
    powers = cfg.profile.tap_powers_linear
    assert np.isfinite(powers).all() and powers.sum() == pytest.approx(1.0)
    assert tap_grid(cfg.profile, cfg.sample_period)[0][-1] <= cfg.cp_len


def forbid_frames(monkeypatch):
    def no_frames(*args, **kwargs):
        raise AssertionError("a frame was simulated")

    monkeypatch.setattr(harness, "realize_fading", no_frames)


@pytest.mark.parametrize("grid", [(10.0, 2000.0), (10.0, -math.inf)])
def test_sweep_rejects_unkeyable_snr_before_any_frame(monkeypatch, grid):
    forbid_frames(monkeypatch)
    with pytest.raises(ConfigError):
        run_sweep(small_cfg(snr_grid_db=grid))


@pytest.mark.parametrize(
    "snr_db",
    [True, "10", None, math.nan, np.float32(10.0), 2000.0],
    ids=["bool", "str", "none", "nan", "float32", "beyond_1000_db"],
)
@pytest.mark.parametrize("run", [run_point, run_point_with_trace])
def test_point_snr_obeys_the_grid_rules_before_any_frame(monkeypatch, run, snr_db):
    # run_point's SNR is checked as a one-point grid, by SimConfig alone
    forbid_frames(monkeypatch)
    with pytest.raises(ConfigError, match="^snr_grid_db|^snr_db"):
        run(small_cfg(), snr_db)
    with pytest.raises(ConfigError):
        small_cfg(snr_grid_db=(snr_db,))


@pytest.mark.parametrize("workers", [0, -3, 2.5, True, "2", None])
def test_sweep_rejects_a_bad_worker_count_before_any_frame(monkeypatch, workers):
    forbid_frames(monkeypatch)
    message = f"^workers must be a positive integer, got {re.escape(repr(workers))}$"
    with pytest.raises(ConfigError, match=message):
        run_sweep(small_cfg(snr_grid_db=(10.0, 14.0)), workers=workers)


def test_custom_channel_profile_resolution():
    cfg = SimConfig(
        channel="custom",
        custom_delays_ns=(0.0, 400.0),
        custom_powers_db=(0.0, -3.0),
        doppler_hz=7.0,
    )
    cfg.validate()
    prof = cfg.profile
    assert prof.doppler_hz == 7.0
    assert len(prof.tap_delays_s) == 2


def test_run_point_is_deterministic():
    cfg = small_cfg()
    a = run_point(cfg, 12.0)
    b = run_point(cfg, 12.0)
    assert a == b  # elapsed time is excluded from comparison
    assert a.elapsed_s >= 0.0


def test_seed_changes_outcome():
    cfg = small_cfg(min_bits=50_000)
    a = run_point(cfg, 12.0)
    b = run_point(dataclasses.replace(cfg, seed=6), 12.0)
    assert a.bit_errors != b.bit_errors
    # the seed comes from the config alone, which validate() checks
    with pytest.raises(TypeError):
        run_point(cfg, 12.0, seed=6)


def test_grid_order_does_not_matter():
    cfg_fwd = small_cfg(snr_grid_db=(8.0, 16.0))
    cfg_rev = small_cfg(snr_grid_db=(16.0, 8.0))
    fwd = run_sweep(cfg_fwd)
    rev = run_sweep(cfg_rev)
    assert fwd == rev
    assert [r.snr_db for r in fwd] == [8.0, 16.0]
    singles = [run_point(cfg_fwd, s) for s in (8.0, 16.0)]
    assert fwd == singles


@pytest.mark.parametrize(
    "companions", [(10.0, 30.0), (10.0, 30.0, math.inf)], ids=["noisy", "with_inf"]
)
@pytest.mark.parametrize(
    "overrides",
    [
        dict(), dict(compensation="lms"), dict(detection="coherent"),
        dict(iqi_kappa_db=0.0, iqi_phi_deg=0.0, compensation="lms"),
        dict(iqi_kappa_db=0.0, iqi_phi_deg=0.0, detection="coherent"),
    ],
    ids=["off", "lms", "coherent", "ideal_lms", "ideal_coherent"],
)
def test_sweep_records_do_not_depend_on_companion_points(overrides, companions):
    # every point sees the same draws, and only its own receiver differs;
    # nine default frames are two chunks, so gamma crosses a chunk boundary.
    # A noiseless receiver without imbalance reads the group's clean spectra
    # themselves, which no receiver may write.
    cfg = small_cfg(**{
        "iqi_kappa_db": 2.0, "iqi_phi_deg": 8.0, "min_bits": 9 * 7440,
        "snr_grid_db": (20.0,) + companions, **overrides,
    })
    alone, alone_trace = run_point_with_trace(cfg, 20.0)
    assert run_sweep(dataclasses.replace(cfg, snr_grid_db=(20.0,))) == [alone]
    grid = sorted(cfg.snr_grid_db)
    assert run_sweep(cfg) == [run_point(cfg, s) for s in grid]
    # the 20 dB receiver's gamma trajectory keeps its bytes in the group
    engine = harness._GroupEngine(cfg, keep_trace=True)
    records = engine.run()
    [rx] = [rx for rx in engine.receivers if rx.snr_db == 20.0]
    assert records[grid.index(20.0)] == alone
    trace = np.concatenate(rx.gamma_trace) if rx.gamma_trace else np.empty(0, dtype=np.complex128)
    assert trace.tobytes() == alone_trace.tobytes()
    assert (trace.shape[0] > 0) == (cfg.compensation == "lms")


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_draws_each_chunk_once_per_group(monkeypatch, workers):
    # nine default frames are two chunks, of five frames and four; each
    # worker simulates one group of the four points
    calls = count_package_calls(monkeypatch, (("channel", "realize_fading"), ("iqi", "apply_rx_iqi")))
    draws = []
    real_draws = harness._GroupEngine._draw_indices_and_noise

    def counted_draws(engine, n_frames):
        draws.append(n_frames)
        return real_draws(engine, n_frames)

    monkeypatch.setattr(harness._GroupEngine, "_draw_indices_and_noise", counted_draws)
    # the groups run in this process, so the counters see them
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    records = run_sweep(small_cfg(min_bits=9 * 7440, snr_grid_db=(10.0, 20.0, 30.0, 40.0)), workers)
    assert len(records) == 4
    assert draws == [5, 4] * workers
    assert calls["realize_fading"] == 2 * workers
    # every point's receiver still runs on every chunk
    assert calls["apply_rx_iqi"] == 2 * 4


@pytest.mark.skipif(
    sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
    reason="the heap policy's effect is glibc's dynamic mmap threshold",
)
def test_a_one_mib_temporary_costs_no_page_faults(package_env):
    # A chunk's arrays stay on the heap whatever their allocation order: a
    # 1 MiB array filled during each fading draw (the size of a 21-frame
    # coherent chunk's phasors) must not unmap and fault back the chunk's
    # pages.  Without the heap policy a warm sweep took over 1,000 faults.
    code = """if True:
        import resource
        import numpy as np
        from dstbc_ofdm import SimConfig, harness, run_sweep

        real_fading = harness.realize_fading

        def fading(*args, **kwargs):
            block = np.ones(1 << 17)
            taps = real_fading(*args, **kwargs)
            del block
            return taps

        harness.realize_fading = fading
        cfg = SimConfig(iqi_kappa_db=2.0, iqi_phi_deg=8.0, snr_grid_db=(10.0, 20.0, 30.0, 40.0),
                        min_bits=21 * 7440, seed=5)
        run_sweep(cfg)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(3):
            run_sweep(cfg)
        print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 3)
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=package_env)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 100


def test_a_noiseless_ideal_receiver_reads_the_shared_clean_spectra():
    engine = harness._GroupEngine(small_cfg(snr_grid_db=(20.0, math.inf)))
    _, _, noise, clean, _ = engine._front_end(2)
    assert not clean.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        clean[0, 0, 0] = 0.0
    noiseless, noisy = (engine._received_spectra(clean, noise, rx.sigma) for rx in reversed(engine.receivers))
    assert noiseless is clean
    assert noisy is not clean and noisy.flags.writeable


def test_record_fields():
    cfg = small_cfg(iqi_kappa_db=1.0, iqi_phi_deg=2.0, compensation="genie_gamma")
    r = run_point(cfg, 18.0)
    assert r.detection == "differential"
    assert r.compensation == "genie_gamma"
    assert r.channel == "itu-pb"
    assert r.bits >= cfg.min_bits
    assert r.ber == r.bit_errors / r.bits
    assert dataclasses.is_dataclass(BerRecord)


def test_noiseless_paths_are_exact():
    for detection in ("differential", "coherent"):
        r = run_point(small_cfg(detection=detection), math.inf)
        assert r.bit_errors == 0


def test_genie_compensation_matches_clean_receiver_errors():
    # exact leakage nulling rescales the clean observations, so with a shared
    # seed the decision pattern is identical to a receiver with no imbalance
    clean = run_point(small_cfg(min_bits=100_000), 18.0)
    genie = run_point(
        small_cfg(min_bits=100_000, iqi_kappa_db=2.0, iqi_phi_deg=8.0, compensation="genie_gamma"),
        18.0,
    )
    assert genie.bit_errors == clean.bit_errors


def test_imbalance_hurts_and_compensation_helps():
    clean = run_point(small_cfg(min_bits=200_000), 30.0)
    impaired = run_point(
        small_cfg(min_bits=200_000, iqi_kappa_db=2.0, iqi_phi_deg=8.0), 30.0
    )
    compensated = run_point(
        small_cfg(min_bits=200_000, iqi_kappa_db=2.0, iqi_phi_deg=8.0, compensation="lms"),
        30.0,
    )
    assert impaired.ber > 5 * clean.ber
    assert compensated.ber < impaired.ber / 3


def test_frame_count_matches_frame_by_frame_loop():
    def loop(min_bits, bits_per_frame):
        frames = bits = 0
        while bits < min_bits:
            frames += 1
            bits += bits_per_frame
        return frames

    # two 8-PSK blocks on 62 subcarriers are 744 bits per frame
    for min_bits in (1, 743, 744, 745, 5000, 30_000):
        r = run_point(small_cfg(min_bits=min_bits, blocks_per_frame=2), 10.0)
        assert r.bits == loop(min_bits, 744) * 744


@pytest.mark.parametrize(
    "overrides, snr_db, bits, bit_errors",
    [
        (dict(blocks_per_frame=2), 15.0, 30504, 1635),
        (dict(blocks_per_frame=3, compensation="genie_gamma"), 15.0, 30132, 925),
        (dict(blocks_per_frame=4, detection="coherent", doppler_hz=463.0), 10.0, 31248, 2162),
        (dict(blocks_per_frame=2, compensation="lms"), 15.0, 30504, 976),
        (
            dict(blocks_per_frame=2, detection="coherent", psk_order=16, channel="flat"),
            20.0, 30752, 1426,
        ),
        (dict(blocks_per_frame=2, psk_order=4), 15.0, 30256, 496),
    ],
    ids=[f"overrides{i}" for i in range(6)],
)
def test_short_frames_reproduce_golden_records(overrides, snr_db, bits, bit_errors):
    # recorded once every point of a config drew from the same four streams
    # (fading angles, fading weights, symbol indices, noise), keyed by the
    # seed alone; these frames are short enough that every chunk holds
    # several of them
    cfg = SimConfig(iqi_kappa_db=2.0, iqi_phi_deg=8.0, min_bits=30_000, seed=31337, **overrides)
    r = run_point(cfg, snr_db)
    assert (r.bits, r.bit_errors) == (bits, bit_errors)


@pytest.mark.parametrize(
    "overrides, bit_errors, trace_sha256",
    [
        (dict(compensation="off"), 7262, None),
        (dict(compensation="genie_gamma"), 1772, None),
        (
            dict(compensation="lms"),
            1811,
            "6bd6a436f04c01233191a55de755355909adbb6dcacc27ac74a49798957bc2ee",
        ),
        (dict(detection="coherent"), 3022, None),
    ],
    ids=["off", "genie_gamma", "lms", "coherent"],
)
def test_long_frames_reproduce_golden_records(overrides, bit_errors, trace_sha256):
    # two 1,024-subcarrier frames, one to a chunk: each antenna's per-bin
    # arrays pass numpy's 256 KiB size for multiplying into a temporary in
    # place, whose loop rounds differently in the last bit; the gamma
    # trajectory's bytes show such a change where the decisions do not
    cfg = SimConfig(
        n_subcarriers=1024, cp_len=64, iqi_kappa_db=2.0, iqi_phi_deg=8.0,
        min_bits=200_000, seed=1024, **overrides,
    )
    record, trace = run_point_with_trace(cfg, 20.0)
    assert (record.bits, record.bit_errors) == (245_280, bit_errors)
    if trace_sha256 is None:
        assert trace.shape == (0,)
    else:
        # 2 frames x 20 block pairs x 511 pairs, two updates each
        assert trace.shape == (40_880,)
        assert hashlib.sha256(trace.tobytes()).hexdigest() == trace_sha256


def record_chunk_sizes(monkeypatch) -> list:
    """The frame count of every chunk the engine simulates from now on."""
    sizes = []
    real_fading = harness.realize_fading

    def recording(*args, **kwargs):
        sizes.append(kwargs["frames"])
        return real_fading(*args, **kwargs)

    monkeypatch.setattr(harness, "realize_fading", recording)
    return sizes


def test_chunks_hold_eight_default_frames_of_samples(monkeypatch):
    # 6-symbol frames go 56 to a chunk on the default 64 + 20 sample grid,
    # 336 // 6, so 57 frames take two chunks; at 1024 + 40 only four fit in
    # the 28,224 samples, and five frames take two
    chunk_sizes = record_chunk_sizes(monkeypatch)
    for frames, sizes in ((56, [56]), (57, [29, 28])):
        run_point(small_cfg(blocks_per_frame=2, min_bits=frames * 744), 20.0)
        assert chunk_sizes == sizes
        chunk_sizes.clear()
    # 2 blocks x 1,022 pair bins x 2 symbols x 3 bits per frame
    for frames, sizes in ((4, [4]), (5, [3, 2])):
        cfg = small_cfg(blocks_per_frame=2, n_subcarriers=1024, cp_len=40, min_bits=frames * 12_264)
        run_point(cfg, 20.0)
        assert chunk_sizes == sizes
        chunk_sizes.clear()


def test_a_point_splits_evenly_into_the_fewest_chunks(monkeypatch):
    # the split alone: the fewest chunks within the budget, in frame order,
    # all of one size but a last one that is no larger
    sizes = []

    def counted(engine, n_frames):
        sizes.append(n_frames)
        return [0] * len(engine.receivers)

    monkeypatch.setattr(harness._GroupEngine, "_chunk_errors", counted)
    run_point(small_cfg(min_bits=9 * 7440), 20.0)
    assert sizes == [5, 4]
    sizes.clear()
    run_sweep(small_cfg(min_bits=21 * 7440, snr_grid_db=(10.0, 20.0, 30.0, 40.0)))
    assert sizes == [7, 7, 7]
    sizes.clear()
    # a frame of 28 symbols of 1,024 + 40 samples, 29,792, exceeds the
    # budget: each chunk holds one frame
    frame_bits = 13 * 1022 * 2 * 3
    run_point(
        small_cfg(n_subcarriers=1024, cp_len=40, blocks_per_frame=13, min_bits=3 * frame_bits), 20.0
    )
    assert sizes == [1, 1, 1]
    budget = harness._CHUNK_SAMPLES // (42 * 84)
    assert budget == 8
    for frames in range(1, 5 * budget + 1):
        sizes.clear()
        run_point(small_cfg(min_bits=frames * 7440), 20.0)
        assert sum(sizes) == frames
        assert len(sizes) == -(-frames // budget)
        assert max(sizes) <= budget
        assert set(sizes[:-1]) <= {sizes[0]} and sizes[-1] <= sizes[0]


@pytest.mark.parametrize(
    "overrides, chunk_scale",
    [
        (dict(blocks_per_frame=2), 1),
        (dict(blocks_per_frame=3, compensation="genie_gamma"), 1),
        (dict(blocks_per_frame=4, detection="coherent", doppler_hz=463.0), 1),
        (dict(blocks_per_frame=2, compensation="lms"), 1),
        # the point's three 512-subcarrier frames in one chunk, whose N-bin
        # gains pass numpy's 256 KiB size for reusing temporaries in place
        (dict(blocks_per_frame=2, compensation="lms", n_subcarriers=512, cp_len=40), 8),
        # both 1,024-subcarrier frames of the point in one chunk
        (dict(blocks_per_frame=2, compensation="lms", n_subcarriers=1024, cp_len=40), 16),
        # 61 frames of 2-PSK, 56 to a chunk, go to chunks of 31 and 30
        (dict(blocks_per_frame=2, psk_order=2), 1),
        # fourteen default frames in one chunk of up to 32: the detector's
        # statistics of 14 x 20 x 62 values pass 256 KiB
        (dict(compensation="lms", min_bits=14 * 7440), 4),
    ],
    ids=[f"overrides{i}" for i in range(8)],
)
def test_records_do_not_depend_on_chunk_size(monkeypatch, overrides, chunk_scale):
    cfg = small_cfg(**{"iqi_kappa_db": 2.0, "iqi_phi_deg": 8.0, "min_bits": 15_000, **overrides})
    chunk_sizes = record_chunk_sizes(monkeypatch)
    monkeypatch.setattr(harness, "_CHUNK_SAMPLES", chunk_scale * harness._CHUNK_SAMPLES)
    chunked, chunked_trace = run_point_with_trace(cfg, 20.0)
    assert max(chunk_sizes) > 1
    chunk_sizes.clear()
    monkeypatch.setattr(harness, "_CHUNK_SAMPLES", 1)
    single, single_trace = run_point_with_trace(cfg, 20.0)
    assert set(chunk_sizes) == {1}
    assert chunked == single
    assert chunked_trace.shape == single_trace.shape
    if cfg.compensation == "lms":
        assert chunked_trace.shape[0] > 0
        assert chunked_trace.tobytes() == single_trace.tobytes()


@pytest.mark.parametrize("psk_order", SUPPORTED_PSK_ORDERS)
def test_index_and_noise_draws_do_not_depend_on_chunk_size(psk_order):
    # one draw of five frames equals five one-frame draws from each stream;
    # a frame of three blocks on the six pair bins of 8 subcarriers draws
    # 3 x 6 x 2 indices and 8 x 6 noise values
    cfg = small_cfg(
        psk_order=psk_order, n_subcarriers=8, cp_len=4, channel="flat", blocks_per_frame=3,
        snr_grid_db=(10.0,),
    )
    batch = harness._GroupEngine(cfg)._draw_indices_and_noise(5)
    single = harness._GroupEngine(cfg)
    singles = [single._draw_indices_and_noise(1) for _ in range(5)]
    for batched, parts in zip(batch, zip(*singles)):
        assert batched.tobytes() == np.concatenate(parts).tobytes()
    assert batch[0].shape == batch[1].shape == (5, 3, 6)
    assert batch[2].shape == (5, 8, 6)
    assert set(np.unique(batch[0])) == set(range(psk_order))


@pytest.mark.parametrize("step_size", [100.0, 1e6])
def test_diverging_lms_is_a_config_error(step_size):
    # a step this large drives gamma to a non-finite value; the run stops
    # with a fault that names the step, not with a numeric one
    cfg = small_cfg(iqi_kappa_db=2.0, iqi_phi_deg=8.0, compensation="lms", lms_step_size=step_size)
    with pytest.raises(ConfigError, match="lms_step_size .* gamma diverged"):
        run_point(cfg, 20.0)


def test_trace_empty_without_lms():
    _, trace = run_point_with_trace(small_cfg(), 15.0)
    assert trace.shape == (0,)


def test_trace_counts_updates():
    cfg = small_cfg(iqi_kappa_db=2.0, iqi_phi_deg=8.0, compensation="lms", min_bits=7000)
    record, trace = run_point_with_trace(cfg, 25.0)
    # one frame: blocks_per_frame block pairs, 31 pair observations each,
    # two updates per observation
    assert record.bits == 7440
    assert trace.shape == (2 * 31 * 20,)


def test_snr_key_rejects_extreme_values():
    with pytest.raises(ConfigError):
        run_point(small_cfg(), -(2.0**30))


def test_parallel_sweep_matches_serial():
    cfg = small_cfg(snr_grid_db=(10.0, 14.0))
    assert run_sweep(cfg, workers=2) == run_sweep(cfg, workers=1)


def test_package_import_leaves_process_pools_unloaded(package_env):
    # concurrent.futures and what it loads are imported by a parallel sweep only
    code = (
        "import sys, dstbc_ofdm, dstbc_ofdm.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('concurrent', 'multiprocessing', 'logging')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=package_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "workers, grid, pools",
    [
        (4, (10.0,), []),
        (4, (10.0, 10.0), []),
        (4, (10.0, 14.0), [2]),
        (2, (10.0, 12.0, 14.0), [2]),
        (1, (10.0, 14.0), []),
    ],
)
def test_sweep_starts_at_most_one_worker_per_point(monkeypatch, workers, grid, pools):
    started = []

    class RecordingPool(SerialPool):
        """Keeps the pool size asked for."""

        def __init__(self, max_workers):
            started.append(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    cfg = small_cfg(snr_grid_db=grid)
    records = run_sweep(cfg, workers=workers)
    assert started == pools
    assert records == [run_point(cfg, s) for s in sorted(set(grid))]
