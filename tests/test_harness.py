"""Unit tests for the end-to-end simulation harness."""
import csv
import dataclasses
import math

import numpy as np
import pytest

from dstbc_ofdm import (
    BerRecord,
    ConfigError,
    SimConfig,
    run_point,
    run_point_with_trace,
    run_sweep,
    write_records_csv,
)
from dstbc_ofdm import harness
from dstbc_ofdm.harness import resolve_profile


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
        dict(cp_len=10),  # ITU-PB spreads over 19 samples
        # delays of ~1e302 samples, which an int64 cast of the tap grid
        # would wrap to a negative spread
        dict(bandwidth_hz=1e308),
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
        dict(max_block_pairs=3.5),
        dict(min_bits=True),
        dict(channel="flat", cp_len=True),
        dict(n_subcarriers=64.0),
        dict(snr_grid_db=("10",)),
        dict(snr_grid_db=10.0),
        dict(doppler_hz="11.6"),
        dict(iqi_kappa_db=None),
        dict(channel="custom", custom_delays_ns=(0.0, "400"), custom_powers_db=(0.0, -3.0)),
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


@pytest.mark.parametrize("grid", [(10.0, 2000.0), (10.0, -math.inf)])
def test_sweep_rejects_unkeyable_snr_before_any_frame(monkeypatch, grid):
    def no_frames(*args, **kwargs):
        raise AssertionError("a frame was simulated")

    monkeypatch.setattr(harness, "realize_fading", no_frames)
    with pytest.raises(ConfigError):
        run_sweep(small_cfg(snr_grid_db=grid))


def test_custom_channel_profile_resolution():
    cfg = SimConfig(
        channel="custom",
        custom_delays_ns=(0.0, 400.0),
        custom_powers_db=(0.0, -3.0),
        doppler_hz=7.0,
    )
    cfg.validate()
    prof = resolve_profile(cfg)
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


def test_block_pair_budget_stops_run():
    cfg = small_cfg(min_bits=10**9, max_block_pairs=20, blocks_per_frame=20)
    r = run_point(cfg, 10.0)
    assert r.bits == 20 * 62 * 2 * 3  # one frame of 8-PSK blocks


def test_frame_count_matches_frame_by_frame_loop():
    def loop(min_bits, bits_per_frame, max_blocks, blocks_per_frame):
        frames = bits = blocks = 0
        while bits < min_bits and blocks < max_blocks:
            frames += 1
            bits += bits_per_frame
            blocks += blocks_per_frame
        return frames

    for min_bits in (1, 743, 744, 745, 5000, 10**6):
        for max_blocks in (1, 7, 20, 25, 10**6):
            for blocks_per_frame in (1, 3, 10, 20):
                assert harness._frame_count(min_bits, 744, max_blocks, blocks_per_frame) == loop(
                    min_bits, 744, max_blocks, blocks_per_frame
                )
    # 25 blocks is two and a half frames of 10; the third frame still runs
    r = run_point(small_cfg(min_bits=10**9, max_block_pairs=25, blocks_per_frame=10), 10.0)
    assert r.bits == 3 * 10 * 62 * 2 * 3


@pytest.mark.parametrize(
    "overrides, snr_db, bits, bit_errors",
    [
        (dict(blocks_per_frame=2), 15.0, 30504, 1690),
        (dict(blocks_per_frame=3, compensation="genie_gamma"), 15.0, 30132, 1097),
        (dict(blocks_per_frame=4, detection="coherent", doppler_hz=463.0), 10.0, 31248, 2226),
        (dict(blocks_per_frame=2, compensation="lms"), 15.0, 30504, 1051),
        (
            dict(blocks_per_frame=2, detection="coherent", psk_order=16, channel="flat"),
            20.0, 30752, 1210,
        ),
        (dict(blocks_per_frame=2, psk_order=4), 15.0, 30256, 525),
    ],
)
def test_short_frames_reproduce_golden_records(overrides, snr_db, bits, bit_errors):
    # recorded once symbol indices and noise came to be drawn per pair bin;
    # these frames are short enough that every chunk holds several of them
    cfg = SimConfig(iqi_kappa_db=2.0, iqi_phi_deg=8.0, min_bits=30_000, seed=31337, **overrides)
    r = run_point(cfg, snr_db)
    assert (r.bits, r.bit_errors) == (bits, bit_errors)


def record_chunk_sizes(monkeypatch) -> list:
    """The frame count of every chunk the engine simulates from now on."""
    sizes = []
    real_fading = harness.realize_fading

    def recording(*args, **kwargs):
        sizes.append(kwargs["frames"])
        return real_fading(*args, **kwargs)

    monkeypatch.setattr(harness, "realize_fading", recording)
    return sizes


def test_chunks_hold_one_default_frame_of_samples(monkeypatch):
    # 6-symbol frames go seven to a chunk on the default 64 + 20 sample grid,
    # but one at a time at 1024 + 40, where a chunk of several would pass
    # numpy's 256 KiB threshold for reusing temporaries in place
    chunk_sizes = record_chunk_sizes(monkeypatch)
    run_point(small_cfg(blocks_per_frame=2, min_bits=8 * 744), 20.0)
    assert chunk_sizes == [7, 1]
    chunk_sizes.clear()
    run_point(small_cfg(blocks_per_frame=2, n_subcarriers=1024, cp_len=40, min_bits=30_000), 20.0)
    assert chunk_sizes == [1, 1, 1]


@pytest.mark.parametrize(
    "overrides",
    [
        dict(blocks_per_frame=2),
        dict(blocks_per_frame=3, compensation="genie_gamma"),
        dict(blocks_per_frame=4, detection="coherent", doppler_hz=463.0),
        dict(blocks_per_frame=2, compensation="lms"),
    ],
)
def test_records_do_not_depend_on_chunk_size(monkeypatch, overrides):
    cfg = small_cfg(iqi_kappa_db=2.0, iqi_phi_deg=8.0, min_bits=15_000, **overrides)
    chunk_sizes = record_chunk_sizes(monkeypatch)
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
        assert np.max(np.abs(chunked_trace - single_trace)) <= 1e-12


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


def test_csv_round_trip(tmp_path):
    cfg = small_cfg(snr_grid_db=(10.0, 20.0))
    records = run_sweep(cfg)
    path = tmp_path / "records.csv"
    write_records_csv(path, records)
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 2
    assert float(rows[0]["snr_db"]) == 10.0
    assert int(rows[1]["bits"]) == records[1].bits
    assert float(rows[1]["ber"]) == pytest.approx(records[1].ber, rel=1e-8)
    # fixed records: float fields at 9 significant digits, the rest as str()
    fixed = [
        BerRecord(math.inf, "differential", "lms", "itu-pb", 11.6, 1234567890, 0, 0.0, 20240, 1.25),
        BerRecord(12.5, "coherent", "off", "flat", 463, 30720, 7, 7 / 30720, 3, 0.0123456789012),
    ]
    write_records_csv(path, fixed)
    assert path.read_bytes() == (
        b"snr_db,detection,compensation,channel,doppler_hz,bits,bit_errors,ber,seed,elapsed_s\r\n"
        b"inf,differential,lms,itu-pb,11.6,1234567890,0,0,20240,1.25\r\n"
        b"12.5,coherent,off,flat,463,30720,7,0.000227864583,3,0.0123456789\r\n"
    )


def test_parallel_sweep_matches_serial():
    cfg = small_cfg(snr_grid_db=(10.0, 14.0))
    assert run_sweep(cfg, workers=2) == run_sweep(cfg, workers=1)
