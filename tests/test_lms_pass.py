"""The decision-directed pass against its object-based and byte oracles,
a golden run of the LMS link, the pass's kernel calls and the oracle's
observation packing."""
import cmath
import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dstbc_ofdm import (
    SimConfig,
    compensator,
    harness,
    psk_constellation,
    run_point_with_trace,
)
from dstbc_ofdm.cli import load_config_file

import object_pass
from alamouti import AlamoutiMatrix
from conftest import count_package_calls, indices_to_bits, pair_decisions

# 20 blocks x 62 active subcarriers x 2 symbols x 3 bits
FRAME_BITS = 7440
KERNELS = (
    ("stbc", "ml_differential_detect_indices"),
    ("compensator", "compensate_observation"),
    ("compensator", "build_residuals"),
    ("compensator", "lms_step"),
)


def bundled_lms_config(**overrides) -> SimConfig:
    path = resources.files("dstbc_ofdm") / "configs" / "lms_compensation.cfg"
    kwargs = load_config_file(str(path))
    kwargs.update(overrides)
    return SimConfig(**kwargs)


def record_frames(monkeypatch, cfg, snr_db):
    """(low, image, input gamma, trajectory) of every frame of one point."""
    frames = []
    real_pass = harness.decision_directed_pass

    def recording(low, image, gamma, step_size, constellation):
        trajectory = real_pass(low, image, gamma, step_size, constellation)
        frames.append((low, image, gamma, trajectory))
        return trajectory

    with monkeypatch.context() as patch:
        patch.setattr(harness, "decision_directed_pass", recording)
        harness.run_point(cfg, snr_db)
    return frames


def assert_frames_match_oracle(frames, cfg):
    constellation = psk_constellation(cfg.psk_order)
    state = object_pass.CompensatorState(frames[0][2], cfg.lms_step_size)
    for low, image, gamma, trajectory in frames:
        # each frame starts from the gamma the previous one ended with
        assert abs(gamma - state.gamma) <= 1e-12
        observations = list(object_pass.observation_tuples(low, image))
        oracle_stream = [[object_pass.observation_of(v) for v in observations]]
        oracle_bits, state, oracle_trajectory = object_pass.decision_directed_pass(
            oracle_stream, state, constellation
        )
        # the engine decides the frame's bits at the gamma each observation saw
        decisions = pair_decisions(low, image, gamma, trajectory, cfg.psk_order)
        np.testing.assert_array_equal(indices_to_bits(decisions, cfg.psk_order), oracle_bits)
        assert trajectory.shape == oracle_trajectory.shape == (2 * len(observations),)
        assert np.max(np.abs(trajectory - oracle_trajectory)) <= 1e-12
        assert abs(trajectory[-1] - state.gamma) <= 1e-12


@pytest.mark.parametrize("snr_db", [20.0, 30.0])
def test_scalar_pass_matches_object_oracle(monkeypatch, snr_db):
    cfg = bundled_lms_config(min_bits=8 * FRAME_BITS)
    frames = record_frames(monkeypatch, cfg, snr_db)
    assert len(frames) == 8
    assert_frames_match_oracle(frames, cfg)


def test_large_frame_matches_object_oracle(monkeypatch):
    # 511 pairs x 40 blocks: each plane of the frame-wide mirror step holds
    # more than 16,384 complex values (256 KiB), numpy's size for reusing
    # temporaries in place
    cfg = bundled_lms_config(n_subcarriers=1024, cp_len=64, blocks_per_frame=40, min_bits=1)
    frames = record_frames(monkeypatch, cfg, 20.0)
    assert len(frames) == 1
    low = frames[0][0]
    assert (low.shape[0] // 2 - 1) * low.shape[1] == 20440 > 16384
    assert_frames_match_oracle(frames, cfg)


@pytest.mark.parametrize(
    "snr_db, bit_errors, gamma_final",
    [
        (15.0, 863, 0.11531793097594349 + 0.07113981158068676j),
        (25.0, 16, 0.11394869516202306 + 0.07071862561475503j),
    ],
    ids=["15.0", "25.0"],
)
def test_lms_point_reproduces_golden_record(snr_db, bit_errors, gamma_final):
    # values recorded once every point of a config drew from the same four
    # streams (fading angles, fading weights, symbol indices, noise), keyed
    # by the seed alone; the pass itself is checked
    # against the object-based oracle above
    cfg = SimConfig(
        iqi_kappa_db=2.0,
        iqi_phi_deg=8.0,
        compensation="lms",
        min_bits=20_000,
        blocks_per_frame=10,
        seed=4242,
    )
    record, trace = run_point_with_trace(cfg, snr_db)
    assert record.bits == 22320
    assert record.bit_errors == bit_errors
    assert trace.shape == (3720,)
    assert complex(trace[-1]) == gamma_final


def test_pass_calls_kernels_only_on_fallback(monkeypatch):
    cfg = bundled_lms_config(min_bits=3 * FRAME_BITS)
    frames = record_frames(monkeypatch, cfg, 30.0)
    assert len(frames) == 3
    calls = count_package_calls(monkeypatch, KERNELS)
    constellation = psk_constellation(cfg.psk_order)
    observations = 20 * 31
    fallbacks = []
    # the first frame starts from gamma = 0, the last from a converged gamma
    for low, image, gamma, trajectory in (frames[0], frames[-1]):
        for name in calls:
            calls[name] = 0
        again = compensator.decision_directed_pass(
            low, image, gamma, cfg.lms_step_size, constellation
        )
        assert again.tobytes() == trajectory.tobytes()
        # an observation outside its certified radius detects, builds its
        # residuals and steps twice; every other one only steps, inline
        assert calls["ml_differential_detect_indices"] == calls["build_residuals"]
        assert calls["lms_step"] == 2 * calls["build_residuals"]
        assert calls["compensate_observation"] == 0
        fallbacks.append(calls["build_residuals"])
    assert frames[0][2] == 0
    assert 0 < fallbacks[0] <= observations
    assert fallbacks[1] < observations


def scalar_oracle_bytes(frames, cfg):
    constellation = psk_constellation(cfg.psk_order)
    for low, image, gamma, trajectory in frames:
        oracle = object_pass.scalar_decision_directed_pass(
            low, image, gamma, cfg.lms_step_size, constellation
        )
        assert trajectory.tobytes() == oracle.tobytes()


@pytest.mark.parametrize("snr_db", [10.0, 20.0, 30.0, math.inf])
def test_pass_bytes_match_scalar_oracle(monkeypatch, snr_db):
    cfg = bundled_lms_config(min_bits=8 * FRAME_BITS)
    frames = record_frames(monkeypatch, cfg, snr_db)
    assert len(frames) == 8
    scalar_oracle_bytes(frames, cfg)


def test_large_frame_bytes_match_scalar_oracle(monkeypatch):
    # 20,440 observations: the frame-wide arrays of the certified decisions
    # pass numpy's 16,384-value size for reusing temporaries in place
    cfg = bundled_lms_config(n_subcarriers=1024, cp_len=64, blocks_per_frame=40, min_bits=1)
    frames = record_frames(monkeypatch, cfg, 20.0)
    assert (frames[0][0].shape[0] // 2 - 1) * frames[0][0].shape[1] == 20440
    scalar_oracle_bytes(frames, cfg)


def random_frame(seed, blocks=4, pairs=5):
    rng = np.random.default_rng(seed)
    shape = (2 * blocks + 2, pairs)
    low = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    image = 0.3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    gamma = 0.1 * complex(rng.standard_normal(), rng.standard_normal())
    return low, image, gamma


def assert_bytes_match_oracle(low, image, gamma, step_size, order):
    constellation = psk_constellation(order)
    trajectory = compensator.decision_directed_pass(low, image, gamma, step_size, constellation)
    oracle = object_pass.scalar_decision_directed_pass(low, image, gamma, step_size, constellation)
    assert trajectory.tobytes() == oracle.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    order=st.sampled_from([2, 4, 8, 16]),
    target=st.integers(0, 19),
    boundary=st.integers(0, 15),
    ulps=st.integers(-4, 4),
    step_size=st.sampled_from([0.005, 0.05]),
)
def test_statistic_near_a_boundary_matches_oracle(seed, order, target, boundary, ulps, step_size):
    # the target observation's first statistic, at the gamma it sees, is put
    # within a few ulps of a PSK decision boundary by its z_next.a entry;
    # observations before it, and so that gamma, do not change
    low, image, gamma = random_frame(seed)
    oracle = object_pass.scalar_decision_directed_pass(
        low, image, gamma, step_size, psk_constellation(order)
    )
    seen = complex(gamma if target == 0 else oracle[2 * target - 1])
    k, p = divmod(target, low.shape[1])
    k_a, k_b, _, n_b = (
        complex(low[2 * k + i, p]) + seen * complex(image[2 * k + i, p]) for i in range(4)
    )
    on_boundary = abs(k_a) * cmath.exp(1j * (boundary + 0.5) * 2.0 * math.pi / order)
    n_a = (on_boundary - k_b * n_b.conjugate()) / k_a.conjugate()
    z = n_a - seen * complex(image[2 * k + 2, p])
    real = z.real
    for _ in range(abs(ulps)):
        real = float(np.nextafter(real, math.copysign(math.inf, ulps)))
    low[2 * k + 2, p] = complex(real, z.imag)
    assert_bytes_match_oracle(low, image, gamma, step_size, order)


@pytest.mark.parametrize(
    "order, on_boundary",
    [(2, 1j), (2, -2j), (4, 1 + 1j), (4, -1 - 1j), (4, 0.5 - 0.5j)],
)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_statistic_on_a_boundary_matches_oracle(order, on_boundary, seed):
    # at gamma = 0 the first observation's statistics are exactly z_next.a
    # and z_next.b when z_k = (1, 0); on a boundary the detector takes the
    # larger phase, which the certificate must leave to it
    low, image, _ = random_frame(seed)
    low[0:4, 0] = (1.0, 0.0, on_boundary, on_boundary.conjugate())
    assert_bytes_match_oracle(low, image, 0j, 0.05, order)


@pytest.mark.parametrize(
    "order, on_boundary",
    [(2, 1j), (2, -2j), (4, 1 + 1j), (4, -1 - 1j), (4, 0.5 - 0.5j)],
)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_statistic_on_a_boundary_at_the_anchor_matches_oracle(order, on_boundary, seed):
    # a pass from a non-zero gamma anchors at once, so its first observation
    # is certified at that gamma; with dyadic values z + gamma * zbar is
    # exact, so the statistics sit exactly on the boundary there, while the
    # non-zero image keeps the decision in the residuals (with zbar = 0 both
    # updates would leave gamma as it is, whatever the decision)
    low, image, _ = random_frame(seed)
    gamma = 0.25 - 0.5j
    image[0:4, 0] = (0.5, -0.25j, 0.75 + 0.25j, -0.5)
    low[0:4, 0] = np.array((1.0, 0.0, on_boundary, on_boundary.conjugate())) - gamma * image[0:4, 0]
    assert_bytes_match_oracle(low, image, gamma, 0.05, order)


def test_cold_start_frame_is_mostly_certified(monkeypatch):
    # the first frame of a point starts from gamma = 0; anchored at 0 it fell
    # back on 515-614 of its 620 observations at 30 dB
    cfg = bundled_lms_config(min_bits=FRAME_BITS)
    low, image, gamma, trajectory = record_frames(monkeypatch, cfg, 30.0)[0]
    assert gamma == 0
    calls = count_package_calls(monkeypatch, KERNELS)
    again = compensator.decision_directed_pass(
        low, image, gamma, cfg.lms_step_size, psk_constellation(cfg.psk_order)
    )
    assert again.tobytes() == trajectory.tobytes()
    assert calls["ml_differential_detect_indices"] == calls["build_residuals"]
    assert calls["build_residuals"] < 20 * 31 / 2


WARM_UP = compensator._WARM_UP_BLOCK_PAIRS


@pytest.mark.parametrize("blocks", [1, 2, WARM_UP, WARM_UP + 1])
def test_cold_start_frames_match_scalar_oracle(monkeypatch, blocks):
    cfg = bundled_lms_config(blocks_per_frame=blocks, min_bits=20_000)
    frames = record_frames(monkeypatch, cfg, 20.0)
    assert frames[0][2] == 0
    scalar_oracle_bytes(frames, cfg)
    for seed in range(3):
        low, image, _ = random_frame(seed, blocks=blocks)
        assert_bytes_match_oracle(low, image, 0j, 0.05, 8)


@pytest.mark.parametrize(
    "blocks, gamma, anchors",
    [(1, 0j, 0), (WARM_UP, 0j, 0), (WARM_UP + 1, 0j, 1), (1, 0.1j, 1), (WARM_UP, 0.1j, 1)],
)
def test_cold_start_anchors_only_after_the_warm_up(monkeypatch, blocks, gamma, anchors):
    calls = []
    real_anchor = compensator._anchor

    def counted(low, image, g0, ratios):
        calls.append((low.shape[0], g0))
        return real_anchor(low, image, g0, ratios)

    monkeypatch.setattr(compensator, "_anchor", counted)
    low, image, _ = random_frame(5, blocks=blocks)
    trajectory = compensator.decision_directed_pass(low, image, gamma, 0.005, psk_constellation(8))
    assert len(calls) == anchors
    if anchors and gamma == 0:
        # the rest of the frame, anchored at the gamma the warm-up reached
        assert calls[0] == (low.shape[0] - 2 * WARM_UP, trajectory[2 * WARM_UP * low.shape[1] - 1])
    elif anchors:
        assert calls[0] == (low.shape[0], gamma)


@pytest.mark.parametrize(
    "gamma",
    [complex(math.nan, 0), complex(0, math.nan), complex(math.inf, 0), complex(-math.inf, 1)],
)
def test_non_finite_gamma_raises_from_the_fallback(gamma):
    low, image, _ = random_frame(4)
    constellation = psk_constellation(8)
    for pass_ in (object_pass.scalar_decision_directed_pass, compensator.decision_directed_pass):
        with pytest.raises((ValueError, OverflowError)):
            pass_(low, image, gamma, 0.005, constellation)


def test_observation_packing(rng):
    spectra = rng.standard_normal((4, 64)) + 1j * rng.standard_normal((4, 64))
    i, m = 4, 60
    obs = object_pass.build_observation(spectra, i)
    assert obs.subcarrier == i
    assert obs.z_k == AlamoutiMatrix(spectra[0, i], spectra[1, i])
    assert obs.z_next == AlamoutiMatrix(spectra[2, i], spectra[3, i])
    # image entries enter conjugated
    assert obs.zbar_k == AlamoutiMatrix(
        spectra[0, m].conjugate(), spectra[1, m].conjugate()
    )
    assert obs.zbar_next == AlamoutiMatrix(
        spectra[2, m].conjugate(), spectra[3, m].conjugate()
    )
