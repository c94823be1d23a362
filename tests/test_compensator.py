"""Unit tests for the decision-directed image-leakage compensator."""

import numpy as np
import pytest

from dstbc_ofdm import (
    SimConfig,
    alamouti_detect,
    build_residuals,
    compensate_observation,
    compensator,
    decision_directed_pass,
    derive_iqi_params,
    detect_pairs,
    gamma_true,
    harness,
    lms_step,
    pair_bins,
    psk_constellation,
    run_point,
)

import object_pass
from alamouti import AlamoutiMatrix
from conftest import as_planes, indices_to_bits, pair_decisions, pair_planes, synthetic_observation


def test_gamma_true_value():
    params = derive_iqi_params(2.0, 8.0)
    g = gamma_true(params)
    assert g == pytest.approx(-params.beta / np.conj(params.alpha), abs=1e-15)
    assert g == pytest.approx(0.11517634828 + 0.06900364591j, abs=1e-9)


def test_true_gamma_nulls_lms_error(rng):
    params = derive_iqi_params(2.0, 8.0)
    g = gamma_true(params)
    for _ in range(100):
        obs, ratio, _, _ = synthetic_observation(rng, params)
        for xi, delta in build_residuals(obs, ratio.a, ratio.b):
            assert abs(xi + g * delta) <= 1e-10


def test_compensation_restores_both_chains(rng):
    params = derive_iqi_params(3.0, -6.0)
    g = gamma_true(params)
    for _ in range(50):
        obs, ratio, mirror_ratio, _ = synthetic_observation(rng, params)
        zk_a, zk_b, zn_a, zn_b = compensate_observation(pair_planes(obs), g)
        # each plane holds the desired subcarrier, then its mirror, whose
        # compensated chain is in the direct form too
        direct = AlamoutiMatrix(zn_a[0], zn_b[0]) - AlamoutiMatrix(zk_a[0], zk_b[0]) @ ratio
        image = AlamoutiMatrix(zn_a[1], zn_b[1]) - AlamoutiMatrix(zk_a[1], zk_b[1]) @ mirror_ratio
        assert direct.frobenius() <= 1e-10
        assert image.frobenius() <= 1e-10


def test_zero_gamma_compensation_is_identity(rng):
    params = derive_iqi_params(2.0, 8.0)
    obs, _, _, _ = synthetic_observation(rng, params)
    planes = pair_planes(obs)
    comp = compensate_observation(planes, 0.0)
    for got, plane in zip(comp, planes):
        np.testing.assert_array_equal(got, plane)


@pytest.mark.parametrize("frames", [None, 14])
def test_pair_order_compensation_equals_the_eight_value_form(rng, frames):
    # one frame with the genie's scalar gamma, and a 14-frame stack with a
    # gamma per observation, whose planes exceed numpy's 256 KiB threshold
    # for multiplying into a temporary in place
    shape = (42, 62) if frames is None else (frames, 42, 62)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if frames is None:
        gamma = gamma_true(derive_iqi_params(2.0, 8.0))
    else:
        seen = (frames, 20, 31)
        gamma = 0.1 * (rng.standard_normal(seen) + 1j * rng.standard_normal(seen))
    za, zb = values[..., 0::2, :], values[..., 1::2, :]
    planes = (za[..., :-1, :], zb[..., :-1, :], za[..., 1:, :], zb[..., 1:, :])
    low = tuple(p[..., :31] for p in planes)
    image = tuple(np.conj(p[..., 31:]) for p in planes)
    oracle = object_pass.tuple_compensate_observation(low + image, gamma)
    for got, desired, mirror in zip(compensate_observation(planes, gamma), oracle[:4], oracle[4:]):
        assert got.shape == planes[0].shape
        assert got[..., :31].tobytes() == desired.tobytes()
        assert got[..., 31:].tobytes() == np.conj(mirror).tobytes()


def test_lms_step_moves_toward_solution():
    target = 0.1151763 + 0.0690036j
    # with delta = 1 and xi = -target the error is -target and one step
    # travels step_size of the remaining distance
    gamma = lms_step(0.0, 0.1, -target, 1.0)
    assert gamma == pytest.approx(0.1 * target, abs=1e-15)


def test_lms_fixed_point():
    target = 0.2 - 0.05j
    gamma = lms_step(target, 0.1, -target * 0.8, 0.8)
    assert gamma == pytest.approx(target, abs=1e-15)


def test_pass_recovers_bits_without_imbalance(rng):
    params = derive_iqi_params(0.0, 0.0)
    c = psk_constellation(8)
    stream, expected = [], []
    for _ in range(10 * 5):
        obs, _, _, indices = synthetic_observation(rng, params)
        stream.append(obs)
        for idx in indices:
            expected.extend(int(b) for b in f"{c.bits_of_index[idx]:03b}")
    low, image = as_planes(stream)
    trajectory = decision_directed_pass(low, image, 0j, 0.005, c)
    bits = indices_to_bits(pair_decisions(low, image, 0j, trajectory, 8), 8)
    np.testing.assert_array_equal(bits, np.array(expected, dtype=np.int8))
    assert trajectory.shape == (2 * 50,)
    # without leakage the residual driver is zero and gamma never moves
    assert np.all(trajectory == 0)


def test_pass_converges_toward_true_gamma(rng):
    params = derive_iqi_params(2.0, 8.0)
    target = gamma_true(params)
    stream = [synthetic_observation(rng, params)[0] for _ in range(40 * 20)]
    trajectory = decision_directed_pass(*as_planes(stream), 0j, 0.01, psk_constellation(8))
    assert abs(trajectory[-1] - target) < 0.02
    errors = np.abs(trajectory - target)
    assert errors[-100:].mean() < errors[:100].mean() / 5


def test_state_threads_across_calls(rng):
    params = derive_iqi_params(1.0, 4.0)
    c = psk_constellation(8)
    stream = [synthetic_observation(rng, params)[0] for _ in range(4)]
    first = decision_directed_pass(*as_planes(stream), 0j, 0.005, c)
    assert first.shape == (8,)
    second = decision_directed_pass(*as_planes(stream), first[-1], 0.005, c)
    assert second.shape == (8,)
    # feeding the final gamma back in continues the recurrence exactly
    whole = decision_directed_pass(*as_planes(stream + stream), 0j, 0.005, c)
    np.testing.assert_array_equal(np.concatenate([first, second]), whole)


@pytest.mark.parametrize("order", [4, 8, 16])
def test_detect_pairs_matches_full_spectrum_detection(monkeypatch, rng, order):
    # the engine's former detectors: differential detection over the active
    # bins in ascending order, after z + gamma * conj(z[mirror]) for the genie
    n = 64
    z = rng.standard_normal((3, 10, n)) + 1j * rng.standard_normal((3, 10, n))
    bins = pair_bins(n)
    active, mirror = np.sort(bins), (n - np.arange(n)) % n
    low = bins[: n // 2 - 1]
    position = np.searchsorted(active, bins)
    gamma = 0.11517634828 + 0.06900364591j
    planes = []
    real_detect = compensator.alamouti_detect

    def recording(*args):
        planes.append(args[:4])
        return real_detect(*args)

    monkeypatch.setattr(compensator, "alamouti_detect", recording)
    # the genie's scalar gamma, and the same value given per observation
    seen = np.full((3, 4, low.shape[0]), gamma)
    genie = z + gamma * np.conj(z[..., mirror])
    for g, spectra in ((None, z), (gamma, genie), (seen, genie)):
        za = spectra[..., 0::2, :][..., active]
        zb = spectra[..., 1::2, :][..., active]
        old_planes = (za[:, :-1], zb[:, :-1], za[:, 1:], zb[:, 1:])
        old1, old2 = alamouti_detect(*old_planes, order)
        det1, det2 = detect_pairs(z[..., bins], g, order)
        # the same values reach the detector, bit for bit: with gamma, the
        # compensated desired and mirror members, in one call
        [got_planes] = planes
        planes.clear()
        for got, old in zip(got_planes, old_planes):
            assert got.tobytes() == np.ascontiguousarray(old[..., position]).tobytes()
        np.testing.assert_array_equal(det1, old1[..., position])
        np.testing.assert_array_equal(det2, old2[..., position])


def test_detect_pairs_of_fourteen_frames_equal_their_per_frame_calls(monkeypatch):
    # fourteen default LMS frames, one chunk's spectra and the gamma each
    # observation saw, as the engine passes them
    calls = []
    real_detect_pairs = harness.detect_pairs

    def recording_pairs(values, gamma, order):
        calls.append((values, gamma))
        return real_detect_pairs(values, gamma, order)

    monkeypatch.setattr(harness, "detect_pairs", recording_pairs)
    monkeypatch.setattr(harness, "_CHUNK_SAMPLES", 4 * harness._CHUNK_SAMPLES)
    cfg = SimConfig(iqi_kappa_db=2.0, iqi_phi_deg=8.0, compensation="lms", min_bits=14 * 7440, seed=5)
    run_point(cfg, 20.0)
    [(values, gamma)] = calls
    assert values.shape == (14, 42, 62) and gamma.shape == (14, 20, 31)
    # a last-bit change in the planes that reach the detector need not flip
    # a decision, so the planes themselves are compared
    planes = []
    real_detect = compensator.alamouti_detect

    def recording(*args):
        planes.append(args[:4])
        return real_detect(*args)

    monkeypatch.setattr(compensator, "alamouti_detect", recording)
    batch = detect_pairs(values, gamma, 8)
    batch_planes = planes[:]
    planes.clear()
    singles = [detect_pairs(v, g, 8) for v, g in zip(values, gamma)]
    # one call each, on the compensated planes of both pair members
    [batch_planes] = batch_planes
    assert len(planes) == 14
    for got, parts in zip(batch_planes, zip(*planes)):
        assert got.shape == (14, 20, 62)
        assert got.tobytes() == np.stack(parts).tobytes()
    for got, parts in zip(batch, zip(*singles)):
        np.testing.assert_array_equal(got, np.stack(parts))
