"""Unit tests for the decision-directed image-leakage compensator."""

import numpy as np
import pytest

from dstbc_ofdm import (
    alamouti_detect,
    build_residuals,
    compensate_observation,
    compensator,
    decision_directed_pass,
    derive_iqi_params,
    detect_pairs,
    gamma_true,
    lms_step,
    pair_bins,
    psk_constellation,
)

from alamouti import AlamoutiMatrix
from conftest import as_planes, indices_to_bits, pair_decisions, synthetic_observation


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
        zk_a, zk_b, zn_a, zn_b, bk_a, bk_b, bn_a, bn_b = compensate_observation(obs, g)
        direct = AlamoutiMatrix(zn_a, zn_b) - AlamoutiMatrix(zk_a, zk_b) @ ratio
        image = AlamoutiMatrix(bn_a, bn_b) - AlamoutiMatrix(bk_a, bk_b) @ mirror_ratio.conjugate()
        assert direct.frobenius() <= 1e-10
        assert image.frobenius() <= 1e-10


def test_zero_gamma_compensation_is_identity(rng):
    params = derive_iqi_params(2.0, 8.0)
    obs, _, _, _ = synthetic_observation(rng, params)
    comp = compensate_observation(obs, 0.0)
    assert comp[0:2] == obs[0:2]
    assert comp[6:8] == obs[6:8]


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
        # the same values reach the detector, bit for bit
        for got, old in zip(planes.pop(), old_planes):
            assert got.tobytes() == np.ascontiguousarray(old[..., position]).tobytes()
        np.testing.assert_array_equal(det1, old1[..., position])
        np.testing.assert_array_equal(det2, old2[..., position])
