"""Unit tests for the decision-directed image-leakage compensator."""
import csv

import numpy as np
import pytest

from dstbc_ofdm import (
    CompensatorState,
    build_residuals,
    compensate_observation,
    decision_directed_pass,
    derive_iqi_params,
    gamma_true,
    lms_step,
    psk_constellation,
)

from alamouti import AlamoutiMatrix
from conftest import synthetic_observation


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
    bits, state, trajectory = decision_directed_pass(stream, CompensatorState(), c)
    np.testing.assert_array_equal(bits, np.array(expected, dtype=np.int8))
    assert state.updates == 2 * 50
    assert trajectory.shape == (100,)
    # without leakage the residual driver is zero and gamma never moves
    assert np.all(trajectory == 0)


def test_pass_converges_toward_true_gamma(rng):
    params = derive_iqi_params(2.0, 8.0)
    target = gamma_true(params)
    stream = [synthetic_observation(rng, params)[0] for _ in range(40 * 20)]
    bits, state, trajectory = decision_directed_pass(
        stream, CompensatorState(step_size=0.01), psk_constellation(8)
    )
    assert abs(trajectory[-1] - target) < 0.02
    errors = np.abs(trajectory - target)
    assert errors[-100:].mean() < errors[:100].mean() / 5


def test_state_threads_across_calls(rng):
    params = derive_iqi_params(1.0, 4.0)
    c = psk_constellation(8)
    stream = [synthetic_observation(rng, params)[0] for _ in range(4)]
    _, state, _ = decision_directed_pass(stream, CompensatorState(), c)
    assert state.updates == 8
    _, state, _ = decision_directed_pass(stream, state, c)
    assert state.updates == 16


def test_trajectory_csv_round_trip(tmp_path):
    from dstbc_ofdm import save_gamma_trajectory

    path = tmp_path / "gamma.csv"
    save_gamma_trajectory(path, np.array([0.1 + 0.2j, 0.3 - 0.4j]))
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["iteration", "gamma_re", "gamma_im"]
    assert rows[1] == ["1", "0.1", "0.2"]
    assert rows[2] == ["2", "0.3", "-0.4"]
