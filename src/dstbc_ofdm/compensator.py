"""Decision-directed image-leakage compensation.

A single complex coefficient ``gamma`` reconstructs the desired subcarrier
from the observed pair: ``Zhat = Z' + diag(gamma, conj(gamma)) @ Zbar'`` and
``Zbarhat = diag(conj(gamma), gamma) @ Z' + Zbar'``.  With
``gamma = -beta / conj(alpha)`` the image leakage cancels exactly and both
compensated pairs again satisfy the differential relation, so the running
coefficient can be adapted from decision-directed residuals with scalar LMS
steps; one shared gamma serves every subcarrier pair.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .iqi import IqiParams
from .numerics import PskConstellation
from .stbc import ml_differential_detect_indices

DEFAULT_STEP_SIZE = 0.005

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def gamma_true(params: IqiParams) -> complex:
    """Coefficient that exactly nulls the image leakage: -beta / conj(alpha)."""
    return -params.beta / np.conj(params.alpha)


@dataclass(frozen=True)
class CompensatorState:
    gamma: complex = 0.0 + 0.0j
    step_size: float = DEFAULT_STEP_SIZE
    updates: int = 0


def compensate_observation(values: tuple, gamma: complex) -> tuple:
    """Apply the widely-linear correction to both blocks of an observation.

    ``values`` is the 8-tuple ``(z_k.a, z_k.b, z_next.a, z_next.b, zbar_k.a,
    zbar_k.b, zbar_next.a, zbar_next.b)`` of the Alamouti top rows of blocks
    k and k+1 at the desired subcarrier and of the elementwise-conjugated
    image subcarrier; the result has the same layout.
    """
    zk_a, zk_b, zn_a, zn_b, bk_a, bk_b, bn_a, bn_b = values
    gamma_c = gamma.conjugate()
    return (
        zk_a + gamma * bk_a,
        zk_b + gamma * bk_b,
        zn_a + gamma * bn_a,
        zn_b + gamma * bn_b,
        bk_a + gamma_c * zk_a,
        bk_b + gamma_c * zk_b,
        bn_a + gamma_c * zn_a,
        bn_b + gamma_c * zn_b,
    )


def build_residuals(
    values: tuple,
    u1: complex,
    u2: complex,
) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    """Scalar LMS sample pairs from the raw (uncompensated) observation.

    ``values`` has the layout of ``compensate_observation``.  ``(u1, u2)``
    is the top row of the block-to-block ratio actually transmitted (the
    detected info matrix including any unitarity scaling).  With
    ``Xi = Z'_next - Z'_k @ U`` and ``Delta = Zbar'_next - Zbar'_k @ U``
    the two usable equations linear in gamma are the (1,1) entries and the
    conjugated (2,1) entries: ``(Xi[0,0], Delta[0,0])`` and
    ``(conj(Xi[1,0]), conj(Delta[1,0]))``.
    """
    zk_a, zk_b, zn_a, zn_b, bk_a, bk_b, bn_a, bn_b = values
    u1_c = u1.conjugate()
    u2_c = u2.conjugate()
    return (
        (zn_a - (zk_a * u1 - zk_b * u2_c), bn_a - (bk_a * u1 - bk_b * u2_c)),
        (-(zn_b - (zk_a * u2 + zk_b * u1_c)), -(bn_b - (bk_a * u2 + bk_b * u1_c))),
    )


def lms_step(gamma: complex, step_size: float, xi: complex, delta: complex) -> complex:
    """One stochastic-gradient descent step on |xi + gamma*delta|^2."""
    return gamma - step_size * (xi + gamma * delta) * delta.conjugate()


def decision_directed_pass(
    observations,
    state: CompensatorState,
    constellation: PskConstellation,
) -> tuple[np.ndarray, CompensatorState, np.ndarray]:
    """Compensate, detect and adapt across a stream of pair observations.

    ``observations`` yields one 8-tuple per pair observation, in the layout
    of ``compensate_observation``, for the lower-index member of each active
    (n, mirror) pair in ascending order, block pair after block pair.  Each
    observation is processed once: compensate with the current gamma,
    detect the info matrices of both the desired and the image subcarrier,
    then run two LMS updates from the decision-directed residuals.

    Returns the detected bit stream (per observation: desired-subcarrier
    symbol pair then image-subcarrier symbol pair, MSB first), the final
    compensator state and the gamma value after every update.
    """
    order = constellation.order
    # the transmit chain scales each info matrix by 1/sqrt(2) to keep
    # blocks unitary, so the block-to-block ratio carries that factor
    ratios = [p * _INV_SQRT2 for p in constellation.points_list]
    step_size = state.step_size
    gamma = complex(state.gamma)
    indices: list[int] = []
    trajectory: list[complex] = []
    for values in observations:
        zk_a, zk_b, zn_a, zn_b, bk_a, bk_b, bn_a, bn_b = compensate_observation(values, gamma)
        i1, i2 = ml_differential_detect_indices(zk_a, zk_b, zn_a, zn_b, order)
        # conjugating the compensated mirror pair turns its differential
        # relation back into the direct form, so the same detector applies
        m1, m2 = ml_differential_detect_indices(
            bk_a.conjugate(), bk_b.conjugate(), bn_a.conjugate(), bn_b.conjugate(), order
        )
        (xi1, delta1), (xi2, delta2) = build_residuals(values, ratios[i1], ratios[i2])
        gamma = lms_step(gamma, step_size, xi1, delta1)
        trajectory.append(gamma)
        gamma = lms_step(gamma, step_size, xi2, delta2)
        trajectory.append(gamma)
        indices += (i1, i2, m1, m2)
    bps = constellation.bits_per_symbol
    values_arr = constellation.bits_of_index[np.asarray(indices, dtype=np.int64)]
    bits = ((values_arr[:, None] >> np.arange(bps - 1, -1, -1)) & 1).astype(np.int8).reshape(-1)
    final = CompensatorState(gamma=gamma, step_size=step_size, updates=state.updates + len(trajectory))
    return bits, final, np.asarray(trajectory, dtype=np.complex128)


def save_gamma_trajectory(path, trajectory: np.ndarray) -> None:
    """Write the adaptation history as CSV rows (iteration, Re, Im)."""
    trajectory = np.asarray(trajectory, dtype=np.complex128)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["iteration", "gamma_re", "gamma_im"])
        for i, value in enumerate(trajectory):
            writer.writerow([i + 1, f"{value.real:.9g}", f"{value.imag:.9g}"])
