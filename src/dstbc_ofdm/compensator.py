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
from .numerics import PskConstellation, indices_to_bits
from .stbc import differential_detect, ml_differential_detect_indices

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
    image subcarrier; the result has the same layout.  The entries may be
    arrays of one shape, with ``gamma`` a scalar or an array of that shape.
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
    low: np.ndarray,
    image: np.ndarray,
    state: CompensatorState,
    constellation: PskConstellation,
) -> tuple[np.ndarray, CompensatorState, np.ndarray]:
    """Compensate, detect and adapt across one frame of pair observations.

    ``low`` holds the received values at the lower-index member of each
    active (n, mirror) pair and ``image`` the conjugated values at its
    mirror, both of shape (OFDM symbol, pair); symbols 2k and 2k+1 carry
    block k.  Observations run pair after pair in ascending order, block
    pair after block pair, each in the layout of ``compensate_observation``.
    Gamma depends only on the desired-subcarrier decisions, so the serial
    loop compensates the desired values with the current gamma, detects
    their info matrix and runs two LMS updates from the decision-directed
    residuals.  The mirror values are then compensated with the gamma each
    observation saw and detected for the whole frame at once.

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
    # local names for the kernels, looked up once per pass, not per observation
    detect = ml_differential_detect_indices
    residuals = build_residuals
    step = lms_step
    low_rows = low.tolist()
    image_rows = image.tolist()
    desired: list[int] = []
    trajectory: list[complex] = []
    for j in range(2, low.shape[0] - 1, 2):
        for values in zip(
            low_rows[j - 2], low_rows[j - 1], low_rows[j], low_rows[j + 1],
            image_rows[j - 2], image_rows[j - 1], image_rows[j], image_rows[j + 1],
        ):
            zk_a, zk_b, zn_a, zn_b, bk_a, bk_b, bn_a, bn_b = values
            i1, i2 = detect(
                zk_a + gamma * bk_a, zk_b + gamma * bk_b, zn_a + gamma * bn_a, zn_b + gamma * bn_b,
                order,
            )
            (xi1, delta1), (xi2, delta2) = residuals(values, ratios[i1], ratios[i2])
            gamma = step(gamma, step_size, xi1, delta1)
            trajectory.append(gamma)
            gamma = step(gamma, step_size, xi2, delta2)
            trajectory.append(gamma)
            desired += (i1, i2)
    za, zb, ba, bb = low[0::2], low[1::2], image[0::2], image[1::2]
    planes = (za[:-1], zb[:-1], za[1:], zb[1:], ba[:-1], bb[:-1], ba[1:], bb[1:])
    # each observation saw the input gamma, or the one after the previous
    # observation's second update
    seen = np.array(([complex(state.gamma)] + trajectory)[:-1:2])
    *_, bk_a, bk_b, bn_a, bn_b = compensate_observation(planes, seen.reshape(planes[0].shape))
    # conjugating the compensated mirror pair turns its differential
    # relation back into the direct form, so the same detector applies
    m1, m2 = differential_detect(np.conj(bk_a), np.conj(bk_b), np.conj(bn_a), np.conj(bn_b), order)
    indices = np.column_stack([np.reshape(desired, (-1, 2)), m1.reshape(-1), m2.reshape(-1)])
    bits = indices_to_bits(indices, order)
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
