"""Decision-directed image-leakage compensation.

A single complex coefficient ``gamma`` reconstructs the desired subcarrier
from the observed pair: ``Zhat = Z' + diag(gamma, conj(gamma)) @ Zbar'`` and
``Zbarhat = diag(conj(gamma), gamma) @ Z' + Zbar'``.  With
``gamma = -beta / conj(alpha)`` the image leakage cancels exactly and both
compensated pairs again satisfy the differential relation, so the running
coefficient can be adapted from decision-directed residuals with scalar LMS
steps; one shared gamma serves every subcarrier pair and is the
compensator's whole state.
"""
from __future__ import annotations

import math

import numpy as np

from .iqi import IqiParams
from .numerics import PskConstellation
from .stbc import alamouti_detect, ml_differential_detect_indices

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def gamma_true(params: IqiParams) -> complex:
    """Coefficient that exactly nulls the image leakage: -beta / conj(alpha)."""
    return -params.beta / np.conj(params.alpha)


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
    gamma: complex,
    step_size: float,
    constellation: PskConstellation,
) -> np.ndarray:
    """Adapt gamma across one frame of pair observations, decision-directed.

    ``low`` holds the received values at the lower-index member of each
    active (k, mirror) pair and ``image`` the conjugated values at its
    mirror, both of shape (OFDM symbol, pair); symbols 2k and 2k+1 carry
    block k.  Observations run pair after pair in ascending order, block
    pair after block pair, each in the layout of ``compensate_observation``.
    Gamma depends only on the desired-subcarrier decisions, so per
    observation the loop compensates the desired values with the current
    gamma, detects their info matrix and runs two LMS updates from the
    decision-directed residuals.  Detection of the frame's bits is left to
    ``detect_pairs``.

    Returns the gamma value after every update, two per observation; the
    last entry is the final gamma.  Observation i saw the input gamma for
    i = 0 and entry 2i - 1 after it.
    """
    order = constellation.order
    # the transmit chain scales each info matrix by 1/sqrt(2) to keep
    # blocks unitary, so the block-to-block ratio carries that factor
    ratios = [p * _INV_SQRT2 for p in constellation.points.tolist()]
    gamma = complex(gamma)
    # local names for the kernels, looked up once per pass, not per observation
    detect = ml_differential_detect_indices
    residuals = build_residuals
    step = lms_step
    low_rows = low.tolist()
    image_rows = image.tolist()
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
    return np.asarray(trajectory, dtype=np.complex128)


def detect_pairs(values: np.ndarray, gamma, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Differential decisions at both members of every (k, mirror) pair.

    ``values`` holds spectra in pair order, shape (..., OFDM symbol, 2 * pair):
    the lower members, then their mirrors, as ``ofdm.pair_bins`` lists them.  Unless ``gamma`` is None, each
    lower member and its conjugated mirror are first compensated with it, a
    scalar or one value per observation, shape (..., block pair, pair).
    Returns the two symbol indices of each (block pair, pair member).
    """
    za = values[..., 0::2, :]
    zb = values[..., 1::2, :]
    planes = (za[..., :-1, :], zb[..., :-1, :], za[..., 1:, :], zb[..., 1:, :])
    if gamma is not None:
        half = values.shape[-1] // 2
        low = tuple(p[..., :half] for p in planes)
        image = tuple(np.conj(p[..., half:]) for p in planes)
        comp = compensate_observation(low + image, gamma)
        # conjugating the compensated mirror pair turns its differential
        # relation back into the direct form, so the same detector applies
        planes = tuple(
            np.concatenate([desired, np.conj(mirror)], axis=-1)
            for desired, mirror in zip(comp[:4], comp[4:])
        )
    return alamouti_detect(*planes, order)
