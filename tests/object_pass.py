"""Oracles for the package's decision-directed pass.

``decision_directed_pass`` is the compensator loop as it was written on
``AlamoutiMatrix`` and ``SubcarrierObservation`` values, with its per-point
argmax PSK decision (ties go to the first maximum), and the observation
packing it read.  ``tests/test_lms_pass.py`` checks that the package's pass
gives the same gamma trajectory, and ``detect_pairs`` the same bits.

``scalar_decision_directed_pass`` is the package's pass as it was before
decisions were certified per frame: every observation is detected, its
residuals built and two LMS steps taken, in plain complex arithmetic.  It
is the byte oracle: the package's pass must give the same gamma bytes.

``tuple_compensate_observation`` is the package's array compensation as it
was on the 8-value layout, desired and conjugated image values apart; the
package's pair-order planes must hold the same bytes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dstbc_ofdm import PskConstellation

from alamouti import AlamoutiMatrix

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class CompensatorState:
    """The oracle's running coefficient, its LMS step size and the updates made so far."""

    gamma: complex = 0.0 + 0.0j
    step_size: float = 0.005
    updates: int = 0


@dataclass(frozen=True)
class SubcarrierObservation:
    """Alamouti-packed receive blocks k and k+1 at a subcarrier bin and its image.

    The mirror matrices hold elementwise conjugates of the image-subcarrier
    entries, which is the form the widely-linear imbalance model couples to
    the desired subcarrier.
    """

    subcarrier: int
    z_k: AlamoutiMatrix
    z_next: AlamoutiMatrix
    zbar_k: AlamoutiMatrix
    zbar_next: AlamoutiMatrix


def build_observation(rx_spectra, i: int) -> SubcarrierObservation:
    """Pack four consecutive demodulated spectra into the observation at bin ``i``.

    ``rx_spectra`` holds the spectra of OFDM symbols 2k+1, 2k+2, 2k+3, 2k+4
    (two consecutive space-time blocks).
    """
    if len(rx_spectra) != 4:
        raise ValueError(f"need 4 consecutive spectra, got {len(rx_spectra)}")
    s1, s2, s3, s4 = (np.asarray(s, dtype=np.complex128) for s in rx_spectra)
    j = (s1.shape[0] - i) % s1.shape[0]
    return SubcarrierObservation(
        subcarrier=i,
        z_k=AlamoutiMatrix(s1[i], s2[i]),
        z_next=AlamoutiMatrix(s3[i], s4[i]),
        zbar_k=AlamoutiMatrix(np.conj(s1[j]), np.conj(s2[j])),
        zbar_next=AlamoutiMatrix(np.conj(s3[j]), np.conj(s4[j])),
    )


def observation_tuples(low, image):
    """The pair observations of one frame, as the 8-tuples ``observation_of`` reads.

    ``low`` and ``image`` are the arrays ``decision_directed_pass`` takes,
    shape (OFDM symbol, pair).  Per block pair and lower subcarrier, in
    ascending order, the tuple is ``(z_k.a, z_k.b, z_next.a, z_next.b,
    zbar_k.a, zbar_k.b, zbar_next.a, zbar_next.b)``.
    """
    low = low.tolist()
    image = image.tolist()
    for j in range(2, len(low) - 1, 2):
        yield from zip(
            low[j - 2], low[j - 1], low[j], low[j + 1],
            image[j - 2], image[j - 1], image[j], image[j + 1],
        )


def observation_of(values: tuple) -> SubcarrierObservation:
    """The observation object of one 8-tuple in the scalar pass's layout."""
    zk_a, zk_b, zn_a, zn_b, bk_a, bk_b, bn_a, bn_b = values
    return SubcarrierObservation(
        subcarrier=0,
        z_k=AlamoutiMatrix(zk_a, zk_b),
        z_next=AlamoutiMatrix(zn_a, zn_b),
        zbar_k=AlamoutiMatrix(bk_a, bk_b),
        zbar_next=AlamoutiMatrix(bn_a, bn_b),
    )


def _best_index(d: complex, points: list) -> int:
    """argmax over points of Re(conj(p) * d); first maximum wins."""
    best_i = 0
    best_m = points[0].real * d.real + points[0].imag * d.imag
    for i in range(1, len(points)):
        p = points[i]
        m = p.real * d.real + p.imag * d.imag
        if m > best_m:
            best_m = m
            best_i = i
    return best_i


def ml_differential_detect_indices(
    z_k: AlamoutiMatrix,
    z_next: AlamoutiMatrix,
    constellation: PskConstellation,
) -> tuple[int, int]:
    """Phase indices of the info pair maximising Re(trace(U^H Z_k^H Z_next))."""
    d = z_k.hermitian() @ z_next
    points = constellation.points.tolist()
    return _best_index(d.a, points), _best_index(d.b, points)


def compensate_observation(obs: SubcarrierObservation, gamma: complex) -> SubcarrierObservation:
    """Apply the widely-linear correction to both blocks of an observation."""
    gamma_c = complex(gamma).conjugate()
    return SubcarrierObservation(
        subcarrier=obs.subcarrier,
        z_k=obs.z_k + obs.zbar_k.diag_mul(gamma),
        z_next=obs.z_next + obs.zbar_next.diag_mul(gamma),
        zbar_k=obs.zbar_k + obs.z_k.diag_mul(gamma_c),
        zbar_next=obs.zbar_next + obs.z_next.diag_mul(gamma_c),
    )


def build_residuals(
    obs: SubcarrierObservation,
    info: AlamoutiMatrix,
) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    """Scalar LMS sample pairs from the raw (uncompensated) observation."""
    xi = obs.z_next - obs.z_k @ info
    delta = obs.zbar_next - obs.zbar_k @ info
    return ((xi.a, delta.a), (-xi.b, -delta.b))


def lms_step(state: CompensatorState, xi: complex, delta: complex) -> CompensatorState:
    """One stochastic-gradient descent step on |xi + gamma*delta|^2."""
    error = xi + state.gamma * delta
    gamma = state.gamma - state.step_size * error * complex(delta).conjugate()
    return CompensatorState(gamma=gamma, step_size=state.step_size, updates=state.updates + 1)


def decision_directed_pass(
    block_pair_stream,
    state: CompensatorState,
    constellation: PskConstellation,
) -> tuple[np.ndarray, CompensatorState, np.ndarray]:
    """Compensate, detect and adapt across a stream of block-pair observations."""
    points = constellation.points.tolist()
    bits_of_index = constellation.bits_of_index
    bps = constellation.bits_per_symbol
    shifts = np.arange(bps - 1, -1, -1)
    indices: list[int] = []
    trajectory: list[complex] = []
    for pair_observations in block_pair_stream:
        for obs in pair_observations:
            comp = compensate_observation(obs, state.gamma)
            i1, i2 = ml_differential_detect_indices(comp.z_k, comp.z_next, constellation)
            # conjugating the compensated mirror pair turns its differential
            # relation back into the direct form, so the same detector applies
            m1, m2 = ml_differential_detect_indices(
                comp.zbar_k.conjugate(), comp.zbar_next.conjugate(), constellation
            )
            # the transmit chain scales each info matrix by 1/sqrt(2) to keep
            # blocks unitary, so the block-to-block ratio carries that factor
            info = AlamoutiMatrix(points[i1] * _INV_SQRT2, points[i2] * _INV_SQRT2)
            (xi1, delta1), (xi2, delta2) = build_residuals(obs, info)
            state = lms_step(state, xi1, delta1)
            trajectory.append(state.gamma)
            state = lms_step(state, xi2, delta2)
            trajectory.append(state.gamma)
            indices.extend((i1, i2, m1, m2))
    index_arr = np.asarray(indices, dtype=np.int64).reshape(-1) if indices else np.empty(0, dtype=np.int64)
    values = bits_of_index[index_arr]
    bits = ((values[:, None] >> shifts) & 1).astype(np.int8).reshape(-1)
    return bits, state, np.asarray(trajectory, dtype=np.complex128)


def _scalar_detect(k_a, k_b, n_a, n_b, order):
    """The two PSK decisions on the top row of ``Z_k^H @ Z_next``, rounding in angle."""
    k_a_c = k_a.conjugate()
    return tuple(
        math.floor(math.atan2(d.imag, d.real) / (2.0 * math.pi / order) + 0.5) % order
        for d in (k_a_c * n_a + k_b * n_b.conjugate(), k_a_c * n_b - k_b * n_a.conjugate())
    )


def _scalar_residuals(values, u1, u2):
    """The two ``(xi, delta)`` pairs of an 8-tuple observation for the ratio ``(u1, u2)``."""
    zk_a, zk_b, zn_a, zn_b, bk_a, bk_b, bn_a, bn_b = values
    u1_c = u1.conjugate()
    u2_c = u2.conjugate()
    return (
        (zn_a - (zk_a * u1 - zk_b * u2_c), bn_a - (bk_a * u1 - bk_b * u2_c)),
        (-(zn_b - (zk_a * u2 + zk_b * u1_c)), -(bn_b - (bk_a * u2 + bk_b * u1_c))),
    )


def _scalar_lms_step(gamma, step_size, xi, delta):
    return gamma - step_size * (xi + gamma * delta) * delta.conjugate()


def scalar_decision_directed_pass(low, image, gamma, step_size, constellation):
    """The per-observation scalar pass, on the package pass's arguments."""
    order = constellation.order
    ratios = [p * _INV_SQRT2 for p in constellation.points.tolist()]
    gamma = complex(gamma)
    detect = _scalar_detect
    residuals = _scalar_residuals
    step = _scalar_lms_step
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


def tuple_compensate_observation(values: tuple, gamma: complex) -> tuple:
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
