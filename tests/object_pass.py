"""Object-based decision-directed pass, kept as the oracle for the scalar one.

This is the compensator loop as it was written on ``AlamoutiMatrix`` and
``SubcarrierObservation`` values, with its per-point argmax PSK decision
(ties go to the first maximum), and the observation packing it read.
``tests/test_lms_pass.py`` checks that the package's scalar recurrence gives
the same bits and gamma trajectory.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dstbc_ofdm import CompensatorState, PskConstellation, mirror_permutation

from alamouti import AlamoutiMatrix

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


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
    j = mirror_permutation(s1.shape[0])[i]
    return SubcarrierObservation(
        subcarrier=i,
        z_k=AlamoutiMatrix(s1[i], s2[i]),
        z_next=AlamoutiMatrix(s3[i], s4[i]),
        zbar_k=AlamoutiMatrix(np.conj(s1[j]), np.conj(s2[j])),
        zbar_next=AlamoutiMatrix(np.conj(s3[j]), np.conj(s4[j])),
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


def _best_index(d: complex, points: tuple) -> int:
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
    points = constellation.points_list
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
    points = constellation.points_list
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
