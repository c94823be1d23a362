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

import numpy as np

from .iqi import IqiParams
from .numerics import PskConstellation, psk_decisions_with_margin
from .stbc import INFO_SCALE, alamouti_detect, alamouti_statistics, ml_differential_detect_indices


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


# Rounding allowance of a certified decision, as a multiple of U_k * U_n (see
# ``_anchor``).  The roundings it covers add up to less than 200 * 2**-53
# times U_k * U_n; 2**-40 is 8192 * 2**-53.
_ROUNDING_BOUND = 2.0**-40


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

    The decisions are first taken for the whole frame at the input gamma
    ``g0`` (``_anchor``), with a radius per observation within which they
    provably do not change.  An observation whose gamma lies inside its
    radius takes the anchor's residuals and runs only the two LMS steps;
    any other runs the full per-observation body.  Both give the same
    gamma, byte for byte.

    Returns the gamma value after every update, two per observation; the
    last entry is the final gamma.  Observation i saw the input gamma for
    i = 0 and entry 2i - 1 after it.
    """
    order = constellation.order
    # the block-to-block ratio is the transmitted, scaled info matrix
    ratios = constellation.points * INFO_SCALE
    ratio_list = ratios.tolist()
    gamma = g0 = complex(gamma)
    # local names for the kernels, looked up once per pass, not per observation
    detect = ml_differential_detect_indices
    residuals = build_residuals
    step = lms_step
    n_pairs = low.shape[1]
    rows = None
    trajectory: list[complex] = []
    append = trajectory.append
    for i, (r, a1, d1, c1, a2, d2, c2) in enumerate(zip(*_anchor(low, image, g0, ratios))):
        if abs(gamma - g0) < r:
            # lms_step's expression, twice, on the anchor decision's residuals
            gamma = gamma - step_size * (a1 + gamma * d1) * c1
            append(gamma)
            gamma = gamma - step_size * (a2 + gamma * d2) * c2
            append(gamma)
            continue
        if rows is None:
            rows = low.tolist(), image.tolist()
        low_rows, image_rows = rows
        k, p = divmod(i, n_pairs)
        j = 2 * k + 2
        values = (
            low_rows[j - 2][p], low_rows[j - 1][p], low_rows[j][p], low_rows[j + 1][p],
            image_rows[j - 2][p], image_rows[j - 1][p], image_rows[j][p], image_rows[j + 1][p],
        )
        zk_a, zk_b, zn_a, zn_b, bk_a, bk_b, bn_a, bn_b = values
        i1, i2 = detect(
            zk_a + gamma * bk_a, zk_b + gamma * bk_b, zn_a + gamma * bn_a, zn_b + gamma * bn_b,
            order,
        )
        (xi1, delta1), (xi2, delta2) = residuals(values, ratio_list[i1], ratio_list[i2])
        gamma = step(gamma, step_size, xi1, delta1)
        trajectory.append(gamma)
        gamma = step(gamma, step_size, xi2, delta2)
        trajectory.append(gamma)
    return np.asarray(trajectory, dtype=np.complex128)


def _anchor(low: np.ndarray, image: np.ndarray, g0: complex, ratios: np.ndarray) -> list[list]:
    """Certified radii and residual pairs of a frame's decisions at ``g0``.

    Returns the lists ``radius, xi1, delta1, conj(delta1), xi2, delta2,
    conj(delta2)``, each in observation order.  At any gamma with
    ``|gamma - g0| < radius`` the scalar detector makes the decisions made
    here, so ``build_residuals`` would return these residual pairs; a
    radius that is not positive, or NaN, certifies nothing.

    With ``Delta = gamma - g0`` each decision statistic moves by exactly
    ``Delta*P + conj(Delta)*Q + |Delta|**2 * R'``, and the sizes of P, Q and
    R' are bounded by ``S = C_k*B_n + B_k*C_n`` and ``R = B_k*B_n``: ``C``
    sums the two compensated desired magnitudes of a block at g0 and ``B``
    the two image magnitudes.  Within ``r = 2m / (S + sqrt(S**2 + 4*R*m))``,
    the root of ``S*r + R*r**2 = m``, no statistic moves by its margin
    ``m``, the distance to the nearest PSK decision boundary of the smaller
    of the two.  ``m`` is first reduced by a bound on every rounding
    involved: both statistics' products and sums, at g0 here and at gamma in
    the scalar detector, the two phase roundings and this arithmetic.  While
    ``|Delta| <= 1`` every term involved is at most ``U_k*U_n`` in size, with
    ``U = Z + (|g0| + 1)*B`` and ``Z`` the raw desired magnitudes, and the
    roundings add up to less than ``200 * 2**-53 * U_k*U_n``; so ``m`` loses
    ``_ROUNDING_BOUND * U_k * U_n`` and ``r`` is capped at 1.
    """
    n_sym, n_pairs = low.shape
    planes = np.empty((3, n_sym, n_pairs), dtype=np.complex128)
    planes[0] = low
    planes[1] = image
    # a non-finite g0 or overflowing magnitudes give NaN or negative radii
    with np.errstate(all="ignore"):
        np.multiply(image, g0, out=planes[2])
        planes[2] += low
        # |a| + |b| per block: raw desired (Z), image (B), compensated (C)
        mag = np.abs(planes)
        z, b, c = mag[:, 0::2] + mag[:, 1::2]
        s = c[:-1] * b[1:]
        s += b[:-1] * c[1:]
        r4 = b[:-1] * b[1:]
        r4 *= 4.0
        u = b * (abs(g0) + 1.0)
        u += z
        allowance = u[:-1] * u[1:]
        allowance *= _ROUNDING_BOUND
        # both decision statistics of every observation, block k the reference
        ca, cb = planes[2, 0::2], planes[2, 1::2]
        stat = np.stack(alamouti_statistics(ca[:-1], cb[:-1], ca[1:], cb[1:]))
        indices, margins = psk_decisions_with_margin(stat, len(ratios))
        m = np.minimum(margins[0], margins[1])
        m -= allowance
        r4 *= m
        r4 += s * s
        np.sqrt(r4, out=r4)
        r4 += s
        m += m
        radius = np.minimum(m / r4, 1.0, out=m)
    xi1, delta1, xi2, delta2 = _residual_planes(planes[:2], indices, ratios)
    return [
        a.ravel().tolist()
        for a in (radius, xi1, delta1, np.conj(delta1), xi2, delta2, np.conj(delta2))
    ]


def _residual_planes(planes: np.ndarray, indices: np.ndarray, ratios: np.ndarray) -> tuple:
    """``build_residuals`` over a frame, byte for byte, for given decisions.

    ``planes`` stacks ``low`` and ``image``, and ``indices`` the two
    decisions of every observation, shape (2, block pair, pair), which pick
    ``u1`` and ``u2`` from ``ratios``.  numpy's complex product rounds
    differently from CPython's in the last bit, so each product is written
    as CPython forms it, ``(xr*yr - xi*yi, xr*yi + xi*yr)``; complex sums
    and negation are exact componentwise either way.  Returns ``(xi1,
    delta1, xi2, delta2)``.
    """
    u1, u2 = ratios[indices]
    k_a, k_b = planes[:, 0:-2:2], planes[:, 1:-2:2]
    # z_k.a * u1, z_k.a * u2, z_k.b * conj(u2) and z_k.b * conj(u1), for the
    # raw and the image values alike
    x = np.stack((k_a, k_a, k_b, k_b))
    y = np.stack((u1, u2, np.conj(u2), np.conj(u1)))[:, None]
    products = np.empty(x.shape, dtype=np.complex128)
    products.real = x.real * y.real - x.imag * y.imag
    products.imag = x.real * y.imag + x.imag * y.real
    ka_u1, ka_u2, kb_cu2, kb_cu1 = products
    first = planes[:, 2::2] - (ka_u1 - kb_cu2)
    second = -(planes[:, 3::2] - (ka_u2 + kb_cu1))
    return first[0], first[1], second[0], second[1]


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
