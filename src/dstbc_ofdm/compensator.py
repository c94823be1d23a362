"""Decision-directed image-leakage compensation.

A single complex coefficient ``gamma`` undoes the imbalance with its own
widely-linear structure, ``Zhat = Z' + gamma * ofdm.pair_image(Z')`` at both
members of every (k, mirror) pair.  With ``gamma = -beta / conj(alpha)`` the
image leakage cancels exactly and both compensated subcarriers again
satisfy the differential relation, so the running coefficient can be
adapted from decision-directed residuals with scalar LMS steps; one shared
gamma serves every subcarrier pair and is the compensator's whole state.
"""
from __future__ import annotations

from itertools import repeat

import numpy as np

from .iqi import IqiParams
from .numerics import PskConstellation, psk_decisions_with_margin, split_factor, split_product
from .ofdm import pair_image
from .stbc import INFO_SCALE, alamouti_detect, alamouti_statistics, ml_differential_detect_indices


def gamma_true(params: IqiParams) -> complex:
    """Coefficient that exactly nulls the image leakage: -beta / conj(alpha)."""
    return -params.beta / np.conj(params.alpha)


def compensate_observation(planes: tuple, gamma) -> tuple:
    """``Z + gamma*ofdm.pair_image(Z)`` on each pair-order plane, shape (..., 2 * pair).

    ``gamma`` is a scalar or one value per observation, shape (..., pair),
    which serves both members of its pair.
    """
    if np.ndim(gamma):
        gamma = np.tile(gamma, 2)
    result = []
    for plane in planes:
        # bound to a name, as in stbc.alamouti_statistics, so that numpy never
        # multiplies into it in place: 14 frames' planes exceed 256 KiB
        image = pair_image(plane)
        result.append(plane + gamma * image)
    return tuple(result)


def build_residuals(
    values: tuple,
    u1: complex,
    u2: complex,
) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    """Scalar LMS sample pairs from the raw (uncompensated) observation.

    ``values`` is the 8-tuple ``(z_k.a, z_k.b, z_next.a, z_next.b, zbar_k.a,
    zbar_k.b, zbar_next.a, zbar_next.b)`` of the Alamouti top rows of blocks
    k and k+1 at the desired subcarrier and of the elementwise-conjugated
    image subcarrier.  ``(u1, u2)`` is the top row of the block-to-block
    ratio actually transmitted (the detected info matrix including any
    unitarity scaling).  With ``Xi = Z'_next - Z'_k @ U`` and ``Delta =
    Zbar'_next - Zbar'_k @ U`` the two usable equations linear in gamma are
    the (1,1) entries and the conjugated (2,1) entries: ``(Xi[0,0],
    Delta[0,0])`` and ``(conj(Xi[1,0]), conj(Delta[1,0]))``.
    """
    zk_a, zk_b, zn_a, zn_b, bk_a, bk_b, bn_a, bn_b = values
    u1_c = u1.conjugate()
    u2_c = u2.conjugate()
    return (
        (zn_a - (zk_a * u1 - zk_b * u2_c), bn_a - (bk_a * u1 - bk_b * u2_c)),
        (-(zn_b - (zk_a * u2 + zk_b * u1_c)), -(bn_b - (bk_a * u2 + bk_b * u1_c))),
    )


def lms_step(gamma: complex, step_size: complex, xi: complex, delta: complex) -> complex:
    """One stochastic-gradient descent step on |xi + gamma*delta|^2."""
    return gamma - step_size * (xi + gamma * delta) * delta.conjugate()


# Rounding allowance of a certified decision, as a multiple of U_k * U_n (see
# ``_anchor``).  The roundings it covers add up to less than 200 * 2**-53
# times U_k * U_n; 2**-40 is 8192 * 2**-53.
_ROUNDING_BOUND = 2.0**-40

# Block pairs a pass from gamma = 0 runs uncertified before it anchors.  gamma
# settles within about 1 / (step_size * E|delta|**2), some 80 updates at the
# default step size, so decisions anchored at 0 hold for few observations.
# On 9-frame lms_compensation.cfg points (medians of seeds 0-5) 3 cut the
# fallbacks, warm-up included, at 30 dB from 535 to 142 and at 20 dB from 930
# to 653; 1 left 857 at 20 dB, 9 left 280 at 30 dB, 2 left 212 at 30 dB and
# 4 was close (636 and 150).
_WARM_UP_BLOCK_PAIRS = 3


def decision_directed_pass(
    low: np.ndarray,
    image: np.ndarray,
    gamma: complex,
    step_size: float,
    constellation: PskConstellation,
) -> np.ndarray:
    """Adapt gamma across a chunk of frames of pair observations, decision-directed.

    ``low`` holds the received values at the lower-index member of each
    active (k, mirror) pair and ``image`` the conjugated values at its
    mirror, both of shape (..., OFDM symbol, pair): leading axes are frames,
    so a 2-D frame is a chunk of one.  Symbols 2k and 2k+1 carry block k.
    Observations run frame after frame, in each pair after pair in ascending
    order, block pair after block pair, each in the layout of
    ``build_residuals``; gamma carries over from one frame to the next.
    Gamma depends only on the desired-subcarrier decisions, so per
    observation the loop compensates the desired values with the current
    gamma, detects their info matrix and runs two LMS updates from the
    decision-directed residuals.  Detection of the frames' bits is left to
    ``detect_pairs``.

    The decisions are taken at an anchor gamma ``g0`` (``_anchor``), with a
    radius per observation within which they provably do not change.  An
    observation whose gamma lies inside its radius takes the anchor's
    residuals and runs only the two LMS steps; any other runs the full
    per-observation body.  Both give the same gamma, byte for byte, whatever
    ``g0`` is.  The first frame is anchored at the input gamma, unless that
    is 0: gamma is then still converging, so its first
    ``_WARM_UP_BLOCK_PAIRS`` block pairs run the full body and the rest of
    the frame is anchored at the gamma they reach.  All later frames are
    anchored together, at the gamma the first frame ended with.

    Returns the gamma value after every update, two per observation; the
    last entry is the final gamma.  Observation i saw the input gamma for
    i = 0 and entry 2i - 1 after it.
    """
    order = constellation.order
    # the block-to-block ratio is the transmitted, scaled info matrix
    ratios = constellation.points * INFO_SCALE
    ratio_list = ratios.tolist()
    gamma = complex(gamma)
    # every step, inline or lms_step, multiplies by this complex, so the bytes
    # do not depend on how an interpreter multiplies a float by a complex
    mu = complex(step_size)
    # local names for the kernels, looked up once per pass, not per observation
    detect = ml_differential_detect_indices
    residuals = build_residuals
    step = lms_step
    n_sym, n_pairs = low.shape[-2:]
    low = low.reshape(-1, n_sym, n_pairs)
    image = image.reshape(-1, n_sym, n_pairs)
    n_frames = low.shape[0]
    n_blocks = n_sym // 2 - 1
    warm = min(_WARM_UP_BLOCK_PAIRS, n_blocks) if gamma == 0 else 0
    g0 = gamma
    rows_frame = -1
    trajectory: list[complex] = []
    append = trajectory.append
    # the first frame's warm-up head, the rest of the first frame, then every
    # later frame, anchored together; any may hold no block pair
    for frames, first, last, anchored in (
        (range(1), 0, warm, False),
        (range(1), warm, n_blocks, True),
        (range(1, n_frames), 0, n_blocks, True),
    ):
        if not frames or first == last:
            continue
        if anchored:
            g0 = gamma
            block_pairs = np.s_[frames.start : frames.stop, 2 * first :]
            certified = _anchor(low[block_pairs], image[block_pairs], g0, ratios)
        for f in frames:
            if anchored:
                # Python lists of one frame at a time, which keep the peak small
                certificate = zip(*[a[f - frames.start].tolist() for a in certified])
            else:
                # a radius of 0 certifies nothing: the head falls back throughout
                certificate = repeat((0.0,) * 7, warm * n_pairs)
            offset = f * n_blocks * n_pairs
            for r, a1, d1, c1, a2, d2, c2 in certificate:
                if abs(gamma - g0) < r:
                    # lms_step's expression, twice, on the anchor decision's residuals
                    gamma = gamma - mu * (a1 + gamma * d1) * c1
                    append(gamma)
                    gamma = gamma - mu * (a2 + gamma * d2) * c2
                    append(gamma)
                    continue
                if rows_frame != f:
                    low_rows, image_rows = low[f].tolist(), image[f].tolist()
                    rows_frame = f
                k, p = divmod((len(trajectory) >> 1) - offset, n_pairs)
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
                gamma = step(gamma, mu, xi1, delta1)
                append(gamma)
                gamma = step(gamma, mu, xi2, delta2)
                append(gamma)
    return np.fromiter(trajectory, np.complex128, len(trajectory))


def _anchor(low: np.ndarray, image: np.ndarray, g0: complex, ratios: np.ndarray) -> list[np.ndarray]:
    """Certified radii and residual pairs of frames' decisions at ``g0``.

    ``low`` and ``image`` have shape (..., OFDM symbol, pair), leading axes
    frames.  Returns the arrays ``radius, xi1, delta1, conj(delta1), xi2,
    delta2, conj(delta2)``, each of shape (..., observation), in
    observation order.  At any gamma with ``|gamma - g0| < radius`` the
    scalar detector makes the decisions made here, so ``build_residuals``
    would return these residual pairs; a radius that is not positive, or
    NaN, certifies nothing.

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
    planes = np.empty((3,) + low.shape, dtype=np.complex128)
    planes[0] = low
    planes[1] = image
    # a non-finite g0 or overflowing magnitudes give NaN or negative radii
    with np.errstate(all="ignore"):
        np.multiply(image, g0, out=planes[2])
        planes[2] += low
        # |a| + |b| per block: raw desired (Z), image (B), compensated (C)
        mag = np.abs(planes)
        z, b, c = mag[..., 0::2, :] + mag[..., 1::2, :]
        s = c[..., :-1, :] * b[..., 1:, :]
        s += b[..., :-1, :] * c[..., 1:, :]
        r4 = b[..., :-1, :] * b[..., 1:, :]
        r4 *= 4.0
        u = b * (abs(g0) + 1.0)
        u += z
        allowance = u[..., :-1, :] * u[..., 1:, :]
        allowance *= _ROUNDING_BOUND
        # both decision statistics of every observation, block k the reference
        ca, cb = planes[2, ..., 0::2, :], planes[2, ..., 1::2, :]
        reference, current = np.s_[..., :-1, :], np.s_[..., 1:, :]
        stat = np.stack(alamouti_statistics(ca[reference], cb[reference], ca[current], cb[current]))
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
    observations = low.shape[:-2] + (-1,)
    return [
        a.reshape(observations)
        for a in (radius, xi1, delta1, np.conj(delta1), xi2, delta2, np.conj(delta2))
    ]


def _residual_planes(planes: np.ndarray, indices: np.ndarray, ratios: np.ndarray) -> tuple:
    """``build_residuals`` over frames, byte for byte, for given decisions.

    ``planes`` stacks ``low`` and ``image``, shape (2, ..., OFDM symbol,
    pair), and ``indices`` the two decisions of every observation, shape
    (2, ..., block pair, pair), which pick ``u1`` and ``u2`` from
    ``ratios``.  numpy's complex product rounds differently from CPython's
    in the last bit, so each product is ``numerics.split_product``, which
    forms it as CPython does; complex sums and negation are exact
    componentwise either way.  Non-finite values can make a split product
    NaN where CPython's is not, but they also leave a radius that certifies
    nothing (NaN or negative), so their observations fall back to
    ``build_residuals``.  Returns ``(xi1, delta1, xi2, delta2)``.
    """
    # the ratios split, and their conjugates (conjugation flips each zero
    # with the part it stands in for); each product gathers its own u1 or u2,
    # so at most one gathered factor is alive at a time.  take gathers
    # several times faster than [:, indices], numpy's general path for an
    # index array after a slice.
    parts = split_factor(ratios)
    conj_parts = np.conj(parts)
    i1, i2 = indices
    k_a, k_b = planes[..., 0:-2:2, :], planes[..., 1:-2:2, :]
    # z_k.a * u1 - z_k.b * conj(u2) and z_k.a * u2 + z_k.b * conj(u1), for
    # the raw and the image values alike
    first = planes[..., 2::2, :] - (
        split_product(k_a, parts.take(i1, axis=1)) - split_product(k_b, conj_parts.take(i2, axis=1))
    )
    second = -(planes[..., 3::2, :] - (
        split_product(k_a, parts.take(i2, axis=1)) + split_product(k_b, conj_parts.take(i1, axis=1))
    ))
    return first[0], first[1], second[0], second[1]


def detect_pairs(values: np.ndarray, gamma, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Differential decisions at both members of every (k, mirror) pair.

    ``values`` holds spectra in pair order, shape (..., OFDM symbol, 2 *
    pair).  Unless ``gamma`` is None, the block planes are first compensated
    with it, a scalar or one value per observation, shape (..., block pair,
    pair); a compensated mirror ``m + gamma*conj(z)`` is in the direct
    differential form too, so one detector call decides both members.
    Returns the two symbol indices of each (block pair, pair member).
    """
    za = values[..., 0::2, :]
    zb = values[..., 1::2, :]
    planes = (za[..., :-1, :], zb[..., :-1, :], za[..., 1:, :], zb[..., 1:, :])
    if gamma is not None:
        planes = compensate_observation(planes, gamma)
    return alamouti_detect(*planes, order)
