"""Shared helpers for the test suite."""
from __future__ import annotations

import math
import os

import numpy as np
import pytest

from alamouti import AlamoutiMatrix, alamouti_encode


def interpolate_snr_at_ber(snr_db, ber, target):
    """SNR where a monotone-sampled BER curve first crosses ``target``.

    Scans the curve in ascending SNR and log-linearly interpolates inside the
    first bracketing segment.  Raises if the curve never reaches the target.
    """
    pairs = sorted((float(s), float(b)) for s, b in zip(snr_db, ber))
    for (s_lo, b_lo), (s_hi, b_hi) in zip(pairs[:-1], pairs[1:]):
        if b_lo >= target >= b_hi and b_hi > 0:
            if b_lo == b_hi:
                return s_lo
            frac = (math.log(target) - math.log(b_lo)) / (math.log(b_hi) - math.log(b_lo))
            return s_lo + frac * (s_hi - s_lo)
    raise ValueError(f"curve never crosses target BER {target:g}")


def random_unitary_alamouti(rng):
    """Random 2x2 Alamouti matrix with S @ S^H = I."""
    v = rng.standard_normal(4)
    a = v[0] + 1j * v[1]
    b = v[2] + 1j * v[3]
    norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    return AlamoutiMatrix(a / norm, b / norm)


def random_alamouti(rng, scale=1.0):
    v = scale * rng.standard_normal(4)
    return AlamoutiMatrix(v[0] + 1j * v[1], v[2] + 1j * v[3])


def distort_pair(desired, mirror_conj, params):
    """Apply the widely-linear receiver mix to a (desired, conjugated-mirror) pair."""
    a, b = params.alpha, params.beta
    prime = desired.diag_mul(a) + mirror_conj.diag_mul(b)
    mirror_prime = mirror_conj.diag_mul(np.conj(a)) + desired.diag_mul(np.conj(b))
    return prime, mirror_prime


def synthetic_observation(rng, params, order=8, indices=None):
    """Noiseless two-block observation with known channels and info symbols.

    Returns the observation, as the 8-tuple ``(z_k.a, z_k.b, z_next.a,
    z_next.b, zbar_k.a, zbar_k.b, zbar_next.a, zbar_next.b)`` that the
    compensator reads, plus the transmitted block-ratio matrices of the
    desired and mirror subcarriers and the four drawn symbol indices.
    """
    from dstbc_ofdm import psk_constellation

    c = psk_constellation(order)
    if indices is None:
        indices = tuple(int(v) for v in rng.integers(order, size=4))
    i1, i2, m1, m2 = indices
    ratio = alamouti_encode(c.points[i1], c.points[i2]).scaled(1.0 / math.sqrt(2.0))
    mirror_ratio = alamouti_encode(c.points[m1], c.points[m2]).scaled(1.0 / math.sqrt(2.0))

    z_k = random_alamouti(rng) @ random_unitary_alamouti(rng)
    z_next = z_k @ ratio
    mirror_k = random_alamouti(rng) @ random_unitary_alamouti(rng)
    mirror_next = mirror_k @ mirror_ratio
    zbar_k = mirror_k.conjugate()
    zbar_next = mirror_next.conjugate()

    zp_k, zbp_k = distort_pair(z_k, zbar_k, params)
    zp_next, zbp_next = distort_pair(z_next, zbar_next, params)
    obs = (zp_k.a, zp_k.b, zp_next.a, zp_next.b, zbp_k.a, zbp_k.b, zbp_next.a, zbp_next.b)
    return obs, ratio, mirror_ratio, indices


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def package_env():
    """Environment for a child interpreter that imports the package from
    where this process found it, which may be a sys.path entry that pytest
    added rather than PYTHONPATH."""
    import dstbc_ofdm

    src = os.path.dirname(os.path.dirname(os.path.abspath(dstbc_ofdm.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)
