"""Shared helpers for the test suite."""
from __future__ import annotations

import importlib
import math
import os
import sys

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


def bits_to_indices(bits, order):
    """Map a flat 0/1 array (length multiple of log2(M)) to phase indices, MSB first."""
    from dstbc_ofdm import psk_constellation

    const = psk_constellation(order)
    bps = const.bits_per_symbol
    bits = np.asarray(bits)
    if bits.size % bps != 0:
        raise ValueError(f"bit count {bits.size} is not a multiple of {bps}")
    if bits.size and (bits.min() < 0 or bits.max() > 1):
        raise ValueError("bits must be 0 or 1")
    weights = 1 << np.arange(bps - 1, -1, -1)
    values = bits.reshape(-1, bps).astype(np.int64) @ weights
    # the index that carries each label: the inverse of bits_of_index
    return np.argsort(const.bits_of_index)[values]


def indices_to_bits(indices, order):
    """The MSB-first bit stream carried by PSK phase indices."""
    from dstbc_ofdm import psk_constellation

    const = psk_constellation(order)
    values = const.bits_of_index[np.asarray(indices, dtype=np.int64)]
    shifts = np.arange(const.bits_per_symbol - 1, -1, -1)
    return ((values[..., None] >> shifts) & 1).astype(np.int8).reshape(-1)


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


def as_planes(observations):
    """``(low, image)`` arrays of one block pair, one pair per 8-tuple observation."""
    values = np.array(observations, dtype=np.complex128).T
    return values[:4], values[4:]


def pair_decisions(low, image, gamma, trajectory, order):
    """``(i1, i2, m1, m2)`` of every observation of a pass, one row each.

    ``low``, ``image``, the input ``gamma`` and the returned ``trajectory``
    are those of one ``decision_directed_pass`` call; ``detect_pairs``
    decides each observation at the gamma it saw.
    """
    from dstbc_ofdm import detect_pairs

    pairs = low.shape[-1]
    values = np.concatenate([low, np.conj(image)], axis=-1)
    seen = np.concatenate([[gamma], trajectory[1:-1:2]]).reshape(-1, pairs)
    det1, det2 = detect_pairs(values, seen, order)
    desired, mirror = np.s_[:, :pairs], np.s_[:, pairs:]
    columns = (det1[desired], det2[desired], det1[mirror], det2[mirror])
    return np.stack(columns, axis=-1).reshape(-1, 4)


def count_package_calls(monkeypatch, targets):
    """Call counts of every ``(module, function)`` target, however the caller binds it.

    Every package binding of each target is swapped, as perfbench's tracer
    does, so a function bound at import time under another name is counted
    too.  The counts are keyed by function name.
    """
    calls = {}
    for module, name in targets:
        original = getattr(importlib.import_module(f"dstbc_ofdm.{module}"), name)
        calls[name] = 0

        def counted(*args, _fn=original, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "dstbc_ofdm" or mod_name.startswith("dstbc_ofdm."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, counted)
    return calls


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
