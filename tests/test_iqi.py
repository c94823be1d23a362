"""Unit tests for the receiver I/Q imbalance model."""
import math

import numpy as np
import pytest

from dstbc_ofdm import apply_rx_iqi, derive_iqi_params, pair_bins
from dstbc_ofdm.ofdm import pair_image


def test_reference_point_two_db_eight_deg():
    p = derive_iqi_params(2.0, 8.0)
    assert p.alpha == pytest.approx(1.1233368181 - 0.0876042767j, abs=1e-9)
    assert p.beta == pytest.approx(-0.1233368181 - 0.0876042767j, abs=1e-9)
    assert p.rho == pytest.approx(0.0180270944, abs=1e-9)
    assert p.irr_db == pytest.approx(17.4407426819, abs=1e-8)
    assert p.beta != 0


def test_gain_only_imbalance():
    p = derive_iqi_params(2.0, 0.0)
    g = 10.0 ** (2.0 / 20.0)
    assert p.alpha == pytest.approx((1 + g) / 2, abs=1e-12)
    assert p.beta == pytest.approx((1 - g) / 2, abs=1e-12)
    assert p.irr_db == pytest.approx(-10 * math.log10(((1 - g) / (1 + g)) ** 2), abs=1e-9)


def test_ideal_receiver():
    p = derive_iqi_params(0.0, 0.0)
    assert p.alpha == 1.0
    assert p.beta == 0.0
    assert p.rho == 0.0
    assert math.isinf(p.irr_db)


def test_conjugate_symmetry():
    # alpha and beta always satisfy alpha + conj(beta) = 1
    for kappa, phi in [(0.5, 2.0), (3.0, -7.5), (-1.0, 12.0)]:
        p = derive_iqi_params(kappa, phi)
        assert p.alpha + np.conj(p.beta) == pytest.approx(1.0, abs=1e-12)


def test_degenerate_branch_rejected():
    # g = 1 with 180 degree phase drives alpha to zero
    with pytest.raises(ValueError):
        derive_iqi_params(0.0, 180.0)


@pytest.mark.parametrize("kappa_db", [4000.0, 7000.0])
def test_overflowing_gain_is_a_value_error(kappa_db):
    # at 7000 dB 10**(kappa_db/20) overflows a float; at 4000 dB g is finite
    # but |beta|**2 overflows: both are named here, not a bare OverflowError
    message = rf"^kappa_db {kappa_db:g} dB overflows the imbalance coefficients$"
    with pytest.raises(ValueError, match=message):
        derive_iqi_params(kappa_db, 0.0)


def test_irr_decreases_with_phase():
    irrs = [derive_iqi_params(0.0, phi).irr_db for phi in (1.0, 4.0, 8.0, 15.0)]
    assert all(a > b for a, b in zip(irrs[:-1], irrs[1:]))


def test_apply_matches_widely_linear_form(rng):
    # on pair-order spectra it is the DFT of alpha*y + beta*conj(y) at the
    # pair bins: the lower members of the (k, N-k) pairs, then their mirrors
    p = derive_iqi_params(2.0, 8.0)
    n = 256
    bins = pair_bins(n)
    y = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    spectra = np.fft.fft(y, norm="ortho")
    expected = np.fft.fft(p.alpha * y + p.beta * np.conj(y), norm="ortho")[:, bins]
    np.testing.assert_allclose(apply_rx_iqi(spectra[:, bins], p), expected, atol=1e-14)


def test_apply_ideal_is_identity(rng):
    p = derive_iqi_params(0.0, 0.0)
    assert (p.alpha, p.beta) == (1.0, 0.0)
    y = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    np.testing.assert_array_equal(apply_rx_iqi(y, p), y)
    # the stage is skipped: the input comes back, and the product form it
    # skips gives the same bytes on finite non-zero components
    assert apply_rx_iqi(y, p) is y
    image = pair_image(y)
    assert (p.alpha * y + p.beta * image).tobytes() == y.tobytes()
    assert apply_rx_iqi(y, derive_iqi_params(0.0, 1.0)) is not y


def test_apply_preserves_shape(rng):
    p = derive_iqi_params(1.0, 3.0)
    y = rng.standard_normal((5, 16)) + 1j * rng.standard_normal((5, 16))
    assert apply_rx_iqi(y, p).shape == (5, 16)
