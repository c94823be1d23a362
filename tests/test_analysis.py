"""Unit tests for SINR expressions, the fading power-ratio law and BER models."""
import math
import subprocess
import sys

import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from scipy.special import erfc

from dstbc_ofdm import (
    ber_closed_form,
    ber_floor,
    derive_iqi_params,
    equivalent_snr,
    f44_pdf,
    floor_onset_and_ideal_snr,
    sinr_coherent,
    sinr_differential,
)


def test_f44_pdf_matches_f_distribution():
    x = np.linspace(0.01, 30.0, 200)
    np.testing.assert_allclose(f44_pdf(x), scipy.stats.f(4, 4).pdf(x), atol=1e-12)


def test_f44_pdf_normalization_and_mean():
    total, _ = scipy.integrate.quad(f44_pdf, 0, np.inf)
    assert total == pytest.approx(1.0, rel=1e-8)
    mean, _ = scipy.integrate.quad(lambda x: x * f44_pdf(x), 0, np.inf)
    assert mean == pytest.approx(2.0, rel=1e-6)


def test_f44_pdf_scalar_and_array_forms():
    assert isinstance(f44_pdf(1.0), float)
    assert f44_pdf(1.0) == pytest.approx(6.0 / 16.0, rel=1e-12)
    assert f44_pdf(np.array([1.0, 2.0])).shape == (2,)
    assert f44_pdf(0.0) == 0.0


def test_sinr_differential_expression():
    # lambda^2 / (2*mirror^2*rho + 4*sigma^2)
    assert sinr_differential(4.0, 1.0, 0.01, 0.001) == pytest.approx(
        4.0 / (2 * 0.01 + 4 * 0.001), rel=1e-12
    )


def test_sinr_coherent_is_three_db_better():
    # halved leakage and halved noise double the ratio
    d = sinr_differential(3.0, 2.0, 0.02, 0.005)
    c = sinr_coherent(3.0, 2.0, 0.02, 0.005)
    assert c == pytest.approx(2.0 * d, rel=1e-12)


def test_sinr_asymptote_is_noiseless_limit():
    # without noise only the image leakage remains: 3 / (2 * 2 * 0.02)
    a = sinr_differential(3.0, 2.0, 0.02, 0.0)
    assert a == pytest.approx(37.5, rel=1e-12)
    assert sinr_differential(3.0, 2.0, 0.02, 1e-12) == pytest.approx(a, rel=1e-6)


def test_sinr_rejects_degenerate_denominator():
    with pytest.raises(ValueError):
        sinr_differential(1.0, 1.0, 0.0, 0.0)


def test_ber_floor_vanishes_without_leakage():
    assert ber_floor(8, 0.0) == 0.0


def test_ber_floor_reference_values():
    rho = derive_iqi_params(2.0, 8.0).rho
    assert ber_floor(8, rho) == pytest.approx(0.01617368833, rel=1e-6)
    assert ber_floor(4, rho) == pytest.approx(0.003924314381, rel=1e-6)
    assert ber_floor(2, 0.01) == pytest.approx(0.000793791492, rel=1e-6)


def test_ber_floor_monotone_in_leakage():
    floors = [ber_floor(8, rho) for rho in (0.001, 0.005, 0.02, 0.1)]
    assert all(a < b for a, b in zip(floors[:-1], floors[1:]))


def test_ber_floor_against_monte_carlo():
    # the quadrature must agree with direct sampling of the power ratio law
    rho = 0.0180270944
    rng = np.random.default_rng(77)
    x = scipy.stats.f(4, 4).rvs(size=1_000_000, random_state=rng)
    mc = float(np.mean(erfc(np.sqrt(x / (2 * rho)) * math.sin(math.pi / 8)))) / 3.0
    assert ber_floor(8, rho) == pytest.approx(mc, rel=0.02)


def test_equivalent_snr_limits():
    assert equivalent_snr(100.0, 0.0) == pytest.approx(100.0, rel=1e-12)
    assert equivalent_snr(math.inf, 0.02) == pytest.approx(50.0, rel=1e-12)
    assert equivalent_snr(100.0, 0.01) == pytest.approx(1.0 / (0.01 + 0.01), rel=1e-12)


def test_ber_closed_form_reference_value():
    assert ber_closed_form(8, 100.0) == pytest.approx(0.01080221138, rel=1e-9)


def test_ber_closed_form_decreasing_in_snr():
    values = [ber_closed_form(8, s) for s in (1.0, 10.0, 100.0, 1000.0)]
    assert all(a > b for a, b in zip(values[:-1], values[1:]))
    assert values[0] < 0.2


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ber_floor(8, -0.01), "rho must be non-negative"),
        (lambda: equivalent_snr(0.0, 0.01), "snr_linear must be positive"),
        (lambda: equivalent_snr(-1.0, 0.01), "snr_linear must be positive"),
        (lambda: equivalent_snr(10.0, -0.01), "rho must be non-negative"),
        (lambda: ber_closed_form(8, 0.0), "snr_eq must be positive"),
        (lambda: ber_closed_form(8, -1.0), "snr_eq must be positive"),
    ],
    ids=["floor_rho", "equivalent_zero_snr", "equivalent_negative_snr", "equivalent_rho",
         "closed_form_zero_snr", "closed_form_negative_snr"],
)
def test_models_reject_inputs_outside_their_domain(call, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        call()


def test_floor_onset_offsets():
    onset, ideal = floor_onset_and_ideal_snr(17.44)
    assert onset == pytest.approx(27.44)
    assert ideal == pytest.approx(17.44)


def test_package_import_leaves_scipy_unloaded(package_env):
    code = (
        "import sys, dstbc_ofdm, dstbc_ofdm.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=package_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
