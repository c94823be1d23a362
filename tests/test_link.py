"""The engine's per-bin link equals the time-domain chain on the same draws."""
import math

import numpy as np
import pytest

from dstbc_ofdm import SimConfig, harness

import timechain

LINKS = {
    "itu-pb": dict(channel="itu-pb", doppler_hz=11.6),
    "itu-va": dict(channel="itu-va", doppler_hz=463.0),
    "flat": dict(channel="flat", doppler_hz=30.0),
    # 4000 ns is sample 20 at 5 MHz: the last tap sits exactly at cp_len
    "custom-at-cp": dict(
        channel="custom",
        doppler_hz=50.0,
        custom_delays_ns=(0.0, 1000.0, 4000.0),
        custom_powers_db=(0.0, -3.0, -6.0),
        cp_len=20,
    ),
    "n1024": dict(channel="itu-va", doppler_hz=463.0, n_subcarriers=1024, cp_len=40),
}


def chunk_draws(monkeypatch, engine, n_frames):
    """The fading, transmit symbols, noise and per-bin spectra of one engine chunk."""
    seen = {}
    real_fading = harness.realize_fading
    real_spectra = engine._received_spectra

    def recording_fading(*args, **kwargs):
        seen["fading"] = real_fading(*args, **kwargs)
        return seen["fading"]

    def recording_spectra(tx, gains, noise):
        seen.update(tx=tx, noise=noise, values=real_spectra(tx, gains, noise))
        return seen["values"]

    monkeypatch.setattr(harness, "realize_fading", recording_fading)
    monkeypatch.setattr(engine, "_received_spectra", recording_spectra)
    engine._chunk_errors(n_frames, None, False)
    return seen


@pytest.mark.parametrize("iqi", [(0.0, 0.0), (2.0, 8.0)], ids=["ideal", "iqi"])
@pytest.mark.parametrize("snr_db", [math.inf, 10.0], ids=["noiseless", "noisy"])
@pytest.mark.parametrize("link", sorted(LINKS))
def test_per_bin_link_matches_time_domain_chain(monkeypatch, link, snr_db, iqi):
    cfg = SimConfig(blocks_per_frame=2, iqi_kappa_db=iqi[0], iqi_phi_deg=iqi[1], **LINKS[link])
    engine = harness._PointEngine(cfg, snr_db)
    seen = chunk_draws(monkeypatch, engine, n_frames=3)
    assert (seen["noise"] is None) == math.isinf(snr_db)
    bins = engine.pair_bins
    grid = np.zeros((3, 2, engine.n_symbols, cfg.n_subcarriers), dtype=np.complex128)
    grid[..., bins] = seen["tx"].transpose(0, 2, 1, 3)
    noise = seen["noise"]
    if noise is not None:
        # the per-bin noise, as the time-domain samples whose body it is the DFT of
        noise_grid = np.zeros((3, engine.n_symbols, cfg.n_subcarriers), dtype=np.complex128)
        noise_grid[..., bins] = noise
        noise = timechain.ofdm_modulate(noise_grid, cfg.cp_len).reshape(3, -1)
    expected = timechain.frame_spectra(
        grid, seen["fading"], cfg.cp_len, engine.sigma, engine.iqi, noise
    )[..., bins]
    # a wrong tap, bin, mirror or noise sample moves a bin by about its rms
    # (about 1); rounding in the two chains moves it by about 1e-15
    assert np.sqrt(np.mean(np.abs(expected) ** 2)) > 0.5
    np.testing.assert_allclose(seen["values"], expected, rtol=0, atol=1e-12)
