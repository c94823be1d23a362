"""The engine's per-bin link equals the time-domain chain on the same draws,
and one link step on a chunk equals its per-frame steps byte for byte."""
import math

import numpy as np
import pytest

from dstbc_ofdm import SimConfig, harness, psk_constellation, tap_grid

import timechain
from alamouti import AlamoutiMatrix

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
    """The fading taps, symbol indices, noise and per-bin spectra of one engine chunk."""
    seen = {}
    real_fading = harness.realize_fading
    real_draws = engine._draw_indices_and_noise
    real_spectra = engine._received_spectra

    def recording_fading(*args, **kwargs):
        seen["taps"] = real_fading(*args, **kwargs)
        return seen["taps"]

    def recording_draws(n):
        draws = real_draws(n)
        seen.update(zip(("idx1", "idx2", "noise"), draws))
        return draws

    def recording_spectra(*args, **kwargs):
        seen["values"] = real_spectra(*args, **kwargs)
        return seen["values"]

    monkeypatch.setattr(harness, "realize_fading", recording_fading)
    monkeypatch.setattr(engine, "_draw_indices_and_noise", recording_draws)
    monkeypatch.setattr(engine, "_received_spectra", recording_spectra)
    engine._chunk_errors(n_frames)
    return seen


def antenna_grid(idx1, idx2, order, differential):
    """Both antennas' symbols, (frame, antenna, symbol, pair bin), from the block indices.

    Each block is the info matrix of the two indexed points scaled by
    1/sqrt(2), or for differential frames the chain of their products after
    the identity reference.  The matrix ``[[a, b], [-conj(b), conj(a)]]``
    puts its first row on antenna 0 and its second on antenna 1, over the
    block's two symbols.
    """
    points = psk_constellation(order).points / math.sqrt(2.0)
    blocks = [AlamoutiMatrix(points[idx1[:, j]], points[idx2[:, j]]) for j in range(idx1.shape[1])]
    if differential:
        ones = np.ones(idx1[:, 0].shape, dtype=np.complex128)
        chain = [AlamoutiMatrix(ones, 0.0 * ones)]
        for block in blocks:
            chain.append(chain[-1] @ block)
        blocks = chain
    # each matrix is (antenna, symbol, frame, pair bin)
    return np.concatenate([block.matrix for block in blocks], axis=1).transpose(2, 0, 1, 3)


@pytest.mark.parametrize("iqi", [(0.0, 0.0), (2.0, 8.0)], ids=["ideal", "iqi"])
@pytest.mark.parametrize("snr_db", [math.inf, 10.0], ids=["noiseless", "noisy"])
@pytest.mark.parametrize("link", sorted(LINKS))
def test_per_bin_link_matches_time_domain_chain(monkeypatch, link, snr_db, iqi):
    cfg = SimConfig(blocks_per_frame=2, iqi_kappa_db=iqi[0], iqi_phi_deg=iqi[1], **LINKS[link])
    engine = harness._GroupEngine(cfg, [snr_db])
    seen = chunk_draws(monkeypatch, engine, n_frames=3)
    assert (seen["noise"] is None) == math.isinf(snr_db)
    bins = engine.pair_bins
    grid = np.zeros((3, 2, engine.n_symbols, cfg.n_subcarriers), dtype=np.complex128)
    grid[..., bins] = antenna_grid(
        seen["idx1"], seen["idx2"], cfg.psk_order, cfg.detection == "differential"
    )
    noise = seen["noise"]
    if noise is not None:
        # the per-bin noise, as the time-domain samples whose body it is the DFT of
        noise_grid = np.zeros((3, engine.n_symbols, cfg.n_subcarriers), dtype=np.complex128)
        noise_grid[..., bins] = noise
        noise = timechain.ofdm_modulate(noise_grid, cfg.cp_len).reshape(3, -1)
    expected = timechain.frame_spectra(
        grid,
        seen["taps"],
        tap_grid(engine.profile, cfg.sample_period)[0],
        cfg.cp_len,
        engine.receivers[0].sigma,
        engine.iqi,
        noise,
    )[..., bins]
    # a wrong tap, bin, mirror or noise sample moves a bin by about its rms
    # (about 1); rounding in the two chains moves it by about 1e-15
    assert np.sqrt(np.mean(np.abs(expected) ** 2)) > 0.5
    np.testing.assert_allclose(seen["values"], expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("detection", ["differential", "coherent"])
def test_link_step_of_a_large_chunk_equals_its_per_frame_calls(detection):
    # 14 default frames: an antenna's (conjugated) block top rows are 14 x 21
    # x 62 complex values (14 x 20 x 62 coherent), past numpy's 256 KiB size
    # for multiplying into a temporary in place, while one frame's stay below it
    cfg = SimConfig(iqi_kappa_db=2.0, iqi_phi_deg=8.0, detection=detection)
    engine = harness._GroupEngine(cfg, [10.0])
    idx1, idx2, noise = engine._draw_indices_and_noise(14)
    shape = (14, engine.n_symbols, 2, engine.pair_bins.shape[0])
    rng = np.random.default_rng(14)
    gains = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert idx1.size * 16 > 256 * 1024

    def link(frames):
        clean = engine._clean_spectra(idx1[frames], idx2[frames], gains[frames])
        return engine._received_spectra(clean, noise[frames], engine.receivers[0].sigma)

    whole = link(slice(None))
    frames = [link(slice(f, f + 1)) for f in range(14)]
    assert whole.tobytes() == np.concatenate(frames).tobytes()
