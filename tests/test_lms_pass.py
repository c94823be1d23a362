"""The scalar decision-directed pass against its object-based oracle,
a golden run of the LMS link, the pass's kernel calls and the oracle's
observation packing."""
import importlib
import sys
from importlib import resources

import numpy as np
import pytest

from dstbc_ofdm import (
    SimConfig,
    harness,
    psk_constellation,
    run_point_with_trace,
)
from dstbc_ofdm.cli import load_config_file

import object_pass
from alamouti import AlamoutiMatrix

# 20 blocks x 62 active subcarriers x 2 symbols x 3 bits
FRAME_BITS = 7440
KERNELS = (
    ("stbc", "ml_differential_detect_indices"),
    ("compensator", "compensate_observation"),
    ("compensator", "build_residuals"),
    ("compensator", "lms_step"),
)


def bundled_lms_config(**overrides) -> SimConfig:
    path = resources.files("dstbc_ofdm") / "configs" / "lms_compensation.cfg"
    kwargs = load_config_file(str(path))
    kwargs.update(overrides)
    return SimConfig(**kwargs)


def record_frames(monkeypatch, cfg, snr_db):
    """(observations, input state, pass output) of every frame of one point."""
    frames = []
    real_pass = harness.decision_directed_pass

    def recording(observations, state, constellation):
        observations = list(observations)
        result = real_pass(observations, state, constellation)
        frames.append((observations, state, result))
        return result

    with monkeypatch.context() as patch:
        patch.setattr(harness, "decision_directed_pass", recording)
        harness.run_point(cfg, snr_db)
    return frames


@pytest.mark.parametrize("snr_db", [20.0, 30.0])
def test_scalar_pass_matches_object_oracle(monkeypatch, snr_db):
    cfg = bundled_lms_config(min_bits=8 * FRAME_BITS)
    frames = record_frames(monkeypatch, cfg, snr_db)
    assert len(frames) == 8
    constellation = psk_constellation(cfg.psk_order)
    state = frames[0][1]
    for observations, _, (bits, new_state, trajectory) in frames:
        oracle_stream = [[object_pass.observation_of(v) for v in observations]]
        oracle_bits, state, oracle_trajectory = object_pass.decision_directed_pass(
            oracle_stream, state, constellation
        )
        np.testing.assert_array_equal(bits, oracle_bits)
        assert trajectory.shape == oracle_trajectory.shape == (2 * len(observations),)
        assert np.max(np.abs(trajectory - oracle_trajectory)) <= 1e-12
        assert new_state.updates == state.updates
        assert abs(new_state.gamma - state.gamma) <= 1e-12


@pytest.mark.parametrize(
    "snr_db, bit_errors, gamma_final",
    [
        (15.0, 567, 0.11199284014807243 + 0.06218204738521597j),
        (25.0, 22, 0.1132170323493165 + 0.07286815701081951j),
    ],
)
def test_lms_point_reproduces_golden_record(snr_db, bit_errors, gamma_final):
    # values recorded from the object-based pass before the scalar rewrite
    cfg = SimConfig(
        iqi_kappa_db=2.0,
        iqi_phi_deg=8.0,
        compensation="lms",
        min_bits=20_000,
        blocks_per_frame=10,
        seed=4242,
    )
    record, trace = run_point_with_trace(cfg, snr_db)
    assert record.bits == 22320
    assert record.bit_errors == bit_errors
    assert trace.shape == (3720,)
    assert abs(trace[-1] - gamma_final) <= 1e-12


def test_pass_calls_each_kernel_per_observation(monkeypatch):
    # swap every package binding of each kernel, as perfbench's tracer does,
    # so the count sees calls however the caller looks the kernel up
    calls = {}
    for module, name in KERNELS:
        original = getattr(importlib.import_module(f"dstbc_ofdm.{module}"), name)
        calls[name] = 0

        def counted(*args, _fn=original, _name=name):
            calls[_name] += 1
            return _fn(*args)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "dstbc_ofdm" or mod_name.startswith("dstbc_ofdm."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, counted)
    cfg = SimConfig(
        iqi_kappa_db=2.0, iqi_phi_deg=8.0, compensation="lms", min_bits=1, blocks_per_frame=5
    )
    _, trace = run_point_with_trace(cfg, 25.0)
    observations = 5 * 31
    assert trace.shape == (2 * observations,)
    assert calls == {
        "ml_differential_detect_indices": 2 * observations,
        "compensate_observation": observations,
        "build_residuals": observations,
        "lms_step": 2 * observations,
    }


def test_observation_packing(rng):
    spectra = rng.standard_normal((4, 64)) + 1j * rng.standard_normal((4, 64))
    i, m = 4, 60
    obs = object_pass.build_observation(spectra, i)
    assert obs.subcarrier == i
    assert obs.z_k == AlamoutiMatrix(spectra[0, i], spectra[1, i])
    assert obs.z_next == AlamoutiMatrix(spectra[2, i], spectra[3, i])
    # image entries enter conjugated
    assert obs.zbar_k == AlamoutiMatrix(
        spectra[0, m].conjugate(), spectra[1, m].conjugate()
    )
    assert obs.zbar_next == AlamoutiMatrix(
        spectra[2, m].conjugate(), spectra[3, m].conjugate()
    )
