"""Differential Alamouti STBC-OFDM link simulator with receiver I/Q imbalance.

Modules
-------
numerics     PSK constellations, Gray labels and the PSK decision rule.
stbc         Alamouti top rows: differential encoding, one ML detector.
channel      Tapped-delay-line profiles, Jakes fading, subcarrier gains.
ofdm         Subcarrier layout: the active bins in (k, mirror) pair order.
iqi          Receiver I/Q imbalance parameters and per-bin distortion.
compensator  Decision-directed LMS image-leakage compensation.
analysis     SINR, error floors and closed-form BER approximations.
harness      Per-bin frame simulation and sweeps.
cli          Command line front end; writes every output file.
"""
from .analysis import (
    ber_closed_form,
    ber_floor,
    equivalent_snr,
    f44_pdf,
    floor_onset_and_ideal_snr,
    sinr_coherent,
    sinr_differential,
)
from .channel import (
    ChannelProfile,
    JakesFadingProcess,
    custom_profile,
    load_profile,
    realize_fading,
    subcarrier_gains,
    tap_grid,
)
from .compensator import (
    build_residuals,
    compensate_observation,
    decision_directed_pass,
    detect_pairs,
    gamma_true,
    lms_step,
)
from .harness import (
    BerRecord,
    ConfigError,
    SimConfig,
    run_point,
    run_point_with_trace,
    run_sweep,
)
from .iqi import IqiParams, apply_rx_iqi, derive_iqi_params
from .numerics import (
    PskConstellation,
    nearest_psk_indices,
    psk_constellation,
)
from .ofdm import pair_bins
from .stbc import alamouti_detect, differential_encode, ml_differential_detect_indices

__version__ = "0.1.0"

__all__ = [
    "BerRecord",
    "ChannelProfile",
    "ConfigError",
    "IqiParams",
    "JakesFadingProcess",
    "PskConstellation",
    "SimConfig",
    "alamouti_detect",
    "apply_rx_iqi",
    "ber_closed_form",
    "ber_floor",
    "build_residuals",
    "compensate_observation",
    "custom_profile",
    "decision_directed_pass",
    "derive_iqi_params",
    "detect_pairs",
    "differential_encode",
    "equivalent_snr",
    "f44_pdf",
    "floor_onset_and_ideal_snr",
    "gamma_true",
    "lms_step",
    "load_profile",
    "ml_differential_detect_indices",
    "nearest_psk_indices",
    "pair_bins",
    "psk_constellation",
    "realize_fading",
    "run_point",
    "run_point_with_trace",
    "run_sweep",
    "sinr_coherent",
    "sinr_differential",
    "subcarrier_gains",
    "tap_grid",
]
