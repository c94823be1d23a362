"""Differential Alamouti STBC-OFDM link simulator with receiver I/Q imbalance.

Modules
-------
numerics     PSK constellations, Gray labels and the PSK decision rule.
stbc         Differential Alamouti encoding and ML detection on top rows.
channel      Tapped-delay-line profiles, Jakes fading, subcarrier gains.
ofdm         Subcarrier layout and the unitary cyclic-prefix modem.
iqi          Receiver I/Q imbalance parameters and distortion.
compensator  Decision-directed LMS image-leakage compensation.
analysis     SINR, error floors and closed-form BER approximations.
harness      End-to-end frame simulation, sweeps and CSV export.
"""
from .analysis import (
    ber_closed_form,
    ber_floor,
    equivalent_snr,
    f44_pdf,
    floor_onset_and_ideal_snr,
    sinr_coherent,
    sinr_differential,
    sinr_differential_asymptotic,
)
from .channel import (
    ChannelProfile,
    FadingRealization,
    JakesFadingProcess,
    custom_profile,
    load_profile,
    realize_fading,
    subcarrier_gains,
)
from .compensator import (
    CompensatorState,
    build_residuals,
    compensate_observation,
    decision_directed_pass,
    gamma_true,
    lms_step,
    save_gamma_trajectory,
)
from .harness import (
    BerRecord,
    ConfigError,
    SimConfig,
    run_point,
    run_point_with_trace,
    run_sweep,
    write_records_csv,
)
from .iqi import IqiParams, apply_rx_iqi, derive_iqi_params
from .numerics import (
    PskConstellation,
    bits_to_indices,
    gray_decode,
    gray_encode,
    indices_to_bits,
    nearest_psk_indices,
    psk_constellation,
    psk_demodulate,
    psk_modulate,
)
from .ofdm import active_indices, mirror_permutation, ofdm_demodulate, ofdm_modulate
from .stbc import (
    coherent_detect,
    differential_detect,
    differential_encode,
    ml_differential_detect_indices,
)

__version__ = "0.1.0"

__all__ = [
    "BerRecord",
    "ChannelProfile",
    "CompensatorState",
    "ConfigError",
    "FadingRealization",
    "IqiParams",
    "JakesFadingProcess",
    "PskConstellation",
    "SimConfig",
    "active_indices",
    "apply_rx_iqi",
    "ber_closed_form",
    "ber_floor",
    "bits_to_indices",
    "build_residuals",
    "coherent_detect",
    "compensate_observation",
    "custom_profile",
    "decision_directed_pass",
    "derive_iqi_params",
    "differential_detect",
    "differential_encode",
    "equivalent_snr",
    "f44_pdf",
    "floor_onset_and_ideal_snr",
    "gamma_true",
    "gray_decode",
    "gray_encode",
    "indices_to_bits",
    "lms_step",
    "load_profile",
    "mirror_permutation",
    "ml_differential_detect_indices",
    "nearest_psk_indices",
    "ofdm_demodulate",
    "ofdm_modulate",
    "psk_constellation",
    "psk_demodulate",
    "psk_modulate",
    "realize_fading",
    "run_point",
    "run_point_with_trace",
    "run_sweep",
    "save_gamma_trajectory",
    "sinr_coherent",
    "sinr_differential",
    "sinr_differential_asymptotic",
    "subcarrier_gains",
    "write_records_csv",
]
