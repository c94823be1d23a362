"""Differential Alamouti STBC-OFDM link simulator with receiver I/Q imbalance.

Modules
-------
numerics     PSK constellations, Gray labels, unitary DFT helpers.
stbc         2x2 Alamouti algebra, differential encoding and ML detection.
channel      Tapped-delay-line profiles and Jakes-spectrum Rayleigh fading.
ofdm         Subcarrier layout and cyclic-prefix modem.
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
    freq_response,
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
    dft,
    dft_matrix,
    gray_decode,
    gray_encode,
    idft,
    indices_to_bits,
    nearest_psk_indices,
    psk_constellation,
    psk_demodulate,
    psk_modulate,
)
from .ofdm import (
    OfdmConfig,
    mirror_index,
    ofdm_demodulate,
    ofdm_modulate,
)
from .stbc import (
    AlamoutiMatrix,
    alamouti_encode,
    coherent_detect,
    differential_encode,
    ml_differential_detect,
)

__version__ = "0.1.0"

__all__ = [
    "AlamoutiMatrix",
    "BerRecord",
    "ChannelProfile",
    "CompensatorState",
    "ConfigError",
    "FadingRealization",
    "IqiParams",
    "JakesFadingProcess",
    "OfdmConfig",
    "PskConstellation",
    "SimConfig",
    "alamouti_encode",
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
    "dft",
    "dft_matrix",
    "differential_encode",
    "equivalent_snr",
    "f44_pdf",
    "floor_onset_and_ideal_snr",
    "freq_response",
    "gamma_true",
    "gray_decode",
    "gray_encode",
    "idft",
    "indices_to_bits",
    "lms_step",
    "load_profile",
    "mirror_index",
    "ml_differential_detect",
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
