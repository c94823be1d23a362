"""Differential Alamouti STBC-OFDM link simulator with receiver I/Q imbalance.

Modules
-------
numerics     PSK constellations, Gray labels, the PSK decision rule and
             CPython's complex product on arrays.
stbc         Alamouti top rows: differential encoding, one ML detector.
channel      Tapped-delay-line profiles, Jakes fading, subcarrier gains.
ofdm         Subcarrier layout: (k, mirror) pair order and its image map.
iqi          Receiver I/Q imbalance: alpha*Y + beta*(the pair image of Y).
compensator  Y + gamma*(the pair image of Y), gamma by decision-directed LMS.
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
    load_profile,
    realize_fading,
    subcarrier_gains,
    tap_grid,
)
from .compensator import gamma_true
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
from .ofdm import pair_bins, pair_image
from .stbc import alamouti_detect, differential_encode

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
    "derive_iqi_params",
    "differential_encode",
    "equivalent_snr",
    "f44_pdf",
    "floor_onset_and_ideal_snr",
    "gamma_true",
    "load_profile",
    "nearest_psk_indices",
    "pair_bins",
    "pair_image",
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
