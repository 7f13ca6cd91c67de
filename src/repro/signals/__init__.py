"""Acoustic signal generation and processing.

This subpackage implements the physical-layer building blocks of the
system: Zadoff-Chu sequences, the ZC-modulated OFDM ranging preamble,
cross-correlation, the channel noise floor, and the chirp / FMCW
waveforms used by the BeepBeep and CAT baselines.  The receiver's
batched kernels (stacked correlation, the segment auto-correlation
gate, peak scans) are in :mod:`repro.signals.batchcorr`; least-squares
channel estimation is in :mod:`repro.ranging.batch`.
"""

from repro.signals.zc import zadoff_chu
from repro.signals.ofdm import (
    OfdmConfig,
    band_bins,
    modulate_symbol,
    ofdm_symbol_from_zc,
)
from repro.signals.preamble import (
    PreambleConfig,
    Preamble,
    make_preamble,
)
from repro.signals.correlation import (
    normalized_cross_correlation,
    cross_correlate,
)
from repro.signals.peaks import noise_floor
from repro.signals.chirp import linear_chirp
from repro.signals.fmcw import FmcwConfig, fmcw_waveform, dechirp

__all__ = [
    "zadoff_chu",
    "OfdmConfig",
    "band_bins",
    "modulate_symbol",
    "ofdm_symbol_from_zc",
    "PreambleConfig",
    "Preamble",
    "make_preamble",
    "normalized_cross_correlation",
    "cross_correlate",
    "noise_floor",
    "linear_chirp",
    "FmcwConfig",
    "fmcw_waveform",
    "dechirp",
]
