"""OFDM symbol construction for the ranging preamble and modems.

The system transmits real-valued audio, so each OFDM symbol is built by
placing complex values on the in-band FFT bins, mirroring them with
Hermitian symmetry, and taking an inverse FFT. With the paper's
parameters (fs = 44.1 kHz, N_fft = 1920) the bin spacing is about
22.97 Hz and the 1-5 kHz band spans roughly bins 44-217.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import (
    BAND_HIGH_HZ,
    BAND_LOW_HZ,
    CYCLIC_PREFIX_LEN,
    OFDM_SYMBOL_LEN,
    SAMPLE_RATE,
)
from repro.signals.xp import get_context


@dataclass(frozen=True)
class OfdmConfig:
    """Parameters of the audio OFDM physical layer.

    Attributes
    ----------
    sample_rate:
        Audio sampling rate in Hz.
    n_fft:
        FFT size, equal to the OFDM symbol length in samples.
    cp_len:
        Cyclic prefix length in samples.
    band_low_hz / band_high_hz:
        Edges of the usable acoustic band.
    """

    sample_rate: float = SAMPLE_RATE
    n_fft: int = OFDM_SYMBOL_LEN
    cp_len: int = CYCLIC_PREFIX_LEN
    band_low_hz: float = BAND_LOW_HZ
    band_high_hz: float = BAND_HIGH_HZ

    def __post_init__(self):
        if self.n_fft < 2:
            raise ValueError("n_fft must be >= 2")
        if not 0 <= self.cp_len < self.n_fft:
            raise ValueError("cp_len must be in [0, n_fft)")
        if not 0 < self.band_low_hz < self.band_high_hz:
            raise ValueError("band edges must satisfy 0 < low < high")
        if self.band_high_hz >= self.sample_rate / 2:
            raise ValueError("band_high_hz must be below Nyquist")

    @property
    def bin_spacing_hz(self) -> float:
        """Frequency spacing between adjacent FFT bins (Hz)."""
        return self.sample_rate / self.n_fft

    def bin_frequency(self, k) -> np.ndarray:
        """Centre frequency (Hz) of FFT bin(s) ``k``."""
        return np.asarray(k) * self.bin_spacing_hz


def band_bins(config: OfdmConfig) -> np.ndarray:
    """Indices of positive-frequency FFT bins inside the acoustic band."""
    spacing = config.bin_spacing_hz
    low = int(np.ceil(config.band_low_hz / spacing))
    high = int(np.floor(config.band_high_hz / spacing))
    if high < low:
        raise ValueError("band is narrower than one FFT bin")
    return np.arange(low, high + 1)


def modulate_symbol(config: OfdmConfig, bin_values: np.ndarray, add_cp: bool = True) -> np.ndarray:
    """Build one real time-domain OFDM symbol from in-band bin values.

    Parameters
    ----------
    config:
        OFDM parameters.
    bin_values:
        Complex values for the in-band positive-frequency bins, in the
        order returned by :func:`band_bins`.
    add_cp:
        Prepend the cyclic prefix when True.

    Returns
    -------
    numpy.ndarray
        Real waveform of length ``n_fft`` (+ ``cp_len`` if ``add_cp``),
        normalised to unit peak amplitude.
    """
    bins = band_bins(config)
    values = np.asarray(bin_values, dtype=complex)
    if values.shape != bins.shape:
        raise ValueError(
            f"expected {bins.size} bin values for this band, got {values.size}"
        )
    spectrum = np.zeros(config.n_fft, dtype=complex)
    spectrum[bins] = values
    # Hermitian symmetry so the IFFT is real valued.
    spectrum[-bins] = np.conj(values)
    waveform = get_context().ifft(spectrum).real
    peak = np.max(np.abs(waveform))
    if peak > 0:
        waveform = waveform / peak
    if add_cp and config.cp_len:
        waveform = np.concatenate([waveform[-config.cp_len :], waveform])
    return waveform


def ofdm_symbol_from_zc(
    config: OfdmConfig, root: int = 1, add_cp: bool = True
) -> np.ndarray:
    """One ZC-modulated OFDM symbol (the paper's preamble building block)."""
    from repro.signals.zc import zadoff_chu

    bins = band_bins(config)
    zc = zadoff_chu(len(bins), root=root)
    return modulate_symbol(config, zc, add_cp=add_cp)

