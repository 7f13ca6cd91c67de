"""Linear chirp generation (BeepBeep-style baseline waveform).

The paper compares its preamble against the linear chirp used by
BeepBeep [Peng et al. 2007]. For a fair comparison the chirp spans the
same band and duration as the OFDM preamble.
"""

from __future__ import annotations

import numpy as np

# scipy.signal is imported by the functions that call it, so importing
# this module does not load it (DESIGN.md §11, import budget).


def linear_chirp(
    duration_s: float,
    f_start_hz: float,
    f_end_hz: float,
    sample_rate: float,
    window: str | None = "hann",
    amplitude: float = 1.0,
) -> np.ndarray:
    """Real linear chirp sweeping ``f_start_hz`` to ``f_end_hz``.

    Parameters
    ----------
    duration_s:
        Chirp duration in seconds.
    f_start_hz / f_end_hz:
        Sweep edges in Hz (must be below Nyquist).
    sample_rate:
        Sampling rate in Hz.
    window:
        Optional taper applied to reduce spectral splatter. ``None``
        disables it.
    amplitude:
        Peak amplitude of the output.
    """
    from scipy import signal as sp_signal

    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    nyquist = sample_rate / 2
    if not (0 < f_start_hz < nyquist and 0 < f_end_hz < nyquist):
        raise ValueError("chirp band edges must be inside (0, Nyquist)")
    n = int(round(duration_s * sample_rate))
    t = np.arange(n) / sample_rate
    wave = sp_signal.chirp(t, f0=f_start_hz, t1=duration_s, f1=f_end_hz, method="linear")
    if window is not None:
        wave = wave * sp_signal.get_window(window, n)
    peak = np.max(np.abs(wave))
    if peak > 0:
        wave = wave * (amplitude / peak)
    return wave
