"""Linear chirp generation (BeepBeep-style baseline waveform).

The paper compares its preamble against the linear chirp used by
BeepBeep [Peng et al. 2007]. For a fair comparison the chirp spans the
same band and duration as the OFDM preamble.
"""

from __future__ import annotations

import numpy as np

#: Window names :func:`linear_chirp` accepts (``None`` disables the taper).
_WINDOWS = ("hann",)


def _periodic_hann(n: int) -> np.ndarray:
    """``scipy.signal.get_window("hann", n)``, computed the same way.

    scipy builds the periodic (DFT-even) window as a symmetric
    ``n + 1``-point cosine sum over ``linspace(-pi, pi)`` and drops the
    last sample; repeating those steps gives the same bits.
    """
    if n <= 1:
        return np.ones(n)
    fac = np.linspace(-np.pi, np.pi, n + 1)
    w = np.zeros(n + 1)
    for k, a in enumerate((0.5, 0.5)):
        w += a * np.cos(k * fac)
    return w[:-1]


def linear_chirp(
    duration_s: float,
    f_start_hz: float,
    f_end_hz: float,
    sample_rate: float,
    window: str | None = "hann",
    amplitude: float = 1.0,
) -> np.ndarray:
    """Real linear chirp sweeping ``f_start_hz`` to ``f_end_hz``.

    Bit-identical to ``scipy.signal.chirp(t, f0, duration_s, f1,
    method="linear")`` times ``get_window(window, n)``, computed with
    numpy alone (the tests pin the equality).

    Parameters
    ----------
    duration_s:
        Chirp duration in seconds; at least one sample long.
    f_start_hz / f_end_hz:
        Sweep edges in Hz (must be below Nyquist).
    sample_rate:
        Sampling rate in Hz.
    window:
        Optional taper applied to reduce spectral splatter: ``"hann"``
        (periodic), or ``None`` to disable it.
    amplitude:
        Peak amplitude of the output.
    """
    if sample_rate <= 0:
        raise ValueError(f"sample_rate must be positive, got {sample_rate}")
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    if window is not None and window not in _WINDOWS:
        raise ValueError(f"window must be one of {_WINDOWS} or None, got {window!r}")
    nyquist = sample_rate / 2
    if not (0 < f_start_hz < nyquist and 0 < f_end_hz < nyquist):
        raise ValueError("chirp band edges must be inside (0, Nyquist)")
    n = int(round(duration_s * sample_rate))
    if n < 1:
        raise ValueError(
            f"duration_s={duration_s} is shorter than one sample at sample_rate={sample_rate}"
        )
    t = np.arange(n) / sample_rate
    f0 = float(f_start_hz)
    beta = (float(f_end_hz) - f0) / float(duration_s)
    wave = np.cos(2 * np.pi * (f0 * t + 0.5 * beta * t * t))
    if window is not None:
        wave = wave * _periodic_hann(n)
    peak = np.max(np.abs(wave))
    if peak > 0:
        wave = wave * (amplitude / peak)
    return wave
