"""Preamble detection: cross-correlation gated by auto-correlation.

Coarse synchronisation (paper section 2.2.1) proceeds in two steps:

1. normalised cross-correlation of the microphone stream against the
   known preamble waveform flags candidate positions, but impulsive
   noise produces tall false peaks at low SNR;
2. each candidate is verified with the segment auto-correlation of the
   PN-signed 4-symbol structure, thresholded at 0.35 — spiky noise
   almost never replicates the same multipath-filtered waveform four
   times with the right sign pattern.

:func:`repro.ranging.batch.detect_preamble_batch` runs both steps over
many streams at once; this module holds its configuration and result
types.  A window-based power-threshold detector (``TH_SD`` of
BeepBeep/FMCW systems) is included as the baseline for the paper's
Fig. 12a comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.constants import AUTOCORR_THRESHOLD


@dataclass(frozen=True)
class DetectionConfig:
    """Detector thresholds.

    Attributes
    ----------
    xcorr_threshold:
        Minimum normalised cross-correlation for a candidate.
    autocorr_threshold:
        Minimum segment auto-correlation for acceptance (paper: 0.35).
    max_candidates:
        Limit on cross-correlation candidates examined per stream.
    early_peak_ratio:
        Among accepted candidates, prefer the earliest whose score is at
        least this fraction of the best accepted score.
    """

    xcorr_threshold: float = 0.08
    autocorr_threshold: float = AUTOCORR_THRESHOLD
    max_candidates: int = 32
    early_peak_ratio: float = 0.6


@dataclass(frozen=True)
class Detection:
    """A detected preamble.

    Attributes
    ----------
    start_index:
        Sample index of the preamble start in the stream.
    xcorr_score / autocorr_score:
        The statistics that admitted this detection.
    """

    start_index: int
    xcorr_score: float
    autocorr_score: float


def detect_power_threshold(
    stream: np.ndarray,
    threshold_db: float = 3.0,
    window: int = 256,
    noise_window: int = 4096,
) -> Optional[int]:
    """Window-based power-threshold detector (the FMCW baseline's TH_SD).

    Flags the first sample where the short-window power exceeds the
    trailing noise estimate by ``threshold_db``. Sensitive to impulsive
    noise by construction — that is the comparison point of Fig. 12a.
    """
    x = np.asarray(stream, dtype=float)
    if x.size < noise_window + window:
        return None
    power = np.convolve(x**2, np.ones(window) / window, mode="valid")
    # Noise floor from the stream head (assumed signal-free warm-up).
    noise = float(np.mean(power[: noise_window - window + 1]))
    if noise <= 0:
        noise = 1e-12
    ratio_db = 10.0 * np.log10(np.maximum(power, 1e-20) / noise)
    hits = np.nonzero(ratio_db[noise_window:] > threshold_db)[0]
    if hits.size == 0:
        return None
    return int(hits[0] + noise_window)
