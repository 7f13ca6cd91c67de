"""The channel noise floor of the direct-path search.

The search's peak scan is
:func:`repro.signals.batchcorr.local_peak_indices_fast`.
"""

from __future__ import annotations

import numpy as np

from repro.constants import NOISE_FLOOR_TAPS


def noise_floor(values: np.ndarray, tail_taps: int = NOISE_FLOOR_TAPS) -> float:
    """Average *magnitude* of the trailing taps: the channel noise level.

    The paper estimates each microphone channel's noise level from the
    last 100 channel taps and describes it as an average power.  This
    implementation deliberately uses the mean **magnitude**
    ``mean(|x|)`` instead of the mean power ``mean(|x|**2)``: the
    estimate is compared (plus ``DIRECT_PATH_MARGIN``) against the
    peak-normalised *magnitude* channel ``|h| / max|h|``, so it must
    live on the amplitude scale — a squared tail of a [0, 1]-normalised
    channel would be quadratically too small and the margin ``lambda``
    would dominate the threshold.  ``DIRECT_PATH_MARGIN`` (0.2) is
    calibrated against this amplitude-scale floor.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("values must be non-empty")
    tail = values[-min(tail_taps, values.size) :]
    return float(np.mean(np.abs(tail)))
