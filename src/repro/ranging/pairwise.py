"""The arrival estimate the receiver pipeline returns.

The receiver (paper section 2.2) glues coarse detection (cross + auto
correlation), LS channel estimation on each microphone and the joint
dual-mic direct-path search together into a sub-sample arrival index
in the microphone stream, which protocol code converts to timestamps.
:class:`repro.ranging.batch.BatchArrivalEstimator` runs it.

Coarse sync can land a few samples early or late relative to the true
preamble start; the circular channel estimate then shows the direct
path near tap 0 — either at small positive taps (late-arriving energy)
or wrapped to the top taps (the detector fired slightly late). The
estimator therefore rotates the CIR by a small wrap margin so both
cases fall into the search window.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ranging.detector import Detection
from repro.ranging.estimator import DirectPathEstimate


@dataclass(frozen=True)
class ArrivalEstimate:
    """Arrival of a preamble at a dual-microphone device.

    Attributes
    ----------
    arrival_index:
        Sub-sample index in the *first* microphone's stream at which the
        direct path arrived.
    detection:
        The coarse detection that anchored the estimate.
    direct_path:
        The joint direct-path solution (taps relative to the coarse
        start, after unwrapping).
    arrival_sign:
        ``sgn(n - m)`` between the two mic taps (flip-vote input).
    """

    arrival_index: float
    detection: Detection
    direct_path: DirectPathEstimate
    arrival_sign: int
