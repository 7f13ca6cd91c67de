"""Pairwise acoustic ranging: detection, direct-path search, baselines.

The receiver runs batched (:mod:`repro.ranging.batch`): one call
detects, channel-estimates and searches any number of dual-mic
receptions.  The per-exchange entry point is
:func:`repro.simulate.one_way_range`, the same engine at K = 1.
"""

from repro.ranging.detector import (
    DetectionConfig,
    Detection,
    detect_power_threshold,
)
from repro.ranging.estimator import DirectPathEstimate
from repro.ranging.baselines import beepbeep_arrival, cat_fmcw_delay
from repro.ranging.pairwise import ArrivalEstimate

__all__ = [
    "DetectionConfig",
    "Detection",
    "detect_power_threshold",
    "DirectPathEstimate",
    "beepbeep_arrival",
    "cat_fmcw_delay",
    "ArrivalEstimate",
]
