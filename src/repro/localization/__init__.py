"""Topology-based localization: the paper's core contribution.

Given a (possibly incomplete, possibly outlier-contaminated) matrix of
pairwise distances and per-device depths, recover the 3D positions of
all devices relative to the leader:

1. project distances into the horizontal plane using depths,
2. embed with weighted SMACOF multidimensional scaling,
3. detect and drop outlier links (Algorithm 1),
4. resolve rotational ambiguity from the leader's pointing direction and
   flipping ambiguity from dual-microphone arrival-order votes.
"""

from repro.localization.smacof import SmacofResult, classical_mds, smacof
from repro.localization.projection import project_distances
from repro.localization.rigidity import (
    is_rigid,
    is_redundantly_rigid,
    is_uniquely_realizable,
)
from repro.localization.outliers import OutlierResult, detect_outliers
from repro.localization.ambiguity import (
    resolve_rotation,
    flip_candidates,
    flipping_vote,
    resolve_flipping,
    mic_arrival_sign,
)
from repro.localization.pipeline import LocalizationResult, localize

__all__ = [
    "SmacofResult",
    "classical_mds",
    "smacof",
    "project_distances",
    "is_rigid",
    "is_redundantly_rigid",
    "is_uniquely_realizable",
    "OutlierResult",
    "detect_outliers",
    "resolve_rotation",
    "flip_candidates",
    "flipping_vote",
    "resolve_flipping",
    "mic_arrival_sign",
    "LocalizationResult",
    "localize",
]
