"""Rotation and flipping ambiguity resolution (paper section 2.1.4).

An MDS embedding fixes the network *shape* only: any rotation about the
leader and the mirror image across any line through it fit the pairwise
distances equally well.

* **Rotation** is pinned by the protocol's requirement that the leader
  points their device at a visible diver (user 1): the embedding is
  rotated so the leader -> user-1 direction matches the leader's
  (compass) pointing azimuth.
* **Flipping** leaves two mirror-image candidates across the
  leader/user-1 line. The leader's two microphones — too close together
  for useful AoA — still answer the *binary* question "did this diver's
  signal hit the left or the right microphone first?". Each diver
  ``i >= 2`` contributes one vote::

      sgn(m_i - n_i) * sgn((x_i - x_0)(y_1 - y_0) - (y_i - y_0)(x_1 - x_0))

  and the candidate with the larger vote total wins.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

import numpy as np

from repro.geometry.transforms import (
    angle_of,
    reflect_across_line_2d,
    rotate_2d,
)


def resolve_rotation(
    positions2d: np.ndarray, pointing_azimuth_rad: float
) -> np.ndarray:
    """Translate the leader to the origin and rotate user 1 onto the
    pointing direction.

    Parameters
    ----------
    positions2d:
        (N, 2) embedding; row 0 is the leader, row 1 the pointed diver.
    pointing_azimuth_rad:
        The azimuth the leader is facing (radians, world frame).
    """
    pts = np.asarray(positions2d, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise ValueError("positions2d must be (N >= 2, 2)")
    centered = pts - pts[0]
    current = angle_of(centered[1])
    return rotate_2d(centered, pointing_azimuth_rad - current)


def flip_candidates(positions2d: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The two mirror-image candidates across the leader/user-1 line."""
    pts = np.asarray(positions2d, dtype=float)
    if pts.shape[0] < 2:
        raise ValueError("need leader and user 1")
    direction = pts[1] - pts[0]
    dx, dy = direction.tolist()
    # ``np.allclose(direction, 0)`` on Python floats.
    if abs(dx) <= 1e-8 and abs(dy) <= 1e-8:
        raise ValueError("leader and user 1 coincide; flip axis undefined")
    mirrored = reflect_across_line_2d(pts, pts[0], direction)
    return pts, mirrored


def mic_arrival_sign(
    left_mic_pos: np.ndarray, right_mic_pos: np.ndarray, source_pos: np.ndarray
) -> int:
    """Observed sign of the dual-mic arrival-order for a source.

    Returns ``sgn(m - n)`` where ``m``/``n`` are the direct-path tap
    indices at the left/right microphones: ``-1`` when the left mic
    hears the source first (source on the left), ``+1`` otherwise.
    Positions are 3D.
    """
    left = float(np.linalg.norm(np.asarray(source_pos, float) - np.asarray(left_mic_pos, float)))
    right = float(np.linalg.norm(np.asarray(source_pos, float) - np.asarray(right_mic_pos, float)))
    # ``np.isclose(left, right)`` on Python floats.
    if (abs(left - right) <= 1e-8 + 1e-5 * abs(right) and math.isfinite(right)) or left == right:
        return 0
    return -1 if left < right else 1


def _side_sign(positions2d: np.ndarray, index: int) -> float:
    """The paper's cross-product side test for diver ``index``."""
    p0, p1, pi = positions2d[0], positions2d[1], positions2d[index]
    return np.sign(
        (pi[0] - p0[0]) * (p1[1] - p0[1]) - (pi[1] - p0[1]) * (p1[0] - p0[0])
    )


def flipping_vote(
    positions2d: np.ndarray, arrival_signs: Dict[int, int]
) -> float:
    """Vote total ``V({P_i})`` for one candidate configuration.

    Parameters
    ----------
    positions2d:
        Candidate (N, 2) configuration (leader row 0, user 1 row 1).
    arrival_signs:
        ``sgn(m_i - n_i)`` per diver index ``i >= 2``; divers with sign
        0 (ambiguous) contribute nothing.
    """
    pts = np.asarray(positions2d, dtype=float)
    total = 0.0
    for index, sign in arrival_signs.items():
        if not 2 <= index < pts.shape[0]:
            raise ValueError(f"voter index {index} out of range")
        total += sign * _side_sign(pts, index)
    return total


def resolve_flipping(
    positions2d: np.ndarray, arrival_signs: Dict[int, int]
) -> Tuple[np.ndarray, float, float]:
    """Pick the mirror-image candidate consistent with the mic votes.

    Returns ``(winner, vote_for_original, vote_for_mirror)``. With an
    empty ``arrival_signs`` (e.g. a 3-device network with only leader,
    user 1 and one diver whose signal was lost) the original candidate
    is returned unchanged.
    """
    original, mirrored = flip_candidates(positions2d)
    v_orig = flipping_vote(original, arrival_signs)
    v_mirr = flipping_vote(mirrored, arrival_signs)
    winner = original if v_orig >= v_mirr else mirrored
    return winner, v_orig, v_mirr
