"""Planar rigid transforms used by the ambiguity-resolution stage."""

from __future__ import annotations

import numpy as np


def rotation_matrix_2d(angle_rad: float) -> np.ndarray:
    """Counter-clockwise 2D rotation matrix."""
    c, s = np.cos(angle_rad), np.sin(angle_rad)
    return np.array([[c, -s], [s, c]])


def rotate_2d(points: np.ndarray, angle_rad: float, center=None) -> np.ndarray:
    """Rotate ``points`` (N x 2) about ``center`` (default: origin)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be an (N, 2) array")
    rot = rotation_matrix_2d(angle_rad)
    if center is None:
        return pts @ rot.T
    c = np.asarray(center, dtype=float)
    return (pts - c) @ rot.T + c


def angle_of(vector) -> float:
    """Azimuth (rad) of a 2D vector measured from the +x axis."""
    v = np.asarray(vector, dtype=float)
    if v.shape != (2,):
        raise ValueError("vector must be a 2-vector")
    x, y = v.tolist()
    # ``np.allclose(v, 0)`` on Python floats.
    if abs(x) <= 1e-8 and abs(y) <= 1e-8:
        raise ValueError("zero vector has no angle")
    return float(np.arctan2(v[1], v[0]))


def reflect_across_line_2d(points: np.ndarray, line_point, line_direction) -> np.ndarray:
    """Mirror ``points`` (N x 2) across the line through ``line_point``
    with direction ``line_direction``.

    Used to generate the flipped candidate of the network topology: the
    mirror image across the leader -> pointed-device line.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be an (N, 2) array")
    p0 = np.asarray(line_point, dtype=float)
    d = np.asarray(line_direction, dtype=float)
    norm = np.linalg.norm(d)
    if norm == 0:
        raise ValueError("line_direction must be non-zero")
    d = d / norm
    rel = pts - p0
    # Reflection: 2 (rel . d) d - rel
    proj = rel @ d
    reflected = 2 * np.outer(proj, d) - rel
    return reflected + p0

