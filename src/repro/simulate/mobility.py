"""Device mobility: trajectories for the paper's motion experiments.

Fig. 15 moves one phone along a 1D path parallel to the shore at 32 and
56 cm/s while ranging every second; Fig. 20 moves one network device
back and forth around its position at 15-50 cm/s during localization
rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LinearBackForthTrajectory:
    """Back-and-forth motion along a straight horizontal segment.

    Attributes
    ----------
    center:
        Midpoint of the segment (3D).
    direction:
        Horizontal unit direction of travel (normalised on use).
    amplitude_m:
        Half-length of the segment.
    speed_mps:
        Constant speed along the segment.
    """

    center: np.ndarray
    direction: np.ndarray
    amplitude_m: float
    speed_mps: float

    def position(self, t_s: float) -> np.ndarray:
        """Position at time ``t_s`` (triangle-wave sweep)."""
        c = np.asarray(self.center, dtype=float)
        d = np.asarray(self.direction, dtype=float)
        norm = np.linalg.norm(d)
        if norm == 0:
            raise ValueError("direction must be non-zero")
        d = d / norm
        if self.amplitude_m <= 0:
            return c.copy()
        period = 4.0 * self.amplitude_m / self.speed_mps
        phase = (t_s % period) / period  # 0..1
        # Triangle wave in [-1, 1]: starts at centre moving +.
        tri = 4.0 * phase
        if tri < 1.0:
            offset = tri
        elif tri < 3.0:
            offset = 2.0 - tri
        else:
            offset = tri - 4.0
        return c + d * (offset * self.amplitude_m)

    @property
    def midpoint(self) -> np.ndarray:
        """The trajectory midpoint (the paper's moving-device ground
        truth for network rounds)."""
        return np.asarray(self.center, dtype=float)


def normalize_directions(directions: np.ndarray) -> np.ndarray:
    """Unit directions exactly as the scalar trajectory computes them.

    :meth:`LinearBackForthTrajectory.position` normalises with the 1-D
    ``np.linalg.norm`` (a BLAS dot product whose FMA contraction can
    differ from a vectorized row-norm in the last bit), so batch
    callers must pre-normalise row by row through the same code path to
    stay bit-identical.
    """
    d = np.asarray(directions, dtype=float)
    out = np.empty_like(d)
    for i in range(d.shape[0]):
        norm = np.linalg.norm(d[i])
        if norm == 0:
            raise ValueError("direction must be non-zero")
        out[i] = d[i] / norm
    return out


def linear_back_forth_positions(
    centers: np.ndarray,
    unit_directions: np.ndarray,
    amplitudes_m: np.ndarray,
    speeds_mps: np.ndarray,
    t_s: float,
) -> np.ndarray:
    """Positions of many back-and-forth movers at one instant.

    Evaluates :meth:`LinearBackForthTrajectory.position` for a whole
    fleet of movers in one shot — same triangle wave, the same
    floating-point expression per element — so the vectorized DES
    backend sees bit-identical coordinates to the per-node scalar
    calls. ``unit_directions`` must come from
    :func:`normalize_directions` (normalising inside a batched norm
    would diverge in the last bit); amplitudes must be positive (the
    fleet mover draws guarantee it).
    """
    c = np.asarray(centers, dtype=float)
    d = np.asarray(unit_directions, dtype=float)
    amp = np.asarray(amplitudes_m, dtype=float)
    if np.any(amp <= 0):
        raise ValueError("amplitudes must be positive")
    period = 4.0 * amp / np.asarray(speeds_mps, dtype=float)
    phase = (t_s % period) / period  # 0..1
    tri = 4.0 * phase
    offset = np.where(tri < 1.0, tri, np.where(tri < 3.0, 2.0 - tri, tri - 4.0))
    return c + d * (offset * amp)[:, None]

