"""Speed of sound underwater via Wilson's equation.

The paper (section 2) approximates the underwater sound speed with
Wilson's equation [Wilson 1960]::

    c = 1449 + 4.6 T - 0.055 T^2 + 0.0003 T^3 + 1.39 (S - 35) + 0.017 D

where ``T`` is temperature in degrees Celsius, ``S`` salinity in parts per
thousand and ``D`` depth in metres. At recreational dive depths (<= 40 m)
the maximum sound-speed variation is about 30 m/s, a ~2% relative error at
1500 m/s, so a single per-environment speed is adequate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def sound_speed_wilson(temperature_c, salinity_ppt=35.0, depth_m=0.0):
    """Return the speed of sound in water (m/s) from Wilson's equation.

    Parameters
    ----------
    temperature_c:
        Water temperature in degrees Celsius. Scalar or array.
    salinity_ppt:
        Salinity in parts per thousand (35 for typical seawater, ~0 for
        fresh water). Scalar or array broadcastable with ``temperature_c``.
    depth_m:
        Depth in metres. Scalar or array broadcastable with the others.

    Returns
    -------
    float or numpy.ndarray
        Sound speed in metres per second.
    """
    t = np.asarray(temperature_c, dtype=float)
    s = np.asarray(salinity_ppt, dtype=float)
    d = np.asarray(depth_m, dtype=float)
    if np.any(d < 0):
        raise ValueError("depth_m must be non-negative")
    c = (
        1449.0
        + 4.6 * t
        - 0.055 * t**2
        + 0.0003 * t**3
        + 1.39 * (s - 35.0)
        + 0.017 * d
    )
    if np.ndim(c) == 0:
        return float(c)
    return c


@dataclass(frozen=True)
class WaterProperties:
    """Bulk water properties of a deployment site.

    Attributes
    ----------
    temperature_c:
        Water temperature in degrees Celsius.
    salinity_ppt:
        Salinity in parts per thousand.
    ph:
        Acidity, used by some absorption models (Thorp ignores it).
    """

    temperature_c: float = 15.0
    salinity_ppt: float = 0.5
    ph: float = 7.5

    def sound_speed(self, depth_m: float = 0.0) -> float:
        """Sound speed (m/s) at ``depth_m`` for this water body."""
        return sound_speed_wilson(self.temperature_c, self.salinity_ppt, depth_m)

