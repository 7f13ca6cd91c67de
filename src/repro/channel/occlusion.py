"""Occlusion of the direct acoustic path.

The paper evaluates erroneous-link handling by blocking the
leader-to-user-1 link with a solid sheet (section 3.2, Fig. 19a): the
devices still hear each other through reflections, but the *direct* path
is gone, so the earliest detectable arrival is a longer reflected path
and the distance estimate becomes an outlier. This module reproduces
that physical mechanism by attenuating the direct tap (and optionally
low-order reflections) of an image-method channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Occlusion:
    """An obstruction between two devices.

    Attributes
    ----------
    direct_attenuation_db:
        Attenuation applied to the direct path (60 dB ~ fully blocked).
    low_order_attenuation_db:
        Attenuation applied to single-bounce paths, which often also
        graze the obstruction.
    """

    direct_attenuation_db: float = 60.0
    low_order_attenuation_db: float = 10.0


def occlusion_gain_array(
    surface_bounces: np.ndarray,
    bottom_bounces: np.ndarray,
    occlusion: Occlusion,
) -> np.ndarray:
    """Per-tap occlusion gains from bounce counts: the direct path gets
    ``direct_attenuation_db``, single-bounce paths get
    ``low_order_attenuation_db`` and every other path passes unchanged."""
    direct_gain = 10.0 ** (-occlusion.direct_attenuation_db / 20.0)
    low_gain = 10.0 ** (-occlusion.low_order_attenuation_db / 20.0)
    total = surface_bounces + bottom_bounces
    gains = np.ones(total.shape)
    gains[total == 1] = low_gain
    gains[total == 0] = direct_gain
    return gains

