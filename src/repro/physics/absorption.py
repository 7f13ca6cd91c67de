"""Acoustic absorption: Thorp's empirical formula.

At the 1-5 kHz band used by smart devices, absorption is small but not
negligible over the 10-45 m ranges the paper evaluates. The image-method
channel (:mod:`repro.channel.multipath`) applies it on top of its own
``1/r`` spreading.
"""

from __future__ import annotations

import numpy as np


def thorp_absorption_db_per_km(frequency_hz):
    """Thorp absorption coefficient in dB/km at ``frequency_hz``.

    Uses the classic Thorp formula with frequency in kHz::

        a(f) = 0.11 f^2/(1+f^2) + 44 f^2/(4100+f^2) + 2.75e-4 f^2 + 0.003

    Valid for frequencies from a few hundred Hz up to ~50 kHz, which covers
    the 1-5 kHz band used by the system.
    """
    f_khz = np.asarray(frequency_hz, dtype=float) / 1_000.0
    f2 = f_khz**2
    alpha = (
        0.11 * f2 / (1.0 + f2)
        + 44.0 * f2 / (4100.0 + f2)
        + 2.75e-4 * f2
        + 0.003
    )
    if np.ndim(alpha) == 0:
        return float(alpha)
    return alpha


def absorption_loss_db(distance_m, frequency_hz):
    """Absorption loss in dB over ``distance_m`` at ``frequency_hz``."""
    d_km = np.asarray(distance_m, dtype=float) / 1_000.0
    loss = thorp_absorption_db_per_km(frequency_hz) * d_km
    if np.ndim(loss) == 0:
        return float(loss)
    return loss

