"""Dual-microphone joint direct-path estimation (paper section 2.2).

Underwater, the direct path can be weaker than later reflections, and
each microphone has its own hardware noise profile, so "first
non-negligible peak" on a single channel picks wrong peaks. The paper's
estimator searches *both* microphones' channel estimates jointly::

    minimise   tau_LOS = (n + m) / 2
    subject to h1(n) > w1 + lambda,   h2(m) > w2 + lambda,
               IsPeak(n, h1) and IsPeak(m, h2),
               |n - m| <= d / c * fs

where ``w1``/``w2`` are per-channel noise floors (mean of the last 100
taps), ``lambda = 0.2`` on the [0, 1]-normalised channels, and ``d`` is
the physical microphone separation: the true direct paths at the two
mics cannot be further apart in time than the acoustic travel time
between the mics.  :func:`repro.ranging.batch.estimate_direct_path_fast`
solves it; this module holds its result type.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DirectPathEstimate:
    """Joint direct-path search result.

    Attributes
    ----------
    tap:
        Estimated direct-path delay in (possibly fractional) channel
        taps: ``(n + m) / 2``.
    tap_mic1 / tap_mic2:
        Per-microphone direct-path taps ``n`` and ``m``.
    """

    tap: float
    tap_mic1: int
    tap_mic2: int

    @property
    def arrival_sign(self) -> int:
        """``sgn(m1 - m2)``: which microphone heard the path first.

        Used by the flipping disambiguation vote.
        """
        return int(np.sign(self.tap_mic1 - self.tap_mic2))
