"""Image-method multipath model for a shallow isovelocity waveguide.

A shallow water body bounded by the (pressure-release) surface and the
(partially reflecting) bottom acts as a waveguide. The image method
replaces each reflection sequence with a virtual image source; summing
the arrivals of all images up to a reflection order gives the channel
impulse response. This reproduces the features the paper's ranging
algorithm must survive:

* long delay spread (many arrivals over tens of milliseconds),
* a direct path that is *not* the strongest arrival when the device is
  near the surface or bottom,
* depth-dependent multipath severity (paper Fig. 13a).

Coordinates: ``z`` is depth below the surface, positive down. The water
column spans ``z in [0, water_depth]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.physics.absorption import absorption_loss_db


@dataclass(frozen=True)
class PathTap:
    """One arrival of the multipath channel.

    Attributes
    ----------
    delay_s:
        One-way propagation delay in seconds.
    amplitude:
        Signed linear amplitude (surface bounces flip the phase).
    surface_bounces / bottom_bounces:
        Reflection counts of the underlying eigenray.
    """

    delay_s: float
    amplitude: float
    surface_bounces: int = 0
    bottom_bounces: int = 0

    @property
    def is_direct(self) -> bool:
        return self.surface_bounces == 0 and self.bottom_bounces == 0


def _image_depths(source_depth: float, water_depth: float, max_order: int):
    """Yield ``(image_z, n_surface, n_bottom)`` for all image sources.

    The image set of a source at depth ``zs`` in a waveguide of depth
    ``D`` is ``{2 m D + zs, 2 m D - zs : m in Z}``. Bounce counts:

    * family ``+`` (``2mD + zs``): ``|m|`` surface and ``|m|`` bottom,
    * family ``-`` (``2mD - zs``): ``m`` bottom / ``m - 1 + 1`` pattern —
      for ``m >= 1`` it is ``m`` bottom and ``m - 1`` surface bounces,
      for ``m <= 0`` it is ``|m|`` bottom and ``|m| + 1`` surface.
    """
    zs, depth = source_depth, water_depth
    for m in range(-max_order, max_order + 1):
        n_ref = abs(m)
        yield 2 * depth * m + zs, n_ref, n_ref
        if m >= 1:
            yield 2 * depth * m - zs, m - 1, m
        else:
            yield 2 * depth * m - zs, abs(m) + 1, abs(m)


def image_method_taps(
    tx_pos: Sequence[float],
    rx_pos: Sequence[float],
    water_depth: float,
    sound_speed: float,
    max_order: int = 3,
    surface_coeff: float = -0.95,
    bottom_coeff: float = 0.6,
    frequency_hz: float = 3_000.0,
    min_relative_amplitude: float = 1e-4,
) -> List[PathTap]:
    """Compute the multipath taps between two underwater points.

    Parameters
    ----------
    tx_pos / rx_pos:
        3D positions ``(x, y, z)`` with ``z`` the depth below the surface
        in metres (positive down, inside ``[0, water_depth]``).
    water_depth:
        Depth of the water column (m).
    sound_speed:
        Propagation speed (m/s).
    max_order:
        Maximum image order ``m`` (total bounces grow with ``m``).
    surface_coeff:
        Surface reflection coefficient; near -1 (pressure release,
        phase-inverting).
    bottom_coeff:
        Bottom reflection coefficient; higher for hard bottoms (concrete
        pool ~0.85) than for silt (~0.4).
    frequency_hz:
        Representative frequency for Thorp absorption.
    min_relative_amplitude:
        Taps weaker than this fraction of the direct-path amplitude are
        dropped.

    Returns
    -------
    list of PathTap
        Sorted by increasing delay; the first tap is the direct path.
    """
    tx = np.asarray(tx_pos, dtype=float)
    rx = np.asarray(rx_pos, dtype=float)
    if tx.shape != (3,) or rx.shape != (3,):
        raise ValueError("positions must be 3-vectors (x, y, z-depth)")
    if water_depth <= 0:
        raise ValueError("water_depth must be positive")
    for name, z in (("tx", tx[2]), ("rx", rx[2])):
        if not 0 <= z <= water_depth:
            raise ValueError(f"{name} depth {z} outside water column [0, {water_depth}]")
    if sound_speed <= 0:
        raise ValueError("sound_speed must be positive")
    if not -1.0 <= surface_coeff <= 0.0:
        raise ValueError("surface_coeff must be in [-1, 0]")
    if not 0.0 <= bottom_coeff <= 1.0:
        raise ValueError("bottom_coeff must be in [0, 1]")

    horizontal = float(np.hypot(rx[0] - tx[0], rx[1] - tx[1]))
    direct_range = float(np.linalg.norm(rx - tx))
    direct_range = max(direct_range, 1e-3)
    # Reference amplitude: 1/r spreading for the direct ray.
    direct_amp = 1.0 / max(direct_range, 1.0)

    taps: List[PathTap] = []
    for image_z, n_surf, n_bot in _image_depths(tx[2], water_depth, max_order):
        vertical = rx[2] - image_z
        path_len = float(np.hypot(horizontal, vertical))
        path_len = max(path_len, 1e-3)
        amp = (
            (1.0 / max(path_len, 1.0))
            * (surface_coeff**n_surf)
            * (bottom_coeff**n_bot)
        )
        amp *= 10.0 ** (-absorption_loss_db(path_len, frequency_hz) / 20.0)
        if abs(amp) < min_relative_amplitude * direct_amp:
            continue
        taps.append(
            PathTap(
                delay_s=path_len / sound_speed,
                amplitude=float(amp),
                surface_bounces=n_surf,
                bottom_bounces=n_bot,
            )
        )
    taps.sort(key=lambda t: t.delay_s)
    if not taps:
        raise RuntimeError("image method produced no taps (thresholds too strict?)")
    return taps


def image_method_tap_arrays(
    tx_pos: Sequence[float],
    rx_pos: Sequence[float],
    water_depth: float,
    sound_speed: float,
    max_order: int = 3,
    surface_coeff: float = -0.95,
    bottom_coeff: float = 0.6,
    frequency_hz: float = 3_000.0,
    min_relative_amplitude: float = 1e-4,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Array-first :func:`image_method_taps`: ``(delays, amps, surf, bot)``.

    Bit-identical to the tap list (same values, same delay-sorted
    order).  The per-image arithmetic vectorises ops that are exact
    element-wise (`hypot`, `maximum`, multiplies); the two places where
    numpy's vectorised transcendentals round differently from the
    scalar loop's libm calls — reflection-coefficient integer powers
    and the ``10**x`` absorption factor — go through Python's ``pow``
    per element, exactly as the scalar path does.
    """
    tx = np.asarray(tx_pos, dtype=float)
    rx = np.asarray(rx_pos, dtype=float)
    if tx.shape != (3,) or rx.shape != (3,):
        raise ValueError("positions must be 3-vectors (x, y, z-depth)")
    if water_depth <= 0:
        raise ValueError("water_depth must be positive")
    for name, z in (("tx", tx[2]), ("rx", rx[2])):
        if not 0 <= z <= water_depth:
            raise ValueError(f"{name} depth {z} outside water column [0, {water_depth}]")
    if sound_speed <= 0:
        raise ValueError("sound_speed must be positive")
    if not -1.0 <= surface_coeff <= 0.0:
        raise ValueError("surface_coeff must be in [-1, 0]")
    if not 0.0 <= bottom_coeff <= 1.0:
        raise ValueError("bottom_coeff must be in [0, 1]")

    horizontal = float(np.hypot(rx[0] - tx[0], rx[1] - tx[1]))
    direct_range = float(np.linalg.norm(rx - tx))
    direct_range = max(direct_range, 1e-3)
    direct_amp = 1.0 / max(direct_range, 1.0)

    image_z: List[float] = []
    n_surf: List[int] = []
    n_bot: List[int] = []
    for z, s, b in _image_depths(tx[2], water_depth, max_order):
        image_z.append(z)
        n_surf.append(s)
        n_bot.append(b)
    surf = np.asarray(n_surf, dtype=np.int64)
    bot = np.asarray(n_bot, dtype=np.int64)
    path_len = np.hypot(horizontal, rx[2] - np.asarray(image_z))
    path_len = np.maximum(path_len, 1e-3)

    max_bounces = int(max(surf.max(), bot.max()))
    surf_pow = np.array([surface_coeff**k for k in range(max_bounces + 1)])
    bot_pow = np.array([bottom_coeff**k for k in range(max_bounces + 1)])
    amps = (1.0 / np.maximum(path_len, 1.0)) * surf_pow[surf] * bot_pow[bot]
    loss_db = absorption_loss_db(path_len, frequency_hz)
    amps = amps * np.array([10.0 ** x for x in (-loss_db / 20.0).tolist()])

    keep = ~(np.abs(amps) < min_relative_amplitude * direct_amp)
    if not np.any(keep):
        raise RuntimeError("image method produced no taps (thresholds too strict?)")
    delays = path_len[keep] / sound_speed
    amps, surf, bot = amps[keep], surf[keep], bot[keep]
    order = np.argsort(delays, kind="stable")
    return delays[order], amps[order], surf[order], bot[order]

