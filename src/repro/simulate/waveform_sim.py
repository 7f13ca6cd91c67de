"""Waveform-level simulation of acoustic exchanges between two devices.

Renders real 44.1 kHz audio end to end: preamble -> image-method
multipath (per microphone, including the waterproof-case reflections and
speaker/mic directivity) -> site + hardware noise -> the full receiver
pipeline (detection, LS channel estimation, dual-mic direct-path
search). This is the substrate for the paper's ranging benchmarks
(Figs. 11-15, 22) and for calibrating the timestamp-level error model.

This module holds the exchange types and the per-tap gain and
fluctuation rules.  The per-exchange call :func:`one_way_range` is the
batched engine of :mod:`repro.simulate.batch_exchange` run on one
exchange, so a single call and a sweep of thousands render and range
through the same code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.channel.environment import Environment
from repro.channel.multipath import PathTap
from repro.channel.occlusion import Occlusion
from repro.channel.render import directivity_gain
from repro.devices.models import SAMSUNG_S9, DeviceModel
from repro.ranging.detector import DetectionConfig
from repro.ranging.pairwise import ArrivalEstimate
from repro.signals.preamble import Preamble


@dataclass(frozen=True)
class ExchangeConfig:
    """Static configuration of a two-device acoustic exchange.

    Attributes
    ----------
    environment:
        The water body.
    tx_model / rx_model:
        Hardware profiles of the two devices.
    tx_azimuth_rad / tx_polar_rad:
        Orientation of the transmitter's device axis (polar pi/2 =
        horizontal; the paper's "faces upward" case is polar 0).
    rx_azimuth_rad / rx_polar_rad:
        Receiver orientation; also defines the microphone axis.
    guard_s:
        Silence rendered before the transmission (lets the detector see
        a noise-only preface).
    amplitude:
        Speaker amplitude (1.0 = max volume).
    occlusion:
        Optional direct-path obstruction.
    sound_speed_error_std:
        Relative uncertainty of the sound speed: each exchange's *actual*
        propagation speed deviates from the receiver's assumed speed by
        this relative std (temperature/salinity mis-configuration; the
        paper bounds the effect at ~2%). This converts directly into a
        ranging error proportional to distance.
    """

    environment: Environment
    tx_model: DeviceModel = SAMSUNG_S9
    rx_model: DeviceModel = SAMSUNG_S9
    tx_azimuth_rad: float = 0.0
    tx_polar_rad: float = np.pi / 2
    rx_azimuth_rad: float = np.pi
    rx_polar_rad: float = np.pi / 2
    guard_s: float = 0.05
    amplitude: float = 1.0
    occlusion: Optional[Occlusion] = None
    sound_speed_error_std: float = 0.009
    detection: DetectionConfig = field(default_factory=DetectionConfig)


@dataclass(frozen=True)
class RangingMeasurement:
    """One simulated ranging attempt.

    Attributes
    ----------
    true_distance_m:
        Ground-truth distance between device centres.
    estimated_distance_m:
        The pipeline's estimate (NaN when detection failed).
    detected:
        Whether the preamble was found at all.
    arrival:
        The raw arrival estimate, when available.
    """

    true_distance_m: float
    estimated_distance_m: float
    detected: bool
    arrival: Optional[ArrivalEstimate] = None

    @property
    def error_m(self) -> float:
        """Signed ranging error (NaN when undetected)."""
        return self.estimated_distance_m - self.true_distance_m


def directivity_tap_gains(
    config: ExchangeConfig,
    tx_pos: np.ndarray,
    rx_pos: np.ndarray,
    water_depth_m: float,
) -> Tuple[float, float, float, float]:
    """The four distinct per-tap directivity gains of one exchange.

    Returns ``(g_direct, g_surface, g_bottom, g_other)``: the combined
    speaker+mic gain for the direct path, a first-order surface bounce,
    a first-order bottom bounce, and every higher-order path (mic gain
    only).

    The speaker gain is taken at each path's *departure* angle: the
    direct path leaves towards the receiver, a first-order surface
    (bottom) bounce towards the receiver's mirror image above the
    surface (below the bottom).  A speaker pointing up therefore beams
    *into* the surface bounce while starving the direct path, the
    mechanism behind the paper's worst-case "device faces upward"
    result (Fig. 14a).  Higher-order paths keep the mic gain alone:
    their departure angles spread widely and their total energy is
    small.
    """

    def tx_gain_towards(target: np.ndarray) -> float:
        rel = target - tx_pos
        horiz = np.hypot(rel[0], rel[1])
        azimuth = float(np.arctan2(rel[1], rel[0]))
        polar = float(np.arctan2(horiz, rel[2]))  # from +z (down)
        return directivity_gain(
            config.tx_azimuth_rad,
            config.tx_polar_rad,
            azimuth,
            polar,
            backlobe_gain=0.45,
            exponent=1.0,
        )

    # Receiver gain towards the transmitter (applied once to all taps:
    # microphones are far less directional than the speaker).
    rel_back = tx_pos - rx_pos
    horiz_back = np.hypot(rel_back[0], rel_back[1])
    g_rx = directivity_gain(
        config.rx_azimuth_rad,
        config.rx_polar_rad,
        float(np.arctan2(rel_back[1], rel_back[0])),
        float(np.arctan2(horiz_back, rel_back[2])),
        backlobe_gain=0.5,
        exponent=1.0,
    )

    surface_image = np.array([rx_pos[0], rx_pos[1], -rx_pos[2]])
    bottom_image = np.array([rx_pos[0], rx_pos[1], 2 * water_depth_m - rx_pos[2]])
    return (
        tx_gain_towards(rx_pos) * g_rx,
        tx_gain_towards(surface_image) * g_rx,
        tx_gain_towards(bottom_image) * g_rx,
        g_rx,
    )


def directivity_gain_array(
    surface_bounces: np.ndarray,
    bottom_bounces: np.ndarray,
    gains: Tuple[float, float, float, float],
) -> np.ndarray:
    """Per-tap gain vector from bounce counts and the four gain levels."""
    g_direct, g_surf, g_bot, g_other = gains
    out = np.full(surface_bounces.shape, g_other)
    out[(surface_bounces == 1) & (bottom_bounces == 0)] = g_surf
    out[(surface_bounces == 0) & (bottom_bounces == 1)] = g_bot
    out[(surface_bounces == 0) & (bottom_bounces == 0)] = g_direct
    return out


def _channel_fluctuation(
    taps: Sequence[PathTap],
    distance_m: float,
    rng: np.random.Generator,
    base_sigma_db: float = 1.5,
    sigma_db_per_m: float = 0.05,
    delay_jitter_samples: float = 0.5,
    sample_rate: float = 44_100.0,
) -> List[PathTap]:
    """Per-reception scintillation of the multipath taps.

    Underwater channels fluctuate between transmissions: thermal
    microstructure, surface motion and suspended particles modulate each
    eigenray's amplitude (log-normal fading) and arrival time slightly.
    Fluctuation accumulates with path length, so longer links fade more
    — this is what makes ranging error grow with separation (paper
    Fig. 11a) even though the geometry is fixed.
    """
    sigma_db = base_sigma_db + sigma_db_per_m * distance_m
    delays, amps = fluctuate_tap_arrays(
        np.array([t.delay_s for t in taps]),
        np.array([t.amplitude for t in taps]),
        sigma_db,
        delay_jitter_samples / sample_rate,
        rng,
    )
    order = np.argsort(delays, kind="stable")
    return [
        PathTap(
            delay_s=float(delays[i]),
            amplitude=float(amps[i]),
            surface_bounces=taps[i].surface_bounces,
            bottom_bounces=taps[i].bottom_bounces,
        )
        for i in order
    ]


def fluctuate_tap_arrays(
    delays_s: np.ndarray,
    amplitudes: np.ndarray,
    sigma_db: float,
    jitter_std_s: float,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Array core of :func:`_channel_fluctuation` (unsorted).

    Draws one ``(gain, jitter)`` normal pair per tap.  A ``(n, 2)``
    standard-normal block consumes the generator stream in exactly the
    per-tap interleaved order of the original scalar loop, and scaling
    standard draws by the sigmas reproduces ``rng.normal(0, sigma)``
    bit for bit, so the fluctuated taps are identical to the legacy
    path's.
    """
    z = rng.normal(0.0, 1.0, size=(delays_s.size, 2))
    gains_db = z[:, 0] * sigma_db
    jitter_s = z[:, 1] * jitter_std_s
    # 10**x must go through libm's pow like the scalar loop did: numpy's
    # vectorised pow rounds differently in the last ulp, which would
    # silently break bit-parity with the legacy backend.
    factors = np.array([10.0 ** (g / 20.0) for g in gains_db.tolist()])
    return (
        np.maximum(delays_s + jitter_s, 0.0),
        amplitudes * factors,
    )


def _rx_mic_positions(config: ExchangeConfig, rx_pos: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Bottom/top microphone positions along the receiver's axis."""
    axis = np.array(
        [
            np.sin(config.rx_polar_rad) * np.cos(config.rx_azimuth_rad),
            np.sin(config.rx_polar_rad) * np.sin(config.rx_azimuth_rad),
            np.cos(config.rx_polar_rad),
        ]
    )
    half = config.rx_model.mic_separation_m / 2.0
    return rx_pos - half * axis, rx_pos + half * axis


def one_way_range(
    preamble: Preamble,
    tx_pos,
    rx_pos,
    config: ExchangeConfig,
    rng: np.random.Generator,
) -> RangingMeasurement:
    """One transmit-and-detect ranging attempt with a shared timebase.

    Matches the paper's controlled benchmark setting: the transmit
    instant is known, so the estimate reduces to arrival detection.
    The K = 1 call of :class:`~repro.simulate.batch_exchange.BatchOneWay`,
    flushed on the caller's thread.
    """
    # Imported per call: batch_exchange imports this module's types.
    from repro.simulate.batch_exchange import BatchOneWay

    sim = BatchOneWay(preamble, chunk=1, pipeline=0)
    sim.add(tx_pos, rx_pos, config, rng)
    (measurement,) = sim.run()
    return measurement

