"""The simulated smart device: geometry, clock, audio, sensors."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.devices.audio_io import AudioStreams
from repro.devices.clock import DeviceClock
from repro.devices.models import SAMSUNG_S9, DeviceModel
from repro.devices.sensors import DepthSensor, phone_pressure_sensor


def _unit_vector(azimuth_rad: float, polar_rad: float) -> np.ndarray:
    """Unit vector for azimuth (x-y plane) and polar (from +z) angles."""
    return np.array(
        [
            np.sin(polar_rad) * np.cos(azimuth_rad),
            np.sin(polar_rad) * np.sin(azimuth_rad),
            np.cos(polar_rad),
        ]
    )


@dataclass
class Device:
    """One diver's device in the simulation.

    Attributes
    ----------
    device_id:
        Protocol ID; the leader is 0.
    position:
        3D position ``(x, y, z)``, ``z`` = depth below surface (m).
    model:
        Hardware profile.
    azimuth_rad / polar_rad:
        Orientation of the device axis (speaker/mic facing direction).
        ``polar = pi/2`` is horizontal; ``polar = 0`` points up.
    clock:
        The device's local clock.
    audio:
        Mic/speaker buffer model.
    depth_sensor:
        On-board depth sensing.
    """

    device_id: int
    position: np.ndarray
    model: DeviceModel = field(default_factory=lambda: SAMSUNG_S9)
    azimuth_rad: float = 0.0
    polar_rad: float = np.pi / 2
    clock: DeviceClock = field(default_factory=DeviceClock)
    audio: AudioStreams = field(default_factory=AudioStreams)
    depth_sensor: DepthSensor = field(default_factory=phone_pressure_sensor)

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        if self.position.shape != (3,):
            raise ValueError("position must be a 3-vector (x, y, z-depth)")
        if self.device_id < 0:
            raise ValueError("device_id must be non-negative")

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------

    @property
    def depth_m(self) -> float:
        """True depth below the surface."""
        return float(self.position[2])

    @property
    def axis(self) -> np.ndarray:
        """Unit vector the device (speaker/mics) is facing."""
        return _unit_vector(self.azimuth_rad, self.polar_rad)

    def mic_positions(self, lateral: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Positions of the two ranging microphones.

        Parameters
        ----------
        lateral:
            When False the mics sit along the device axis (bottom mic
            first, then top) — the phone held pointing at a peer. When
            True they are separated horizontally *perpendicular* to the
            device azimuth — the configuration the leader uses for the
            left/right flipping vote (the "left" mic is first).
        """
        half = self.model.mic_separation_m / 2.0
        if lateral:
            # Horizontal left/right relative to the azimuth direction.
            perp = np.array(
                [-np.sin(self.azimuth_rad), np.cos(self.azimuth_rad), 0.0]
            )
            return self.position + half * perp, self.position - half * perp
        axis = self.axis
        return self.position - half * axis, self.position + half * axis

    def distance_to(self, other: "Device") -> float:
        """True euclidean distance to another device (m)."""
        return float(np.linalg.norm(self.position - other.position))

    # ------------------------------------------------------------------
    # Sensing
    # ------------------------------------------------------------------

    def measure_depth(self, rng: np.random.Generator) -> float:
        """One noisy depth reading from the on-board sensor."""
        return self.depth_sensor.measure(self.depth_m, rng)

    def moved_to(self, new_position) -> "Device":
        """A copy of this device at a new position (mobility support)."""
        clone = replace(self)
        clone.position = np.asarray(new_position, dtype=float)
        return clone


def make_device(
    device_id: int,
    position,
    rng: np.random.Generator,
    model: DeviceModel = SAMSUNG_S9,
    azimuth_rad: float = 0.0,
    polar_rad: float = np.pi / 2,
    depth_sensor: DepthSensor | None = None,
) -> Device:
    """Build a device with randomised clock/buffer state.

    Clock skews are drawn from the model's ppm range with random sign;
    the mic/speaker stream start offsets are independent uniform delays,
    matching the "buffers are filled independently by the OS" behaviour
    the calibration protocol exists to fix.
    """
    lo, hi = model.clock_skew_ppm_range
    skew = float(rng.uniform(lo, hi)) * (1 if rng.random() < 0.5 else -1)
    alpha = float(rng.uniform(lo, hi)) * (1 if rng.random() < 0.5 else -1)
    beta = float(rng.uniform(lo, hi)) * (1 if rng.random() < 0.5 else -1)
    audio = AudioStreams(
        alpha_ppm=alpha,
        beta_ppm=beta,
        speaker_start_s=float(rng.uniform(0.0, 0.5)),
        mic_start_s=float(rng.uniform(0.0, 0.5)),
    )
    return Device(
        device_id=device_id,
        position=np.asarray(position, dtype=float),
        model=model,
        azimuth_rad=azimuth_rad,
        polar_rad=polar_rad,
        clock=DeviceClock(skew_ppm=skew, epoch_s=float(rng.uniform(0.0, 1000.0))),
        audio=audio,
        depth_sensor=depth_sensor or phone_pressure_sensor(),
    )
