"""Underwater acoustic physics: sound speed, absorption, depth conversion."""

from repro.physics.sound_speed import (
    sound_speed_wilson,
    WaterProperties,
)
from repro.physics.absorption import (
    thorp_absorption_db_per_km,
    absorption_loss_db,
)
from repro.physics.depth import (
    pressure_to_depth,
    depth_to_pressure,
)

__all__ = [
    "sound_speed_wilson",
    "WaterProperties",
    "thorp_absorption_db_per_km",
    "absorption_loss_db",
    "pressure_to_depth",
    "depth_to_pressure",
]
