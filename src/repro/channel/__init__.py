"""Underwater acoustic channel simulation.

The paper's evaluation ran in four real water bodies; this subpackage is
the substitute substrate: an image-method multipath model (surface and
bottom reflections), Thorp absorption, ambient plus impulsive "spiky"
noise, the four named deployment environments, and an occlusion model
that attenuates the direct path to create outlier distance estimates.
"""

from repro.channel.multipath import PathTap, image_method_taps
from repro.channel.noise import NoiseModel, ambient_noise, spiky_noise, make_noise
from repro.channel.environment import (
    Environment,
    SWIMMING_POOL,
    DOCK,
    VIEWPOINT,
    BOATHOUSE,
    ENVIRONMENTS,
)
from repro.channel.occlusion import Occlusion
from repro.channel.render import render_taps, apply_channel, directivity_gain

__all__ = [
    "PathTap",
    "image_method_taps",
    "NoiseModel",
    "ambient_noise",
    "spiky_noise",
    "make_noise",
    "Environment",
    "SWIMMING_POOL",
    "DOCK",
    "VIEWPOINT",
    "BOATHOUSE",
    "ENVIRONMENTS",
    "Occlusion",
    "render_taps",
    "apply_channel",
    "directivity_gain",
]
