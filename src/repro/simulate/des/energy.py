"""Per-node energy of fleet rounds (DESIGN.md §3.2, §10).

A four-state power model (idle listening, active reception,
transmission, sleep) priced from the hardware profile already carried
by :class:`~repro.devices.models.DeviceModel` — the same numbers the
paper's battery-life table uses — so fleet campaigns can report joules
per round without a separate calibration.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.devices.models import DeviceModel
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class EnergyModel:
    """Power draw (watts) of each radio/audio state.

    ``rx`` covers the extra DSP work while a packet is being resolved;
    the always-on microphone pipeline is the ``idle`` baseline, and
    ``sleep`` models a duty-cycled device with the audio front end off.
    """

    tx_w: float = 1.2
    rx_w: float = 0.65
    idle_w: float = 0.55
    sleep_w: float = 0.02

    def __post_init__(self):
        if min(self.tx_w, self.rx_w, self.idle_w, self.sleep_w) < 0:
            raise ConfigurationError("power levels must be non-negative")

    @classmethod
    def from_device_model(cls, model: DeviceModel) -> "EnergyModel":
        """Derive the state powers from a hardware profile."""
        return cls(
            tx_w=model.acoustic_power_w,
            rx_w=model.idle_power_w * 1.2,
            idle_w=model.idle_power_w,
            sleep_w=model.idle_power_w * 0.04,
        )


def total_joules_arrays(
    model: EnergyModel,
    idle_s,
    rx_s,
    tx_s,
    sleep_s=0.0,
):
    """Joules per node from per-state seconds over node arrays.

    Sums the per-state energies in a fixed state order (idle, rx, tx,
    sleep) and association; the per-event fleet oracle's scalar account
    sums the same way, so equal second totals give bit-identical joules.
    """
    return (
        model.idle_w * idle_s
        + model.rx_w * rx_s
        + model.tx_w * tx_s
        + model.sleep_w * sleep_s
    )
