"""TDM slot arithmetic for the distributed timestamp protocol.

Device ``i >= 1`` transmits ``Delta_0 + (i - 1) * Delta_1`` after its
local time zero (set when it hears the leader, or inferred from the
first message it hears). ``Delta_0`` covers receive processing plus the
audio I/O latency; ``Delta_1 = T_packet + T_guard`` is the slot pitch,
with the guard absorbing up to twice the maximum propagation time so
packets from consecutive slots cannot collide at any receiver.
"""

from __future__ import annotations

from repro.constants import DELTA0_S, DELTA1_S
from repro.errors import ConfigurationError


def assigned_slot_time(
    device_id: int, delta0_s: float = DELTA0_S, delta1_s: float = DELTA1_S
) -> float:
    """``T^i_i = Delta_0 + (i - 1) Delta_1`` (leader transmits at 0)."""
    if device_id < 0:
        raise ConfigurationError("device_id must be non-negative")
    if device_id == 0:
        return 0.0
    return delta0_s + (device_id - 1) * delta1_s


def round_duration(
    num_devices: int,
    delta0_s: float = DELTA0_S,
    delta1_s: float = DELTA1_S,
    all_in_range: bool = True,
) -> float:
    """Maximum round-trip time of a protocol run (paper latency analysis).

    ``Delta_0 + (N-1) Delta_1`` normally; twice the slot span when some
    devices must wait a full extra cycle after missing their slot.
    """
    if num_devices < 2:
        raise ConfigurationError("protocol needs at least 2 devices")
    span = (num_devices - 1) * delta1_s
    return delta0_s + (span if all_in_range else 2 * span)

