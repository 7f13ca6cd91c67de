"""Message and record types exchanged during a protocol round."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping


@dataclass(frozen=True)
class Beacon:
    """An acoustic packet transmitted during the round.

    Attributes
    ----------
    sender_id:
        Transmitting device.
    sync_ref_id:
        The device whose message the sender used to set its local zero
        (the leader's own beacon references itself). Devices that missed
        the leader announce their reference so receivers can interpret
        the timing (paper: "device i transmits its ID and the ID for
        device j").
    tx_local_time_s:
        Transmit time in the sender's local clock.
    """

    sender_id: int
    sync_ref_id: int
    tx_local_time_s: float


@dataclass
class TimestampReport:
    """What one device sends back to the leader after the round.

    Attributes
    ----------
    device_id:
        Reporting device.
    depth_m:
        Its measured depth.
    own_tx_local_s:
        ``T^i_i``: when it transmitted, in its own clock.
    receptions:
        ``T^i_j`` per heard sender ``j``. Fleet rounds fill it with a
        read-only view into the round's shared reception table
        (:class:`repro.simulate.des.fleetvec.ReceptionView`), senders
        ascending.
    """

    device_id: int
    depth_m: float
    own_tx_local_s: float
    receptions: Mapping[int, float] = field(default_factory=dict)

    def heard(self, sender_id: int) -> bool:
        """Whether this device timestamped ``sender_id``'s packet."""
        return sender_id in self.receptions
