"""Per-node protocol processes for the DES (DESIGN.md §3.3).

A :class:`DesNode` wraps one :class:`~repro.devices.device.Device`: it
timestamps arrivals in the device's *local* clock, defers all transmit
decisions to a pluggable MAC policy, accounts energy per radio state,
and models half-real reception — a packet with non-zero airtime
occupies the receiver until it completes, two packets overlapping at a
receiver corrupt each other, and a node is deaf while its own
transmission is on the air (half-duplex). This is the collision model
the contention MAC is evaluated against; TDMA guard slots exist to
make overlaps (almost) never happen.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, TYPE_CHECKING

from repro.devices.clock import DeviceClock
from repro.devices.device import Device
from repro.protocol.messages import TimestampReport
from repro.simulate.des import energy as energy_states
from repro.simulate.des.core import Simulator
from repro.simulate.des.energy import EnergyAccount
from repro.simulate.des.medium import AcousticMedium, Arrival

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulate.des.mac import MacPolicy


class DesNode:
    """One device participating in a DES round.

    Attributes
    ----------
    received:
        ``sender -> (global_arrival_s, local_timestamp_s)`` for the
        first accepted copy of each sender's packet (senders transmit
        once per round, so later copies only occur under retransmitting
        MACs and are ignored for timestamping).
    tx_time_global_s / own_tx_local_s:
        When this node transmitted (None until it does).
    sync_ref / missed_slot:
        How the node synchronised: the beacon it locked onto and
        whether it had to defer a full TDMA cycle.
    collisions:
        Packets lost at this receiver due to overlapping airtime.
    """

    def __init__(
        self,
        device: Device,
        sim: Simulator,
        medium: AcousticMedium,
        mac: "MacPolicy",
        energy: Optional[EnergyAccount] = None,
        listening: bool = True,
        may_transmit: bool = True,
    ):
        self.device = device
        self.sim = sim
        self.medium = medium
        self.mac = mac
        self.energy = energy
        self.listening = listening
        # Duty-cycle gate: a node whose airtime budget is exhausted
        # keeps listening (and burning RX energy) but its MAC must not
        # schedule a transmission this round.
        self.may_transmit = may_transmit
        self.received: Dict[int, Tuple[float, float]] = {}
        self.tx_time_global_s: Optional[float] = None
        self.own_tx_local_s: Optional[float] = None
        self.sync_ref: Optional[int] = None
        self.missed_slot = False
        self.collisions = 0
        self.tx_attempts = 0
        # Ongoing-reception / own-transmission windows for the
        # collision and half-duplex models.
        self._rx_busy_until = -1.0
        self._rx_corrupted = False
        self._tx_busy_until = -1.0
        medium.attach(self)
        mac.start(self)

    # ------------------------------------------------------------------

    @property
    def device_id(self) -> int:
        return self.device.device_id

    @property
    def clock(self) -> DeviceClock:
        return self.device.clock

    @property
    def rx_busy(self) -> bool:
        """Carrier sense: is a packet currently being received?"""
        return self.sim.now < self._rx_busy_until

    @property
    def tx_busy(self) -> bool:
        """Is this node's own transmission currently on the air?"""
        return self.sim.now < self._tx_busy_until

    # ------------------------------------------------------------------
    # Reception
    # ------------------------------------------------------------------

    def deliver(self, arrival: Arrival) -> None:
        """Start of one packet copy at this receiver (medium callback)."""
        if not self.listening:
            return
        if arrival.duration_s <= 0.0:
            # Timestamp-fidelity mode: instantaneous, collision-free.
            self._accept(arrival)
            return
        if self.tx_busy:
            # Half-duplex: a transmitting node is deaf; the packet is
            # simply lost (it does not open a reception window).
            self.collisions += 1
            return
        end = self.sim.now + arrival.duration_s
        if self.rx_busy:
            # Overlap: the ongoing packet and this one corrupt each other.
            self.collisions += 1
            self._rx_corrupted = True
            self._rx_busy_until = max(self._rx_busy_until, end)
            return
        self._rx_busy_until = end
        self._rx_corrupted = False
        self.sim.at(end, self._complete, arrival, label=f"rxdone[{self.device_id}]")

    def _complete(self, arrival: Arrival) -> None:
        """End of an uninterrupted-at-start packet: accept unless a later
        overlap corrupted it. The receive chain burned power either way."""
        if self.energy is not None:
            self.energy.charge(energy_states.RX, arrival.duration_s)
        if self._rx_corrupted:
            return
        self._accept(arrival)

    def _accept(self, arrival: Arrival) -> None:
        if arrival.sender_id not in self.received:
            self.received[arrival.sender_id] = (
                arrival.arrival_time_s,
                self.clock.local_time(arrival.arrival_time_s),
            )
        self.mac.on_receive(self, arrival)

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------

    def transmit(
        self,
        payload,
        duration_s: float = 0.0,
        tx_time_s: Optional[float] = None,
    ) -> None:
        """Broadcast a packet (records this node's own-tx timestamps on
        the first transmission).

        ``tx_time_s`` lets a MAC stamp the packet with its *computed*
        transmit time rather than the event-loop time — the two only
        differ when a non-causal noise draw forced the scheduler to
        clamp, and passing the exact float keeps the DES round
        bit-compatible with the fixed-point oracle's arithmetic.
        """
        tx_time = self.sim.now if tx_time_s is None else float(tx_time_s)
        self.tx_attempts += 1
        if self.tx_time_global_s is None:
            self.tx_time_global_s = tx_time
            self.own_tx_local_s = self.clock.local_time(tx_time)
        if duration_s > 0:
            self._tx_busy_until = max(self._tx_busy_until, tx_time + duration_s)
            if self.sim.now < self._rx_busy_until:
                # Half-duplex, the other way round: starting to transmit
                # over an in-progress reception corrupts that packet.
                self._rx_corrupted = True
                self.collisions += 1
            if self.energy is not None:
                self.energy.charge(energy_states.TX, duration_s)
        self.medium.broadcast(self.device_id, payload, duration_s, tx_time_s=tx_time)

    # ------------------------------------------------------------------
    # Churn
    # ------------------------------------------------------------------

    def leave(self) -> None:
        """Detach from the medium mid-simulation (no further deliveries;
        pending ones are ignored via the listening flag)."""
        self.listening = False
        self.medium.detach(self.device_id)

    # ------------------------------------------------------------------

    def report(self, depth_m: float = 0.0) -> Optional[TimestampReport]:
        """The node's timestamp report (None if it never transmitted —
        a silent device has nothing to upload)."""
        if self.own_tx_local_s is None:
            return None
        return TimestampReport(
            device_id=self.device_id,
            depth_m=float(depth_m),
            own_tx_local_s=self.own_tx_local_s,
            receptions={j: local for j, (_g, local) in sorted(self.received.items())},
        )
