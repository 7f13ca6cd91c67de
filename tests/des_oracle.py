"""The generic per-event simulator the round oracles run on.

Production runs no generic event engine: the protocol round is one
first-arrival loop (``repro.protocol.round``) and every fleet round
runs on ``repro.simulate.des.fleetvec``.  This module keeps the
per-event engine both were derived from, as the shared base of two
frozen oracles in ``tests/legacy_oracles.py``: the DES protocol round
(:func:`legacy_oracles.des_protocol_round`) and the per-event fleet
round (:func:`legacy_oracles.event_fleet_round`).

* :class:`Simulator` — one ``heapq`` ordered by ``(time, seq)``, where
  ``seq`` is a schedule counter, so simultaneous events fire in the
  order they were scheduled; a time in the past clamps to ``now``.
* :class:`AcousticMedium` — fans a broadcast out to every attached
  receiver in ascending id order, evaluating the distance at transmit
  time, gating on connectivity and loss, and scheduling the delivery
  at ``tx + d / c + noise``.
* :class:`DesNode` — timestamps arrivals in the device's local clock
  and models half-real reception: a packet with airtime occupies the
  receiver until it completes, overlapping packets corrupt each other,
  and a transmitting node is deaf.
* :class:`TdmaMac` — the paper's slot policy; zero airtime is the
  protocol round's instantaneous, collision-free mode.
* :class:`EnergyAccount` — per-node seconds per radio state, priced by
  :class:`~repro.simulate.des.energy.EnergyModel`.

All randomness is drawn inside event callbacks, in event order, from
generators owned by the caller, so a fixed seed fixes the schedule.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.constants import DELTA0_S, DELTA1_S
from repro.devices.clock import DeviceClock
from repro.devices.device import Device
from repro.errors import ConfigurationError
from repro.protocol.messages import TimestampReport
from repro.protocol.sync import infer_transmit_slot
from repro.simulate.des.energy import EnergyModel


class Simulator:
    """A deterministic discrete-event loop."""

    def __init__(self):
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, Callable[..., None], Tuple[Any, ...]]] = []
        self._seq = 0

    def at(self, time_s: float, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` at absolute time ``time_s``.

        Times in the past are clamped to ``now`` (the event fires after
        the events already scheduled at ``now``): a noise draw may put
        an arrival slightly before its transmission, and clamping keeps
        the loop monotone without changing any recorded timestamp.
        """
        heapq.heappush(self._heap, (max(float(time_s), self.now), self._seq, callback, args))
        self._seq += 1

    def after(self, delay_s: float, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` ``delay_s`` from now."""
        if delay_s < 0:
            raise ConfigurationError("cannot schedule a negative delay")
        self.at(self.now + delay_s, callback, *args)

    def run(self, max_events: int = 10_000_000) -> float:
        """Drain the queue; returns the time of the last fired event.

        Raises :class:`ConfigurationError` when ``max_events`` fire
        without draining the queue (a self-rescheduling runaway).
        """
        for _ in range(max_events):
            if not self._heap:
                return self.now
            self.now, _seq, callback, args = heapq.heappop(self._heap)
            callback(*args)
        if self._heap:
            raise ConfigurationError(f"event budget exhausted after {max_events} events")
        return self.now


class Arrival(NamedTuple):
    """One packet copy at one receiver; ``arrival_time_s`` is the exact
    (noise-decorated) time receivers timestamp, which the delivery event
    may fire after if it was clamped."""

    sender_id: int
    arrival_time_s: float
    duration_s: float


class AcousticMedium:
    """Broadcast channel connecting the nodes.

    ``distance_fn(receiver, sender, tx_time_s)`` gives metres; the
    optional ``connectivity_fn(receiver, sender, distance)``,
    ``loss_fn(receiver, sender)`` and
    ``delay_noise_fn(receiver, sender, distance)`` gate the link and add
    the detection error (seconds).
    """

    def __init__(
        self,
        sim: Simulator,
        sound_speed: float,
        distance_fn: Callable[[int, int, float], float],
        connectivity_fn: Optional[Callable[[int, int, float], bool]] = None,
        loss_fn: Optional[Callable[[int, int], bool]] = None,
        delay_noise_fn: Optional[Callable[[int, int, float], float]] = None,
    ):
        if sound_speed <= 0:
            raise ConfigurationError("sound speed must be positive")
        self.sim = sim
        self.sound_speed = float(sound_speed)
        self.distance_fn = distance_fn
        self.connectivity_fn = connectivity_fn
        self.loss_fn = loss_fn
        self.delay_noise_fn = delay_noise_fn
        self.nodes: Dict[int, "DesNode"] = {}
        self._order: Optional[List[int]] = None

    def attach(self, node: "DesNode") -> None:
        if node.device_id in self.nodes:
            raise ConfigurationError(f"device {node.device_id} already attached")
        self.nodes[node.device_id] = node
        self._order = None

    def broadcast(self, sender_id: int, duration_s: float, tx_time_s: float) -> None:
        """Schedule one delivery per reachable receiver, ascending ids.

        ``tx + d / c + noise`` is the fixed-point round's expression,
        term for term.
        """
        if self._order is None:
            self._order = sorted(self.nodes)
        for receiver_id in self._order:
            if receiver_id == sender_id:
                continue
            distance = float(self.distance_fn(receiver_id, sender_id, tx_time_s))
            if self.connectivity_fn is not None and not self.connectivity_fn(
                receiver_id, sender_id, distance
            ):
                continue
            if self.loss_fn is not None and self.loss_fn(receiver_id, sender_id):
                continue
            arrival_time = tx_time_s + distance / self.sound_speed
            if self.delay_noise_fn is not None:
                arrival_time = arrival_time + self.delay_noise_fn(
                    receiver_id, sender_id, distance
                )
            self.sim.at(
                arrival_time,
                self.nodes[receiver_id].deliver,
                Arrival(sender_id, arrival_time, duration_s),
            )


class EnergyAccount:
    """Seconds one node spent per state (idle, rx, tx, sleep).

    TX/RX airtime is charged as it happens; :meth:`settle_idle` charges
    the rest of the round as idle listening.
    """

    def __init__(self, model: Optional[EnergyModel] = None):
        self.model = model or EnergyModel()
        self.seconds = {"idle": 0.0, "rx": 0.0, "tx": 0.0, "sleep": 0.0}

    def charge(self, state: str, duration_s: float) -> None:
        if state not in self.seconds:
            raise ConfigurationError(f"unknown energy state {state!r}")
        if duration_s < 0:
            raise ConfigurationError("cannot charge a negative duration")
        self.seconds[state] += duration_s

    def settle_idle(self, total_s: float) -> None:
        busy = self.seconds["tx"] + self.seconds["rx"]
        self.charge("idle", max(0.0, total_s - busy))

    @property
    def total_joules(self) -> float:
        # Same state order and association as total_joules_arrays.
        return sum(
            getattr(self.model, f"{state}_w") * seconds
            for state, seconds in self.seconds.items()
        )


class DesNode:
    """One device in a per-event round.

    ``received`` maps sender to ``(global arrival, local timestamp)``
    for the first accepted copy; ``sync_ref``/``missed_slot`` record
    how the node synchronised; ``collisions`` counts packets lost to
    overlapping airtime or half-duplex.
    """

    def __init__(
        self,
        device: Device,
        sim: Simulator,
        medium: AcousticMedium,
        mac,
        energy: Optional[EnergyAccount] = None,
        may_transmit: bool = True,
    ):
        self.device = device
        self.sim = sim
        self.medium = medium
        self.mac = mac
        self.energy = energy
        # Duty-cycle gate: an exhausted node listens but never transmits.
        self.may_transmit = may_transmit
        self.received: Dict[int, Tuple[float, float]] = {}
        self.tx_time_global_s: Optional[float] = None
        self.own_tx_local_s: Optional[float] = None
        self.sync_ref: Optional[int] = None
        self.missed_slot = False
        self.collisions = 0
        self.tx_attempts = 0
        self._rx_busy_until = -1.0
        self._rx_corrupted = False
        self._tx_busy_until = -1.0
        medium.attach(self)
        mac.start(self)

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
        return self.sim.now < self._tx_busy_until

    def deliver(self, arrival: Arrival) -> None:
        """Start of one packet copy at this receiver."""
        if arrival.duration_s <= 0.0:
            self._accept(arrival)  # instantaneous, collision-free
            return
        if self.tx_busy:
            self.collisions += 1  # half-duplex: lost, opens no window
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
        self.sim.at(end, self._complete, arrival)

    def _complete(self, arrival: Arrival) -> None:
        if self.energy is not None:
            self.energy.charge("rx", arrival.duration_s)
        if not self._rx_corrupted:
            self._accept(arrival)

    def _accept(self, arrival: Arrival) -> None:
        if arrival.sender_id not in self.received:
            self.received[arrival.sender_id] = (
                arrival.arrival_time_s,
                self.clock.local_time(arrival.arrival_time_s),
            )
        self.mac.on_receive(self, arrival)

    def transmit(self, duration_s: float = 0.0, tx_time_s: Optional[float] = None) -> None:
        """Broadcast; a MAC may stamp its exact computed ``tx_time_s``,
        which differs from ``now`` only when the event was clamped."""
        tx_time = self.sim.now if tx_time_s is None else float(tx_time_s)
        self.tx_attempts += 1
        if self.tx_time_global_s is None:
            self.tx_time_global_s = tx_time
            self.own_tx_local_s = self.clock.local_time(tx_time)
        if duration_s > 0:
            self._tx_busy_until = max(self._tx_busy_until, tx_time + duration_s)
            if self.sim.now < self._rx_busy_until:
                # Transmitting over an in-progress reception corrupts it.
                self._rx_corrupted = True
                self.collisions += 1
            if self.energy is not None:
                self.energy.charge("tx", duration_s)
        self.medium.broadcast(self.device_id, duration_s, tx_time)

    def report(self, depth_m: float = 0.0) -> Optional[TimestampReport]:
        """The node's report; None when it never transmitted."""
        if self.own_tx_local_s is None:
            return None
        return TimestampReport(
            device_id=self.device_id,
            depth_m=float(depth_m),
            own_tx_local_s=self.own_tx_local_s,
            receptions={j: local for j, (_g, local) in sorted(self.received.items())},
        )


class TdmaMac:
    """The paper's slot policy: the leader transmits at 0, every other
    node infers its slot from the first beacon it accepts
    (:func:`~repro.protocol.sync.infer_transmit_slot`)."""

    def __init__(
        self,
        num_devices: int,
        delta0_s: float = DELTA0_S,
        delta1_s: float = DELTA1_S,
        packet_duration_s: float = 0.0,
    ):
        if num_devices < 2:
            raise ConfigurationError("TDMA needs at least 2 devices")
        self.num_devices = num_devices
        self.delta0_s = delta0_s
        self.delta1_s = delta1_s
        self.packet_duration_s = packet_duration_s

    def start(self, node: DesNode) -> None:
        if node.device_id == 0:
            node.sim.at(0.0, self._transmit, node, 0.0)

    def on_receive(self, node: DesNode, arrival: Arrival) -> None:
        if node.device_id == 0 or node.tx_time_global_s is not None:
            return
        if node.sync_ref is not None or not node.may_transmit:
            return
        tx_local, deferred = infer_transmit_slot(
            node.device_id,
            arrival.sender_id,
            node.clock.local_time(arrival.arrival_time_s),
            self.num_devices,
            self.delta0_s,
            self.delta1_s,
        )
        node.sync_ref = arrival.sender_id
        node.missed_slot = deferred
        tx_global = node.clock.global_time(tx_local)
        node.sim.at(tx_global, self._transmit, node, tx_global)

    def _transmit(self, node: DesNode, tx_time_s: float) -> None:
        node.transmit(self.packet_duration_s, tx_time_s)
