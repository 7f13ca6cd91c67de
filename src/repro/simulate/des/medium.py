"""Propagation-delay-aware acoustic message delivery (DESIGN.md §3.2).

The medium turns a broadcast into one delivery event per listening
receiver: arrival time is ``tx_time + distance / sound_speed`` plus an
optional per-link detection-error delay (the calibrated ranging-error
model), gated by a connectivity predicate (range / forced link drops)
and a directional packet-loss predicate. Distances are evaluated at
*transmit* time through a position/distance callable, so mobile nodes
see their motion reflected in the propagation delays of the very round
they move in.

Receivers are visited in ascending device-id order and any random draws
(loss, delay noise) happen inside that loop, so a fixed seed fixes the
whole delivery schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.simulate.des.core import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulate.des.node import DesNode

#: (receiver_id, sender_id, distance_m) -> True when the link exists.
ConnectivityFn = Callable[[int, int, float], bool]

#: (receiver_id, sender_id) -> True when this directed packet is lost.
LossFn = Callable[[int, int], bool]

#: (receiver_id, sender_id, distance_m) -> extra detection delay (s).
DelayNoiseFn = Callable[[int, int, float], float]

#: (receiver_id, sender_id, tx_time_s) -> metres; see AcousticMedium.
DistanceFn = Callable[[int, int, float], float]


@dataclass(frozen=True)
class Arrival:
    """One packet copy arriving at one receiver.

    ``arrival_time_s`` is the (noise-decorated) global detection time —
    the value receivers timestamp; the delivery *event* may fire at a
    clamped time if the noise model produced a non-causal offset.
    """

    sender_id: int
    receiver_id: int
    payload: Any
    tx_time_s: float
    arrival_time_s: float
    duration_s: float


class AcousticMedium:
    """Broadcast acoustic channel connecting the DES nodes.

    Parameters
    ----------
    sim:
        The event loop.
    sound_speed:
        Propagation speed (m/s).
    distance_fn:
        ``(receiver_id, sender_id, tx_time_s) -> metres`` — a static
        matrix lookup for fixed scenarios, or a trajectory evaluation
        for mobility-during-round.
    connectivity_fn / loss_fn / delay_noise_fn:
        Optional link gates and the per-link detection-error model; see
        the module docstring. All default to ideal behaviour.
    """

    def __init__(
        self,
        sim: Simulator,
        sound_speed: float,
        distance_fn: DistanceFn,
        connectivity_fn: Optional[ConnectivityFn] = None,
        loss_fn: Optional[LossFn] = None,
        delay_noise_fn: Optional[DelayNoiseFn] = None,
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
        self.packets_sent = 0
        self.packets_dropped = 0
        # Receiver visit order, cached between attach/detach calls so a
        # large fleet does not re-sort the id list on every broadcast.
        self._receiver_order: Optional[list] = None

    # ------------------------------------------------------------------

    def attach(self, node: "DesNode") -> None:
        if node.device_id in self.nodes:
            raise ConfigurationError(f"device {node.device_id} already attached")
        self.nodes[node.device_id] = node
        self._receiver_order = None

    def detach(self, device_id: int) -> None:
        """Remove a node from the medium (churn leave)."""
        self.nodes.pop(device_id, None)
        self._receiver_order = None

    # ------------------------------------------------------------------

    def broadcast(
        self,
        sender_id: int,
        payload: Any,
        duration_s: float = 0.0,
        tx_time_s: Optional[float] = None,
    ) -> int:
        """Emit a packet from ``sender_id`` (at the current sim time
        unless the MAC passes its exact computed ``tx_time_s``).

        Returns the number of delivery events scheduled. The arrival
        expression mirrors the fixed-point round oracle term for term
        (``tx + d / c + noise``) so the DES round is bit-compatible
        with it.
        """
        tx_time = self.sim.now if tx_time_s is None else float(tx_time_s)
        self.packets_sent += 1
        scheduled = 0
        if self._receiver_order is None:
            self._receiver_order = sorted(self.nodes)
        for receiver_id in self._receiver_order:
            if receiver_id == sender_id:
                continue
            node = self.nodes[receiver_id]
            if not node.listening:
                continue
            distance = float(self.distance_fn(receiver_id, sender_id, tx_time))
            if self.connectivity_fn is not None and not self.connectivity_fn(
                receiver_id, sender_id, distance
            ):
                continue
            if self.loss_fn is not None and self.loss_fn(receiver_id, sender_id):
                self.packets_dropped += 1
                continue
            arrival_time = tx_time + distance / self.sound_speed
            if self.delay_noise_fn is not None:
                arrival_time = arrival_time + self.delay_noise_fn(
                    receiver_id, sender_id, distance
                )
            arrival = Arrival(
                sender_id=sender_id,
                receiver_id=receiver_id,
                payload=payload,
                tx_time_s=tx_time,
                arrival_time_s=arrival_time,
                duration_s=duration_s,
            )
            self.sim.at(
                arrival_time,
                node.deliver,
                arrival,
                label=f"rx[{receiver_id}<-{sender_id}]",
            )
            scheduled += 1
        return scheduled
