"""Pluggable MAC policies for DES rounds (DESIGN.md §3.3).

:class:`TdmaMac` is the paper's protocol (section 2.3): the leader
transmits at time zero, every other device derives its TDM slot from
the first beacon it hears via
:func:`repro.protocol.sync.infer_transmit_slot`, deferring one full
cycle when its slot has effectively passed. With the paper's guard
interval this is collision-free by construction.

The beyond-paper contention MAC of fleet campaigns runs inside the
vectorized fleet round (:mod:`repro.simulate.des.fleetvec`); its
per-event twin lives with the fleet round oracle in
``tests/legacy_oracles.py``. A policy that draws randomness must draw
it *inside event callbacks* (i.e. in deterministic event order), so a
fixed seed fixes the whole schedule.
"""

from __future__ import annotations

from typing import Protocol

from repro.constants import DELTA0_S, DELTA1_S
from repro.errors import ConfigurationError
from repro.protocol.messages import Beacon
from repro.protocol.sync import infer_transmit_slot
from repro.simulate.des.medium import Arrival
from repro.simulate.des.node import DesNode


class MacPolicy(Protocol):
    """What a node needs from its medium-access policy."""

    def start(self, node: DesNode) -> None:
        """Called once when the node joins the round."""

    def on_receive(self, node: DesNode, arrival: Arrival) -> None:
        """Called for every accepted packet."""


class TdmaMac:
    """The paper's TDMA slot policy.

    Parameters
    ----------
    num_devices:
        Group size N used for slot arithmetic (device IDs, not the
        currently-active count — a churned fleet keeps its IDs).
    delta0_s / delta1_s:
        Protocol timing (processing margin / slot pitch).
    packet_duration_s:
        Airtime per beacon; 0 selects the instantaneous,
        collision-free timestamp-fidelity mode the round adapter uses.
    """

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
            # The leader opens the round at global time zero.
            node.sim.at(0.0, self._transmit, node, 0.0, 0, label="tx[0]")

    def on_receive(self, node: DesNode, arrival: Arrival) -> None:
        if node.device_id == 0 or node.tx_time_global_s is not None:
            return
        if node.sync_ref is not None:
            return  # already committed to a slot
        if not node.may_transmit:
            return  # duty-cycle budget exhausted: listen-only this round
        local_arrival = node.clock.local_time(arrival.arrival_time_s)
        tx_local, deferred = infer_transmit_slot(
            node.device_id,
            arrival.sender_id,
            local_arrival,
            self.num_devices,
            self.delta0_s,
            self.delta1_s,
        )
        node.sync_ref = arrival.sender_id
        node.missed_slot = deferred
        tx_global = node.clock.global_time(tx_local)
        node.sim.at(
            tx_global,
            self._transmit,
            node,
            tx_global,
            arrival.sender_id,
            label=f"tx[{node.device_id}]",
        )

    def _transmit(self, node: DesNode, tx_time_s: float, sync_ref: int) -> None:
        node.transmit(
            Beacon(
                sender_id=node.device_id,
                sync_ref_id=sync_ref,
                tx_local_time_s=node.clock.local_time(tx_time_s),
            ),
            duration_s=self.packet_duration_s,
            tx_time_s=tx_time_s,
        )
