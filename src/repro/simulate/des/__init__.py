"""Deterministic discrete-event network simulation (DESIGN.md §3-5).

The DES is the scaling substrate under the protocol simulators: a
heapq event loop with stable ``(time, seq)`` tie-breaking, per-node
processes driven by each device's local clock, propagation-delay-aware
acoustic delivery with directional loss and collision modelling,
per-node energy accounting, and pluggable MAC policies (the paper's
TDMA slots).

``repro.protocol.round.run_protocol_round`` runs on top of this engine
(bit-compatible on fixed seeds with the fixed-point round kept as a
test oracle). :mod:`repro.simulate.des.fleet` runs 50-10k node
campaigns with churn, two-hop relay, mobility-during-round and a
contention MAC; each round runs on the struct-of-arrays engine of
:mod:`repro.simulate.des.fleetvec`, pinned bit for bit to a per-event
round on this DES that is kept as a test oracle
(``tests/legacy_oracles.py``).
"""

from repro.simulate.des.core import Event, Simulator
from repro.simulate.des.energy import EnergyAccount, EnergyModel
from repro.simulate.des.fleet import (
    FleetConfig,
    FleetResult,
    FleetRoundStats,
    run_fleet_campaign,
)
from repro.simulate.des.mac import MacPolicy, TdmaMac
from repro.simulate.des.medium import AcousticMedium, Arrival
from repro.simulate.des.node import DesNode

__all__ = [
    "Event",
    "Simulator",
    "EnergyAccount",
    "EnergyModel",
    "AcousticMedium",
    "Arrival",
    "DesNode",
    "MacPolicy",
    "TdmaMac",
    "FleetConfig",
    "FleetResult",
    "FleetRoundStats",
    "run_fleet_campaign",
]
