"""Fleet campaigns beyond the paper's testbeds (DESIGN.md §5, §10).

:mod:`repro.simulate.des.fleet` runs 50-10k node campaigns with churn,
two-hop relay, mobility-during-round and a contention MAC; each round
runs on the struct-of-arrays engine of
:mod:`repro.simulate.des.fleetvec`, pinned bit for bit to a per-event
round on a generic event simulator that lives in ``tests/`` as a test
oracle. :mod:`repro.simulate.des.energy` prices each node's radio time.
The paper's protocol round is not here: it is one first-arrival loop
in :mod:`repro.protocol.round`.
"""

from repro.simulate.des.energy import EnergyModel
from repro.simulate.des.fleet import (
    FleetConfig,
    FleetResult,
    FleetRoundStats,
    run_fleet_campaign,
)

__all__ = [
    "EnergyModel",
    "FleetConfig",
    "FleetResult",
    "FleetRoundStats",
    "run_fleet_campaign",
]
