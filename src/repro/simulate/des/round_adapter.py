"""DES-backed execution of one protocol round (DESIGN.md §4).

:func:`des_protocol_round` reproduces the original straight-line
fixed-point round on top of the event engine: one :class:`DesNode` per
device, a :class:`TdmaMac` in instantaneous (zero-airtime) mode, and a
medium whose arrival arithmetic matches the fixed point's expression
term for term (``t_tx + d / c + noise``). Detection errors are
pre-drawn by the caller in a fixed order, so for a fixed seed the DES
produces *identical* :class:`~repro.protocol.messages.TimestampReport`
floats to the fixed point, which lives on as the test oracle
``tests/legacy_oracles.py::legacy_protocol_round`` — the parity
contract that let ``run_protocol_round`` become DES-only without
moving any figure number.

The parity contract assumes *causal* detection errors — every noise
draw satisfies ``noise > -distance / sound_speed``, i.e. no packet is
"detected" before it was transmitted. All shipped error models are
causal by construction (their magnitudes are far below one propagation
time). Under causality the DES's first delivered arrival equals the
fixed point's argmin; outside it the event loop clamps the acausal
delivery to the current time for heap ordering and the two may
legitimately diverge. The only other divergence is
tie-breaking: when two beacons reach an unsynchronised device at
exactly the same float time, the DES picks the earlier-scheduled
delivery while the fixed point picks the lower-indexed known
transmitter — a measure-zero event under calibrated noise.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.devices.clock import DeviceClock
from repro.devices.device import Device
from repro.protocol.messages import Beacon, TimestampReport
from repro.simulate.des.core import Simulator
from repro.simulate.des.mac import TdmaMac
from repro.simulate.des.medium import AcousticMedium
from repro.simulate.des.node import DesNode


def des_protocol_round(
    d: np.ndarray,
    conn: np.ndarray,
    sound_speed: float,
    clocks: List[DeviceClock],
    depths: np.ndarray,
    noise: Dict[Tuple[int, int], float],
    delta0_s: float,
    delta1_s: float,
):
    """Run one TDMA round through the DES; returns a ``RoundOutcome``.

    Inputs are pre-validated and the per-link detection errors are
    pre-drawn by :func:`repro.protocol.round.run_protocol_round` in a
    fixed order, independent of the event schedule.
    """
    from repro.protocol.round import RoundOutcome

    n = d.shape[0]
    sim = Simulator()
    medium = AcousticMedium(
        sim,
        sound_speed,
        distance_fn=lambda rx, tx, t: d[rx, tx],
        connectivity_fn=lambda rx, tx, dist: bool(conn[rx, tx]),
        delay_noise_fn=lambda rx, tx, dist: noise[(rx, tx)],
    )
    mac = TdmaMac(n, delta0_s, delta1_s, packet_duration_s=0.0)
    nodes = [
        DesNode(
            Device(device_id=i, position=np.zeros(3), clock=clocks[i]),
            sim,
            medium,
            mac,
        )
        for i in range(n)
    ]
    sim.run()

    global_tx: Dict[int, float] = {
        node.device_id: node.tx_time_global_s
        for node in nodes
        if node.tx_time_global_s is not None
    }
    missed = sorted(
        node.device_id for node in nodes if node.missed_slot and node.device_id in global_tx
    )
    silent = [i for i in range(1, n) if i not in global_tx]

    beacons = [
        Beacon(
            sender_id=i,
            sync_ref_id=nodes[i].sync_ref if nodes[i].sync_ref is not None else 0,
            tx_local_time_s=clocks[i].local_time(t_i),
        )
        for i, t_i in sorted(global_tx.items())
    ]

    reports: Dict[int, TimestampReport] = {}
    last_event = 0.0
    for i in range(n):
        if i not in global_tx:
            continue
        node = nodes[i]
        for _sender, (global_arrival, _local) in node.received.items():
            last_event = max(last_event, global_arrival)
        reports[i] = node.report(float(depths[i]))

    return RoundOutcome(
        reports=reports,
        beacons=beacons,
        global_tx_times=global_tx,
        missed_slot_ids=missed,
        silent_ids=silent,
        duration_s=last_event,
    )
