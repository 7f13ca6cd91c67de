"""Timestamp-level execution of one protocol round.

Simulates the TDM round over true geometry and per-device clocks:
the leader transmits at global time 0; every device that hears a beacon
timestamps it in its *local* clock (with a per-reception detection
error, supplied by the caller); devices outside the leader's range
infer their slot from the first beacon they hear. The output is one
:class:`~repro.protocol.messages.TimestampReport` per device — exactly
what the leader's ranging-matrix computation consumes.

This is the timestamp-fidelity twin of the waveform simulator: the
detection-error callable is calibrated from waveform-level runs (see
DESIGN.md section 2).

:func:`run_protocol_round` validates its inputs, pre-draws the per-link
detection errors in a fixed order, and runs the round as one
first-arrival event loop. Two frozen oracles in
``tests/legacy_oracles.py`` pin it report for report on fixed seeds:
the original straight-line fixed-point loop and a round on a generic
per-event simulator (DESIGN.md section 4).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.constants import DELTA0_S, DELTA1_S
from repro.devices.clock import DeviceClock
from repro.errors import ConfigurationError, ProtocolError
from repro.protocol.messages import Beacon, TimestampReport
from repro.protocol.sync import infer_transmit_slot

#: Signature: (receiver_id, sender_id, true_distance_m, rng) -> extra
#: detection delay in seconds (may be negative; large values model a
#: reflection mistaken for the direct path).
ArrivalNoiseFn = Callable[[int, int, float, np.random.Generator], float]


def _zero_noise(receiver: int, sender: int, distance: float, rng: np.random.Generator) -> float:
    return 0.0


@dataclass
class RoundOutcome:
    """Everything observable after one protocol round.

    Attributes
    ----------
    reports:
        Per-device timestamp reports (indexed by device id).
    beacons:
        The transmitted beacons with their *global* transmit times
        (ground truth, for tests and latency measurement).
    missed_slot_ids:
        Devices that had to defer a full cycle.
    silent_ids:
        Devices that never heard any beacon and could not participate.
    duration_s:
        Global time from the leader's transmission to the last beacon's
        last arrival.
    """

    reports: Dict[int, TimestampReport]
    beacons: List[Beacon]
    global_tx_times: Dict[int, float]
    missed_slot_ids: List[int] = field(default_factory=list)
    silent_ids: List[int] = field(default_factory=list)
    duration_s: float = 0.0


def run_protocol_round(
    distances: np.ndarray,
    connectivity: np.ndarray,
    sound_speed: float,
    clocks: Optional[List[DeviceClock]] = None,
    depths: Optional[np.ndarray] = None,
    arrival_noise: ArrivalNoiseFn = _zero_noise,
    rng: Optional[np.random.Generator] = None,
    delta0_s: float = DELTA0_S,
    delta1_s: float = DELTA1_S,
) -> RoundOutcome:
    """Execute one distributed timestamp round.

    Parameters
    ----------
    distances:
        (N, N) true distances between devices (m).
    connectivity:
        (N, N) boolean matrix; ``connectivity[i, j]`` means ``i`` can
        hear ``j``. Need not be symmetric (packet loss is directional).
    sound_speed:
        Propagation speed (m/s).
    clocks:
        Per-device local clocks (``None``: ideal clocks).
    depths:
        True depths, one per device; used to fill the reports' depth
        fields (callers may overwrite with sensor readings).
    arrival_noise:
        Detection-error model; see :data:`ArrivalNoiseFn`.
    rng:
        Randomness for the noise model.
    delta0_s / delta1_s:
        Protocol timing parameters.

    Raises
    ------
    ProtocolError
        On malformed inputs: non-square matrices, too few devices, a
        clock or depth count that does not match, or a NaN, infinite or
        negative distance.
    ConfigurationError
        When the sound speed is not finite and positive.
    """
    d = np.asarray(distances, dtype=float)
    conn = np.asarray(connectivity, dtype=bool)
    n = d.shape[0]
    if d.shape != (n, n) or conn.shape != (n, n):
        raise ProtocolError("distances and connectivity must be square and equal shape")
    if n < 2:
        raise ProtocolError("round needs at least 2 devices")
    if not np.all((d >= 0.0) & np.isfinite(d)):
        raise ProtocolError("distances must be finite and non-negative")
    if not (np.isfinite(sound_speed) and sound_speed > 0):
        raise ConfigurationError("sound speed must be finite and positive")
    if clocks is None:
        clocks = [DeviceClock() for _ in range(n)]
    if len(clocks) != n:
        raise ProtocolError("need one clock per device")
    depths = np.zeros(n) if depths is None else np.asarray(depths, dtype=float)
    if depths.shape != (n,):
        raise ProtocolError("need one depth per device")
    rng = rng or np.random.default_rng(0)

    # Pre-draw the per-link detection errors (one per directed link; the
    # same physical arrival is used for sync decisions and timestamps)
    # in a fixed order, so the random stream does not depend on the
    # event schedule.
    noise: Dict[Tuple[int, int], float] = {}
    for i in range(n):
        for j in range(n):
            if i != j and conn[i, j]:
                noise[(i, j)] = arrival_noise(i, j, float(d[i, j]), rng)

    return _first_arrival_round(
        d, conn, sound_speed, clocks, depths, noise, delta0_s, delta1_s
    )


def _first_arrival_round(
    d: np.ndarray,
    conn: np.ndarray,
    sound_speed: float,
    clocks: List[DeviceClock],
    depths: np.ndarray,
    noise: Dict[Tuple[int, int], float],
    delta0_s: float,
    delta1_s: float,
) -> RoundOutcome:
    """The round as an event loop over ``(fire time, seq, node, sender,
    exact time)``; ``sender == -1`` marks the node's own transmission.

    The leader transmits at 0; a transmission reaches each connected
    receiver, in ascending id order, at ``t + d / c + noise``; a node's
    first delivered beacon fixes its slot. Fire times clamp to the
    current time (a noise draw may be acausal) while the exact times
    are what nodes record, and ``seq`` breaks ties in schedule order.
    """
    n = d.shape[0]
    c = float(sound_speed)
    heap = [(0.0, 0, 0, -1, 0.0)]
    seq = 1
    global_tx: Dict[int, float] = {}
    sync_ref: Dict[int, int] = {0: 0}
    missed: List[int] = []
    heard: List[Dict[int, float]] = [{} for _ in range(n)]
    while heap:
        now, _, node, sender, t = heapq.heappop(heap)
        if sender < 0:
            global_tx[node] = t
            for r in np.flatnonzero(conn[:, node]).tolist():
                if r != node:
                    t_arr = t + float(d[r, node]) / c + noise[(r, node)]
                    heapq.heappush(heap, (max(float(t_arr), now), seq, r, node, t_arr))
                    seq += 1
            continue
        heard[node][sender] = t
        if node in sync_ref:
            continue
        tx_local, deferred = infer_transmit_slot(
            node, sender, clocks[node].local_time(t), n, delta0_s, delta1_s
        )
        sync_ref[node] = sender
        if deferred:
            missed.append(node)
        t_tx = float(clocks[node].global_time(tx_local))
        heapq.heappush(heap, (max(t_tx, now), seq, node, -1, t_tx))
        seq += 1

    global_tx = dict(sorted(global_tx.items()))
    reports: Dict[int, TimestampReport] = {}
    last_event = 0.0
    for i, t_i in global_tx.items():
        for t in heard[i].values():
            last_event = max(last_event, t)
        reports[i] = TimestampReport(
            device_id=i,
            depth_m=float(depths[i]),
            own_tx_local_s=clocks[i].local_time(t_i),
            receptions={
                j: clocks[i].local_time(t) for j, t in sorted(heard[i].items())
            },
        )
    return RoundOutcome(
        reports=reports,
        beacons=[
            Beacon(
                sender_id=i,
                sync_ref_id=sync_ref[i],
                tx_local_time_s=clocks[i].local_time(t_i),
            )
            for i, t_i in global_tx.items()
        ],
        global_tx_times=global_tx,
        missed_slot_ids=sorted(missed),
        silent_ids=[i for i in range(1, n) if i not in global_tx],
        duration_s=last_event,
    )
