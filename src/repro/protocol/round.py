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

:func:`run_protocol_round` is a thin adapter: it validates inputs,
pre-draws the per-link detection errors in a fixed order, and hands
execution to the event-driven round in
:mod:`repro.simulate.des.round_adapter`. The original straight-line
fixed-point loop lives on as a test oracle
(``tests/legacy_oracles.py``); the parity tests pin the DES round to it
report for report on fixed seeds (DESIGN.md section 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.constants import DELTA0_S, DELTA1_S
from repro.devices.clock import DeviceClock
from repro.errors import ProtocolError
from repro.protocol.messages import Beacon, TimestampReport

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
        Per-device local clocks (defaults to ideal clocks).
    depths:
        True depths; used to fill the reports' depth fields (callers
        may overwrite with sensor readings).
    arrival_noise:
        Detection-error model; see :data:`ArrivalNoiseFn`.
    rng:
        Randomness for the noise model.
    delta0_s / delta1_s:
        Protocol timing parameters.

    Raises
    ------
    ProtocolError
        On malformed inputs (non-square matrices, too few devices, a
        clock count that does not match).
    """
    d = np.asarray(distances, dtype=float)
    conn = np.asarray(connectivity, dtype=bool)
    n = d.shape[0]
    if d.shape != (n, n) or conn.shape != (n, n):
        raise ProtocolError("distances and connectivity must be square and equal shape")
    if n < 2:
        raise ProtocolError("round needs at least 2 devices")
    clocks = clocks or [DeviceClock() for _ in range(n)]
    if len(clocks) != n:
        raise ProtocolError("need one clock per device")
    rng = rng or np.random.default_rng(0)
    depths = np.zeros(n) if depths is None else np.asarray(depths, dtype=float)

    # Pre-draw the per-link detection errors (one per directed link; the
    # same physical arrival is used for sync decisions and timestamps)
    # in a fixed order, so the random stream does not depend on the
    # event schedule.
    noise: Dict[Tuple[int, int], float] = {}
    for i in range(n):
        for j in range(n):
            if i != j and conn[i, j]:
                noise[(i, j)] = arrival_noise(i, j, float(d[i, j]), rng)

    from repro.simulate.des.round_adapter import des_protocol_round

    return des_protocol_round(
        d, conn, sound_speed, clocks, depths, noise, delta0_s, delta1_s
    )
