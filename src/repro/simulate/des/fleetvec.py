"""The fleet round engine (DESIGN.md §10).

``run_fleet_round_vec`` runs every round of
:func:`repro.simulate.des.fleet.run_fleet_campaign`. It replays exactly
the round a per-event DES (one node object per device on a generic
event loop) would run — same medium, same MACs, same reports; that
per-event round is kept as the parity oracle in
``tests/legacy_oracles.py`` — but holds all per-node state in
struct-of-arrays form and coalesces the per-packet event storm into a
handful of *batch* heap entries:

* one transmission becomes one **delivery batch**: distances from the
  sender to every node are one vectorized reduction (bit-identical to
  the event medium's per-pair squared-difference expression), the
  per-receiver loss and detection-noise draws — which the determinism
  contract requires to be scalar, in ascending receiver order — run
  only over the ~degree in-range receivers, and the surviving
  deliveries travel as sorted columns inside a single heap entry;
* the reception windows a delivery batch opens become one **completion
  batch**; the scalar MAC reaction runs only for receivers still
  hunting a sync beacon (once per node per round, not once per packet).

A batch entry is processed as far as the next pending heap event
allows ("hazard splitting"): entries strictly below the heap head's
``(time, seq)`` key are consumed in one slice, the remainder is pushed
back keyed by its first pending entry. Within a slice all receivers
are distinct (a broadcast delivers at most once per node), so
slice-internal coalescing cannot affect node state or the RNG draw
sequence, and the per-event schedule is reproduced bit for bit;
the only legal divergence is the ``seq`` tie-breaker of events whose
float times collide exactly, which no finite-noise configuration
produces. MAC pushes made *during* a slice always land ≥ DELTA0_S
(0.6 s) past the reacting entry — beyond any slice's ~25 ms packet
spread — so they never belonged inside the slice being consumed.

Slices average a dozen-odd entries, far below the break-even size of
numpy masking, so the per-entry state machine runs as plain Python
loops over list columns; numpy appears only where a whole fleet is
touched at once (distance rows, trajectory evaluation, the round-end
report/energy assembly). Accepted receptions, the round's largest
state, accumulate unboxed in ``array.array`` columns and end the round
as one receiver-major reception table that every report reads through
a :class:`ReceptionView`.
"""

from __future__ import annotations

import heapq
from array import array
from bisect import bisect_left
from collections.abc import ItemsView, Mapping
from math import isnan
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.constants import DELTA0_S, DELTA1_S
from repro.protocol.messages import TimestampReport
from repro.protocol.sync import infer_transmit_slot
from repro.simulate.des.energy import EnergyModel, total_joules_arrays
from repro.simulate.mobility import (
    linear_back_forth_positions,
    normalize_directions,
)

# Heap entry kinds (never compared: the (time, seq) prefix is unique).
_TX = 0
_ATTEMPT = 1
_DELIVER = 2
_COMPLETE = 3

_MAX_EVENTS = 10_000_000


class _Batch:
    """One delivery or completion batch: parallel list columns plus a
    cursor. Plain lists beat numpy arrays here — slices are consumed a
    handful of scalar reads at a time, where list indexing runs ~3x
    faster than numpy scalar reads."""

    __slots__ = ("times", "seqs", "recvs", "arrivals", "sender", "cursor")

    def __init__(self, times, seqs, recvs, arrivals, sender):
        self.times = times
        self.seqs = seqs
        self.recvs = recvs
        self.arrivals = arrivals
        self.sender = sender
        self.cursor = 0


class ReceptionView(Mapping):
    """One node's receptions in a round: a read-only ``{sender: local
    time}`` mapping over rows ``start:stop`` of the round's reception
    table, senders ascending.

    All reports of a round share the table's two columns, so a
    reception costs 16 bytes rather than a boxed dict entry."""

    __slots__ = ("_senders", "_local", "_start", "_stop")

    def __init__(self, senders: np.ndarray, local: np.ndarray, start: int, stop: int):
        self._senders = senders
        self._local = local
        self._start = start
        self._stop = stop

    def __len__(self) -> int:
        return self._stop - self._start

    def __iter__(self) -> Iterator[int]:
        return iter(self._senders[self._start : self._stop].tolist())

    def __getitem__(self, sender) -> float:
        senders, stop = self._senders, self._stop
        try:
            j = bisect_left(senders, sender, self._start, stop)
        except TypeError:  # not comparable with an integer id
            raise KeyError(sender) from None
        if j < stop and senders[j] == sender:
            return float(self._local[j])
        raise KeyError(sender)

    def items(self) -> "_ReceptionItems":
        return _ReceptionItems(self)

    def __repr__(self) -> str:
        return f"ReceptionView({dict(self.items())!r})"


class _ReceptionItems(ItemsView):
    """``ReceptionView.items()``: iterates both columns in one pass
    instead of one bisect per sender."""

    __slots__ = ()

    def __iter__(self) -> Iterator[Tuple[int, float]]:
        view = self._mapping
        rows = slice(view._start, view._stop)
        return zip(view._senders[rows].tolist(), view._local[rows].tolist())


def _reception_table(
    recvs: array,
    arrivals: array,
    run_senders: array,
    run_lengths: array,
    epoch: np.ndarray,
    rate: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, List[int]]:
    """Sort a round's accepted receptions into receiver-major columns.

    Returns ``(senders, local, bounds)``: receiver ``i``'s receptions
    are rows ``bounds[i]:bounds[i + 1]``, senders ascending (the
    order a node's report emits; a duplicate (receiver, sender) pair
    cannot occur, since every device transmits at most once per round
    under both MACs), with arrival times in the receiver's local clock.
    """
    rr = np.frombuffer(recvs, dtype=np.int64)
    ss = np.repeat(
        np.frombuffer(run_senders, dtype=np.int64),
        np.frombuffer(run_lengths, dtype=np.int64),
    )
    local = (np.frombuffer(arrivals) - epoch[rr]) * rate[rr]
    order = np.lexsort((ss, rr))
    offsets = np.zeros(len(epoch) + 1, dtype=np.int64)
    np.cumsum(np.bincount(rr, minlength=len(epoch)), out=offsets[1:])
    return ss[order], local[order], offsets.tolist()


def run_fleet_round_vec(
    scenario,
    active: List[int],
    trajectories: Dict,
    campaign_time_s: float,
    config,
    rng: np.random.Generator,
    may_transmit: Optional[np.ndarray] = None,
    epoch_eff: Optional[np.ndarray] = None,
) -> Tuple[object, Dict[int, TimestampReport], float, Dict[int, float]]:
    """One fleet round on the struct-of-arrays engine.

    Returns ``(stats, reports, elapsed_s, tx_times)``: the round's
    :class:`~repro.simulate.des.fleet.FleetRoundStats`, the report of
    every device that transmitted, the round's DES time plus uplink
    latency, and each transmitter's first global transmit time.
    """
    from repro.simulate.des.fleet import _finish_round

    num = scenario.num_devices
    devices = scenario.devices
    sound_speed = scenario.sound_speed()
    error_model = config.error_model
    loss_prob = float(error_model.loss_prob)
    duration_s = float(config.packet_duration_s)
    max_range = float(config.max_range_m)
    is_tdma = config.mac == "tdma"
    window_s = float(config.contention_window_s)
    max_attempts = 4  # contention tries before a device gives up
    # RangingErrorModel.detection_error_m is inlined per candidate below;
    # FleetConfig admits no subclass that could override it.
    base_std = float(error_model.base_std_m)
    std_per_m = float(error_model.std_per_m)
    outlier_prob = float(error_model.outlier_prob)
    outlier_lo, outlier_hi = error_model.outlier_bias_m
    rng_random = rng.random
    rng_standard_normal = rng.standard_normal
    rng_uniform = rng.uniform

    # ------------------------------------------------------------------
    # Struct-of-arrays node state. Columns touched whole-fleet at a time
    # stay numpy; columns only ever read/written per event are plain
    # lists (scalar list access is markedly cheaper).
    # ------------------------------------------------------------------
    positions = np.vstack([d.position for d in devices])
    skew_ppm = np.array([d.clock.skew_ppm for d in devices])
    rate = 1.0 + skew_ppm * 1e-6
    if epoch_eff is not None:
        epoch = np.asarray(epoch_eff, dtype=float)
    else:
        epoch = np.array([d.clock.epoch_s for d in devices])
    if may_transmit is None:
        may_tx = np.ones(num, dtype=bool)
    else:
        may_tx = np.asarray(may_transmit, dtype=bool)
    epoch_l = epoch.tolist()
    rate_l = rate.tolist()

    active_mask = np.zeros(num, dtype=bool)
    active_mask[active] = True

    sync_ref = [-1] * num
    missed = [False] * num
    tx_time = [float("nan")] * num
    own_tx_local = [float("nan")] * num
    tx_attempts = [0] * num
    collisions = [0] * num
    rx_busy_until = [-1.0] * num
    rx_corrupt = [False] * num
    tx_busy_until = [-1.0] * num
    rx_seconds = [0.0] * num
    tx_seconds = [0.0] * num
    gave_up = 0
    # Nodes that could still take the MAC sync branch: active,
    # non-leader, transmit-allowed, not yet locked onto a beacon. Once
    # none remain, accepted packets skip the eligibility test entirely
    # (ineligible receivers draw nothing, so the RNG stream is safe).
    # For a non-leader, sync_ref == -1 implies tx_time is still NaN
    # under both MACs, so this single flag covers the TDMA checks too.
    sync_arr = active_mask & may_tx
    sync_arr[0] = False
    pending_sync = int(sync_arr.sum())
    sync_eligible = sync_arr.tolist()

    # Movers, pre-normalised once so every broadcast evaluates the whole
    # fleet's trajectories in one call (bit-identical to the scalar
    # per-pair evaluation the event medium performs).
    mover_ids = sorted(trajectories)
    if mover_ids:
        m_centers = np.vstack([trajectories[i].center for i in mover_ids])
        m_dirs = normalize_directions(
            np.vstack([trajectories[i].direction for i in mover_ids])
        )
        m_amps = np.array([trajectories[i].amplitude_m for i in mover_ids])
        m_speeds = np.array([trajectories[i].speed_mps for i in mover_ids])
        mover_idx = np.array(mover_ids, dtype=np.int64)

    # Accepted receptions: flat receiver/arrival columns plus one
    # (sender, run length) pair per contiguous accepted run, unboxed
    # (8 bytes an entry) and sorted into the reception table once at
    # round end.
    rec_recvs = array("q")
    rec_arrivals = array("d")
    run_senders = array("q")
    run_lengths = array("q")

    heap: list = []
    seq = 0
    now = 0.0
    events = 0

    def push(t: float, kind: int, a, b) -> None:
        nonlocal seq
        heapq.heappush(heap, (t, seq, kind, a, b))
        seq += 1

    # ------------------------------------------------------------------
    # Handlers (mirroring the oracle's node, medium and MACs in
    # tests/des_oracle.py and tests/legacy_oracles.py)
    # ------------------------------------------------------------------

    def broadcast(sender: int, t_tx: float, t_event: float) -> None:
        """Vectorized medium.broadcast: one batched distance row, then
        the contract-mandated scalar draws in ascending receiver id."""
        nonlocal seq
        if mover_ids:
            positions[mover_idx] = linear_back_forth_positions(
                m_centers, m_dirs, m_amps, m_speeds, campaign_time_s + t_tx
            )
        deltas = positions - positions[sender]
        dists = np.sqrt((deltas**2).sum(axis=1))
        cand = active_mask & (dists <= max_range)
        cand[sender] = False
        idx = np.flatnonzero(cand)
        if not idx.size:
            return
        cand_dists = dists[idx]
        # Element-wise twins of the event medium's scalar expressions:
        # sigma = base + slope * d and arrival = tx + d / c (the noise
        # term lands on top of the latter, scalar, below).
        sigmas = (base_std + std_per_m * cand_dists).tolist()
        base_arrivals = (t_tx + cand_dists / sound_speed).tolist()
        recvs: List[int] = []
        arrivals: List[float] = []
        for r, sigma, base_arrival in zip(idx.tolist(), sigmas, base_arrivals):
            if rng_random() < loss_prob:
                continue
            # Inlined RangingErrorModel.detection_error_m (same rng
            # stream: normal(0, s) == s * standard_normal()).
            err = sigma * rng_standard_normal()
            if rng_random() < outlier_prob:
                err += rng_uniform(outlier_lo, outlier_hi)
            recvs.append(r)
            arrivals.append(base_arrival + err / sound_speed)
        n = len(recvs)
        if not n:
            return
        # Survivors take consecutive schedule numbers in receiver order,
        # exactly as the event medium's per-delivery sim.at() calls do;
        # a stable sort on the (clamped) fire times therefore orders by
        # (time, seq).
        arr = np.array(arrivals)
        times = np.maximum(arr, t_event)  # sim.at() clamps to "now"
        order = np.argsort(times, kind="stable").tolist()
        batch = _Batch(
            times[order].tolist(),
            [seq + o for o in order],
            [recvs[o] for o in order],
            [arrivals[o] for o in order],
            sender,
        )
        seq += n
        heapq.heappush(
            heap, (batch.times[0], batch.seqs[0], _DELIVER, batch, None)
        )

    def transmit(i: int, t_tx: float, t_event: float) -> None:
        """The node's transmit: stamp, occupy the channel, corrupt an
        in-progress reception (half-duplex), charge TX energy."""
        tx_attempts[i] += 1
        if isnan(tx_time[i]):
            tx_time[i] = t_tx
            own_tx_local[i] = (t_tx - epoch_l[i]) * rate_l[i]
        if duration_s > 0:
            end = t_tx + duration_s
            if end > tx_busy_until[i]:
                tx_busy_until[i] = end
            if t_event < rx_busy_until[i]:
                rx_corrupt[i] = True
                collisions[i] += 1
            tx_seconds[i] += duration_s
        broadcast(i, t_tx, t_event)

    def attempt(i: int, k: int, t_event: float) -> None:
        """The contention MAC's attempt: carrier sense, then a backoff
        from a doubled window or the transmission."""
        nonlocal gave_up
        if t_event < rx_busy_until[i] or t_event < tx_busy_until[i]:
            if k >= max_attempts:
                gave_up += 1
                return
            backoff = float(rng_uniform(0.0, window_s * (2.0**k)))
            push(t_event + backoff, _ATTEMPT, i, k + 1)
            return
        transmit(i, t_event, t_event)

    def mac_react(r: int, sender: int, arrival: float, t_event: float) -> None:
        """The accepted-packet MAC reaction for a receiver that is still
        unsynchronised and allowed to transmit (the caller has already
        applied the eligibility test): TDMA slot inference or the
        contention backoff draw, exactly as the scalar policies run it."""
        nonlocal pending_sync
        pending_sync -= 1
        sync_eligible[r] = False
        if is_tdma:
            local_arrival = (arrival - epoch_l[r]) * rate_l[r]
            tx_local, deferred = infer_transmit_slot(
                r, sender, local_arrival, num, DELTA0_S, DELTA1_S
            )
            sync_ref[r] = sender
            missed[r] = deferred
            tx_global = tx_local / rate_l[r] + epoch_l[r]
            push(max(tx_global, t_event), _TX, r, tx_global)
        else:
            sync_ref[r] = sender
            backoff = DELTA0_S + float(rng_uniform(0.0, window_s))
            push(t_event + backoff, _ATTEMPT, r, 1)

    def slice_end(batch: _Batch) -> int:
        """Entries processable now: strictly below the heap head's
        (time, seq) key — the hazard-splitting rule."""
        end = len(batch.times)
        if not heap:
            return end
        limit_t, limit_s = heap[0][0], heap[0][1]
        times = batch.times
        seqs = batch.seqs
        j = batch.cursor
        # Plain scan: slices average ~a dozen entries, well under the
        # break-even point of a binary search through numpy calls.
        while j < end and (
            times[j] < limit_t or (times[j] == limit_t and seqs[j] < limit_s)
        ):
            j += 1
        return j

    def process_deliver(batch: _Batch) -> float:
        """The node's deliver over one slice of a broadcast, entry by entry
        in the event engine's exact order (receivers within a slice are
        distinct, so the per-entry state machine is independent)."""
        nonlocal seq
        j0 = batch.cursor
        j1 = slice_end(batch)
        times = batch.times
        recvs = batch.recvs
        arrivals = batch.arrivals
        sender = batch.sender
        if duration_s <= 0.0:
            # Timestamp-fidelity mode: instantaneous, collision-free.
            cnt = 0
            for j in range(j0, j1):
                r = recvs[j]
                rec_recvs.append(r)
                rec_arrivals.append(arrivals[j])
                cnt += 1
                if pending_sync and sync_eligible[r]:
                    mac_react(r, sender, arrivals[j], times[j])
            if cnt:
                run_senders.append(sender)
                run_lengths.append(cnt)
        else:
            op_t: List[float] = []
            op_r: List[int] = []
            op_a: List[float] = []
            for j in range(j0, j1):
                r = recvs[j]
                t = times[j]
                if t < tx_busy_until[r]:
                    # Half-duplex: a transmitter is deaf to arrivals.
                    collisions[r] += 1
                    continue
                if t < rx_busy_until[r]:
                    # Overlapping packet: both corrupt; window extends.
                    collisions[r] += 1
                    rx_corrupt[r] = True
                    end = t + duration_s
                    if end > rx_busy_until[r]:
                        rx_busy_until[r] = end
                    continue
                rx_busy_until[r] = t + duration_s
                rx_corrupt[r] = False
                op_r.append(r)
                op_t.append(t + duration_s)
                op_a.append(arrivals[j])
            if op_r:
                n = len(op_r)
                cbatch = _Batch(op_t, list(range(seq, seq + n)), op_r, op_a, sender)
                seq += n
                heapq.heappush(
                    heap, (op_t[0], cbatch.seqs[0], _COMPLETE, cbatch, None)
                )
        batch.cursor = j1
        if j1 < len(batch.times):
            heapq.heappush(
                heap, (batch.times[j1], batch.seqs[j1], _DELIVER, batch, None)
            )
        return batch.times[j1 - 1]

    def process_complete(batch: _Batch) -> float:
        """The node's packet completion over one slice: RX energy burns either way;
        uncorrupted windows accept and (maybe) trigger the MAC."""
        j0 = batch.cursor
        j1 = slice_end(batch)
        times = batch.times
        recvs = batch.recvs
        arrivals = batch.arrivals
        sender = batch.sender
        cnt = 0
        for j in range(j0, j1):
            r = recvs[j]
            rx_seconds[r] += duration_s
            if rx_corrupt[r]:
                continue
            rec_recvs.append(r)
            rec_arrivals.append(arrivals[j])
            cnt += 1
            if pending_sync and sync_eligible[r]:
                mac_react(r, sender, arrivals[j], times[j])
        if cnt:
            run_senders.append(sender)
            run_lengths.append(cnt)
        batch.cursor = j1
        if j1 < len(batch.times):
            heapq.heappush(
                heap, (batch.times[j1], batch.seqs[j1], _COMPLETE, batch, None)
            )
        return batch.times[j1 - 1]

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------
    push(0.0, _TX, 0, 0.0)  # the leader opens the round at time zero

    while heap:
        t, _sq, kind, a, b = heapq.heappop(heap)
        events += 1
        if events > _MAX_EVENTS:
            raise RuntimeError("vec fleet round exceeded the event budget")
        if kind == _TX:
            now = t
            transmit(a, b, t)
        elif kind == _ATTEMPT:
            now = t
            attempt(a, b, t)
        elif kind == _DELIVER:
            now = process_deliver(a)
        else:
            now = process_complete(a)

    duration = now

    # ------------------------------------------------------------------
    # Round wrap-up: reports, energy, shared post-processing
    # ------------------------------------------------------------------
    senders, local, bounds = _reception_table(
        rec_recvs, rec_arrivals, run_senders, run_lengths, epoch, rate
    )
    # The table holds its own copies; free the accumulation buffers.
    del rec_recvs, rec_arrivals, run_senders, run_lengths

    reports: Dict[int, TimestampReport] = {}
    tx_times: Dict[int, float] = {}
    for i in active:
        if isnan(own_tx_local[i]):
            continue
        reports[i] = TimestampReport(
            device_id=i,
            depth_m=float(devices[i].depth_m),
            own_tx_local_s=float(own_tx_local[i]),
            receptions=ReceptionView(senders, local, bounds[i], bounds[i + 1]),
        )
        tx_times[i] = tx_time[i]

    tx_sec = np.array(tx_seconds)
    rx_sec = np.array(rx_seconds)
    idle_seconds = np.maximum(0.0, duration - (tx_sec + rx_sec))
    energies = np.empty(num)
    groups: Dict[int, Tuple[object, List[int]]] = {}
    for i in active:
        key = id(devices[i].model)
        groups.setdefault(key, (devices[i].model, []))[1].append(i)
    for model, ids in groups.values():
        grp = np.array(ids, dtype=np.int64)
        energies[grp] = total_joules_arrays(
            EnergyModel.from_device_model(model),
            idle_seconds[grp],
            rx_sec[grp],
            tx_sec[grp],
        )

    leader_heard = set(senders[bounds[0] : bounds[1]].tolist())
    stats, elapsed = _finish_round(
        scenario,
        config,
        active,
        reports,
        leader_heard=leader_heard,
        missed_slots=sum(missed[i] for i in active),
        collisions=sum(collisions[i] for i in active),
        tx_attempts=sum(tx_attempts[i] for i in active),
        gave_up=gave_up,
        energies=energies[active],
        duration=duration,
    )
    return stats, reports, elapsed, tx_times
