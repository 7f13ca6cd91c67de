"""Pairwise distances from per-device timestamp reports.

The leader combines the local timestamps of devices ``i`` and ``j``
(paper section 2.3)::

    D_ij = (c / 2) * [ (T^i_j - T^i_i) - (T^j_j - T^j_i) ]

Both differences are *within* one device's clock, so unknown clock
offsets cancel exactly and only the (ppm-level) relative clock skew
over a fraction of a second remains.

When one direction of a pair was lost, the distance can still be
recovered through a common neighbour ``k`` heard by both devices: the
clock offset between ``i`` and ``j`` follows from ``k``'s beacon once
``tau_ik`` and ``tau_jk`` are known, and the surviving one-way
timestamp then yields ``tau_ij`` (paper: "Packet losses").
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.protocol.messages import TimestampReport


def two_way_distance(
    report_i: TimestampReport,
    report_j: TimestampReport,
    sound_speed: float,
) -> Optional[float]:
    """Two-way distance between two devices, or None if a leg is missing."""
    i, j = report_i.device_id, report_j.device_id
    if not report_i.heard(j) or not report_j.heard(i):
        return None
    forward = report_i.receptions[j] - report_i.own_tx_local_s
    backward = report_j.own_tx_local_s - report_j.receptions[i]
    tau = (forward - backward) / 2.0
    return sound_speed * tau


def _clock_offset_via_common(
    report_i: TimestampReport,
    report_j: TimestampReport,
    k: int,
    tau_ik: float,
    tau_jk: float,
) -> Optional[float]:
    """Offset ``clock_i - clock_j`` from a beacon both devices heard."""
    if not (report_i.heard(k) and report_j.heard(k)):
        return None
    return (report_i.receptions[k] - tau_ik) - (report_j.receptions[k] - tau_jk)


def pairwise_distances_from_reports(
    reports: Iterable[TimestampReport],
    sound_speed: float,
    recover_one_way: bool = True,
    max_recovery_passes: int = 3,
    num_devices: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Build the distance and weight matrices from all reports.

    Parameters
    ----------
    reports:
        One :class:`TimestampReport` per device (any order).
    sound_speed:
        Speed of sound used for time-to-distance conversion.
    recover_one_way:
        Attempt the common-neighbour recovery of pairs with one lost
        direction.
    max_recovery_passes:
        Recovery can cascade (a recovered pair enables another); bound
        the iteration.
    num_devices:
        Devices in the round.  The matrices are ``num_devices`` square,
        so a device that sent no report keeps a NaN row of zero weight
        (default: one more than the highest reporting id).

    Returns
    -------
    (distances, weights)
        ``distances[i, j]`` in metres where measured (NaN elsewhere);
        ``weights`` is 1 for measured links, 0 for missing.
    """
    by_id: Dict[int, TimestampReport] = {r.device_id: r for r in reports}
    ids = sorted(by_id)
    n = max(ids) + 1 if num_devices is None else int(num_devices)
    if ids and ids[-1] >= n:
        raise ValueError(f"report from device {ids[-1]} in a {n}-device round")
    distances = np.full((n, n), np.nan)
    weights = np.zeros((n, n))
    np.fill_diagonal(distances, 0.0)

    for a_idx, i in enumerate(ids):
        for j in ids[a_idx + 1 :]:
            d = two_way_distance(by_id[i], by_id[j], sound_speed)
            if d is not None and d >= 0:
                distances[i, j] = distances[j, i] = d
                weights[i, j] = weights[j, i] = 1.0

    if not recover_one_way:
        return distances, weights

    for _ in range(max_recovery_passes):
        recovered = False
        for a_idx, i in enumerate(ids):
            for j in ids[a_idx + 1 :]:
                if weights[i, j] > 0:
                    continue
                ri, rj = by_id[i], by_id[j]
                # Need exactly one surviving direction.
                if not (ri.heard(j) ^ rj.heard(i)):
                    continue
                for k in ids:
                    if k in (i, j) or weights[i, k] == 0 or weights[j, k] == 0:
                        continue
                    tau_ik = distances[i, k] / sound_speed
                    tau_jk = distances[j, k] / sound_speed
                    offset = _clock_offset_via_common(ri, rj, k, tau_ik, tau_jk)
                    if offset is None:
                        continue
                    if rj.heard(i):
                        # j heard i: arrival in j's clock vs i's tx time.
                        tx_in_j_clock = ri.own_tx_local_s - offset
                        tau = rj.receptions[i] - tx_in_j_clock
                    else:
                        tx_in_i_clock = rj.own_tx_local_s + offset
                        tau = ri.receptions[j] - tx_in_i_clock
                    if tau <= 0:
                        continue
                    distances[i, j] = distances[j, i] = sound_speed * tau
                    weights[i, j] = weights[j, i] = 1.0
                    recovered = True
                    break
        if not recovered:
            break
    return distances, weights
