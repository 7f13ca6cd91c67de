"""Extension bench: two-hop relay for out-of-leader-range divers.

The paper's protocol ranges devices the leader cannot hear (section
2.3) but leaves the uplink of their reports as future work (section
2.4). This bench runs the complete extended pipeline: protocol round
with one diver out of range, relay planning, report merge, and
localization of *all* divers including the unreachable one, with the
extra uplink latency accounted for.
"""

import numpy as np

from repro.devices.clock import DeviceClock
from repro.geometry import pairwise_distance_matrix
from repro.geometry.transforms import angle_of
from repro.localization.pipeline import localize
from repro.protocol.ranging_matrix import pairwise_distances_from_reports
from repro.protocol.relay import apply_relays, plan_relays, relay_uplink_latency_s
from repro.protocol.round import run_protocol_round
from repro.protocol.uplink import communication_latency_s


def _one_round(seed: int, leader_range_m: float = 20.0):
    rng = np.random.default_rng(seed)
    # Device 4 sits beyond the leader's range but inside 3's and 2's.
    base = np.array(
        [
            [0.0, 0.0, 1.5],
            [6.0, 1.0, 2.0],
            [3.0, 9.0, 1.0],
            [13.0, 7.0, 2.0],
            [21.0, 11.0, 1.5],
        ]
    )
    pts = base + np.concatenate(
        [rng.uniform(-0.5, 0.5, (5, 2)), np.zeros((5, 1))], axis=1
    )
    d = pairwise_distance_matrix(pts)
    conn = d <= leader_range_m
    np.fill_diagonal(conn, False)
    if conn[0, 4]:
        return None  # jitter pulled it into range; skip
    clocks = [DeviceClock(skew_ppm=rng.uniform(-60, 60)) for _ in range(5)]

    def noise(i, j, dist, r):
        return r.normal(0.0, 0.25 + 0.012 * dist) / 1_480.0

    outcome = run_protocol_round(
        d, conn, 1_480.0, clocks=clocks, arrival_noise=noise, rng=rng
    )
    direct = [0] + [i for i in range(1, 5) if conn[0, i] and i in outcome.reports]
    plan = plan_relays(5, direct, outcome.reports, distances=d)
    merged = apply_relays(
        {i: outcome.reports[i] for i in direct}, outcome.reports, plan
    )
    est, w = pairwise_distances_from_reports(merged.values(), 1_480.0)
    est = np.where(np.isfinite(est), est, 0.0)
    result = localize(
        est,
        pts[:, 2],
        pointing_azimuth_rad=angle_of(pts[1, :2] - pts[0, :2]),
        weights=w,
    )
    truth = pts[:, :2] - pts[0, :2]
    errors = np.linalg.norm(result.positions2d - truth, axis=1)
    return errors, plan


def test_ext_two_hop_relay(report):
    far_errors, all_errors, waves = [], [], []
    for seed in range(20):
        out = _one_round(seed)
        if out is None:
            continue
        errors, plan = out
        assert 4 in plan.relayed_ids() or not plan.unreachable
        far_errors.append(errors[4])
        all_errors.extend(errors[1:])
        waves.append(plan.num_waves)
    base_latency = communication_latency_s(5)
    from repro.protocol.relay import RelayPlan

    latency = relay_uplink_latency_s(5, RelayPlan(num_waves=max(waves)))
    report(
        "Extension (two-hop relay): one diver out of the leader's range\n"
        f"  out-of-range diver median error -> {np.median(far_errors):.2f} m\n"
        f"  group median error              -> {np.median(all_errors):.2f} m\n"
        f"  uplink latency                  -> {latency:.2f} s "
        f"(direct wave {base_latency:.2f} s + {max(waves)} relay wave)"
    )

    # The unreachable diver is localized at ordinary accuracy, and the
    # relay costs exactly one extra uplink slot.
    assert np.median(far_errors) < 2.5
    assert max(waves) == 1
