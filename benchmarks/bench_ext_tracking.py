"""Extension bench: continuous tracking (paper section 5 future work).

Compares raw per-round fixes against the Kalman-fused track for a diver
swimming back and forth while the leader re-runs localization every 4 s
— quantifying what the paper's proposed sensor-fusion layer buys.
"""

import numpy as np

from repro.simulate import (
    LinearBackForthTrajectory,
    NetworkSimulator,
    testbed_scenario,
)
from repro.tracking import GroupTracker


def _run_session(seed: int, rounds: int = 16, period_s: float = 4.0):
    rng = np.random.default_rng(seed)
    scenario = testbed_scenario("dock", num_devices=5, rng=rng)
    mover = 2
    trajectory = LinearBackForthTrajectory(
        center=scenario.devices[mover].position.copy(),
        direction=np.array([1.0, 0.0, 0.0]),
        amplitude_m=2.5,
        speed_mps=0.35,
    )
    tracker = GroupTracker(num_devices=5)
    raw_errors, fused_errors = [], []
    for k in range(rounds):
        t = k * period_s
        scenario.devices[mover].position = trajectory.position(t)
        sim = NetworkSimulator(scenario, rng=rng)
        try:
            outcome = sim.run_round()
        except Exception:
            continue
        tracker.ingest_round(t, outcome)
        truth = outcome.true_positions_leader_frame[mover, :2]
        raw_errors.append(
            float(np.linalg.norm(outcome.result.positions2d[mover] - truth))
        )
        if k >= 3:  # after filter burn-in
            est = tracker.estimate(mover)
            fused_errors.append(float(np.linalg.norm(est.position_xy - truth)))
    return raw_errors, fused_errors


def test_ext_tracking_fusion(report):
    raw_all, fused_all = [], []
    for seed in range(6):
        raw, fused = _run_session(seed)
        raw_all.extend(raw)
        fused_all.extend(fused)
    raw_median = float(np.median(raw_all))
    fused_median = float(np.median(fused_all))
    report(
        "Extension (continuous tracking): moving diver, rounds every 4 s\n"
        f"  raw per-round fixes -> median {raw_median:.2f} m\n"
        f"  Kalman-fused track  -> median {fused_median:.2f} m"
    )

    # Fusion must not degrade the estimate, and both stay in the same
    # regime as the paper's mobility numbers (Fig. 20).
    assert fused_median <= raw_median * 1.2
    assert fused_median < 2.0
