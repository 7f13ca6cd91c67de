"""Fig. 20: 2D localization with a moving device.

Five devices in the dock layout; one device (user 1, then user 2) moves
back and forth around its position at 15-50 cm/s during the rounds; its
ground truth is the trajectory midpoint. Paper: user 1's median error
grows 0.2 -> 0.3 m when moving; user 2's 0.4 -> 0.8 m.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.experiments import engine
from repro.experiments.metrics import ErrorSummary, summarize_errors
from repro.simulate.mobility import LinearBackForthTrajectory
from repro.simulate.network_sim import NetworkSimulator, RoundResult, run_rounds
from repro.simulate.scenario import Scenario, testbed_scenario

PAPER_FIG20 = {
    "user1_static": 0.2,
    "user1_moving": 0.3,
    "user2_static": 0.4,
    "user2_moving": 0.8,
}


@dataclass(frozen=True)
class MobilityStudyResult:
    """Per-device error summaries with one device in motion."""

    moving_device: int
    static_summaries: Dict[int, ErrorSummary]
    moving_summaries: Dict[int, ErrorSummary]


def run_mobility_study(
    rng: np.random.Generator,
    moving_device: int = 1,
    num_rounds: int = 24,
    speed_range_mps: tuple = (0.15, 0.50),
    amplitude_m: float = 1.0,
) -> MobilityStudyResult:
    """Compare static rounds against rounds with one device moving.

    During moving rounds the device's true position is resampled along
    its trajectory each round (the protocol round is ~2 s, so the
    device moves up to ~1 m within a round; the midpoint is the ground
    truth, as in the paper).
    """
    scenario = testbed_scenario("dock", num_devices=5, rng=rng)
    n = scenario.num_devices

    static_errors: Dict[int, List[float]] = {i: [] for i in range(1, n)}
    sim = NetworkSimulator(scenario, rng=rng)
    for outcome in sim.run_many(num_rounds):
        for i in range(1, n):
            static_errors[i].append(float(outcome.errors_2d[i]))

    base_pos = scenario.devices[moving_device].position.copy()
    trajectory = LinearBackForthTrajectory(
        center=base_pos,
        direction=np.array([1.0, 0.0, 0.0]),
        amplitude_m=amplitude_m,
        speed_mps=float(np.mean(speed_range_mps)),
    )
    moving_errors: Dict[int, List[float]] = {i: [] for i in range(1, n)}
    for outcome in _moving_rounds(rng, scenario, trajectory, moving_device, num_rounds):
        # Ground truth for the mover is the trajectory midpoint.
        true_mid = trajectory.midpoint - scenario.devices[0].position
        est = outcome.result.positions2d[moving_device]
        moving_errors[moving_device].append(float(np.linalg.norm(est - true_mid[:2])))
        for i in range(1, n):
            if i != moving_device:
                moving_errors[i].append(float(outcome.errors_2d[i]))
    scenario.devices[moving_device].position = base_pos

    return MobilityStudyResult(
        moving_device=moving_device,
        static_summaries={i: summarize_errors(v) for i, v in static_errors.items()},
        moving_summaries={i: summarize_errors(v) for i, v in moving_errors.items()},
    )


def _moving_rounds(
    rng: np.random.Generator,
    scenario: Scenario,
    trajectory: LinearBackForthTrajectory,
    moving_device: int,
    num_rounds: int,
) -> List[RoundResult]:
    """The moving rounds; disconnected ones are skipped (the leader
    would re-run them).

    Each round puts the mover at a random phase along its sweep and
    runs on a fresh simulator, all on ``rng``.
    """

    def moved(_: int) -> NetworkSimulator:
        t = float(rng.uniform(0, 4 * trajectory.amplitude_m / trajectory.speed_mps))
        scenario.devices[moving_device].position = trajectory.position(t)
        return NetworkSimulator(scenario, rng=rng)

    return run_rounds(moved, num_rounds, rng)


def format_mobility(result: MobilityStudyResult) -> str:
    m = result.moving_device
    lines = [f"Fig. 20: device {m} moving (15-50 cm/s)"]
    for i in sorted(result.static_summaries):
        s = result.static_summaries[i].median
        mv = result.moving_summaries[i].median
        marker = " <- mover" if i == m else ""
        lines.append(f"  user {i}: static {s:.2f} m -> moving {mv:.2f} m{marker}")
    lines.append(
        "  [paper: user1 0.2->0.3 m when moving; user2 0.4->0.8 m when moving]"
    )
    return "\n".join(lines)


@engine.register(
    name="fig20",
    title="2D localization with a moving device",
    paper_ref="Fig. 20",
    paper={"median_m": PAPER_FIG20},
    cost="moderate",
    variants=(
        engine.Variant("device1", {"moving_device": 1}),
        engine.Variant("device2", {"moving_device": 2}),
    ),
    sweepable=("moving_device",),
)
def campaign(rng, *, scale: float = 1.0, moving_device: int = 1, num_rounds: int = 24):
    """Static-vs-moving medians with one device in motion per variant."""
    result = run_mobility_study(
        rng, moving_device=moving_device, num_rounds=engine.scaled(num_rounds, scale)
    )
    measured = {
        "moving_device": result.moving_device,
        "static_median_m": {
            i: s.median for i, s in sorted(result.static_summaries.items())
        },
        "moving_median_m": {
            i: s.median for i, s in sorted(result.moving_summaries.items())
        },
    }
    return engine.ExperimentOutput(measured=measured, report=format_mobility(result))
