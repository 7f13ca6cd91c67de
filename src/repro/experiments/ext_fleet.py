"""Beyond-paper: large-fleet DES campaigns (churn, relay, mobility, MAC).

The paper evaluates 3-7 device groups; its protocol analysis (section
2.3 latency model, section 2.4 uplink budget) extends to larger N on
paper only. This experiment exercises those models at 50-200 devices
on the discrete-event engine: TDMA round durations are checked against
the analytic ``Delta_0 + (N-1) Delta_1`` prediction, the section-2.4
two-hop relay carries reports the leader cannot hear directly, and the
beyond-paper axes — node churn between rounds, devices moving during a
round, and a contention MAC — quantify what the published design does
*not* cover.

``paper`` reference numbers are therefore the paper's *model*
predictions (slot arithmetic and uplink airtime), not measured
figures; ``measured`` holds the DES outcomes.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.errors import ConfigurationError
from repro.experiments import engine
from repro.protocol.slots import round_duration
from repro.protocol.uplink import communication_latency_s
from repro.simulate.des.fleet import FleetConfig, run_fleet_campaign

#: The paper-model predictions the fleet runs are compared against.
PAPER_FLEET_MODEL = {
    "tdma_round_s": {n: round(round_duration(n), 2) for n in (50, 100, 200)},
    "uplink_wave_s": {n: round(communication_latency_s(n), 2) for n in (50, 100, 200)},
}


def format_fleet(summary: Dict[str, Any]) -> str:
    n = summary["num_devices"]
    model_round = summary["tdma_model_round_s"]
    lines = [
        f"Fleet ({n} devices, {summary['mac']} MAC, {summary['rounds']} rounds):",
        f"  active (mean)        -> {summary['mean_active']:.1f}"
        + (
            f"  [churn: {summary['churn_leaves']} leaves, "
            f"{summary['churn_joins']} joins]"
            if summary["churn_leaves"] or summary["churn_joins"]
            else ""
        ),
        f"  report coverage      -> {summary['mean_coverage']:.1%} "
        f"({summary['mean_direct_reports']:.1f} direct + "
        f"{summary['mean_relayed_reports']:.1f} relayed per round, "
        f"{summary['mean_unreachable']:.1f} unreachable)",
        f"  round duration       -> {summary['mean_round_duration_s']:.2f} s "
        f"[TDMA model {model_round:.2f} s]",
        f"  uplink latency       -> {summary['mean_uplink_latency_s']:.1f} s "
        f"({summary['mean_relay_waves']:.1f} relay waves)",
        f"  collisions / tx      -> {summary['total_collisions']} / "
        f"{summary['total_tx_attempts']}",
        f"  energy per round     -> {summary['mean_energy_j_per_round']:.1f} J mean, "
        f"{summary['max_energy_j_per_round']:.1f} J max",
    ]
    if summary["duty_silenced_total"]:
        lines.append(
            f"  duty-cycle silenced  -> {summary['duty_silenced_total']} "
            "device-rounds"
        )
    if summary["max_abs_clock_offset_s"] > 0:
        lines.append(
            f"  clock offset         -> "
            f"{summary['mean_abs_clock_offset_s'] * 1e3:.2f} ms mean, "
            f"{summary['max_abs_clock_offset_s'] * 1e3:.2f} ms max"
        )
    return "\n".join(lines)


@engine.register(
    name="fleet",
    title="Large-fleet DES campaigns (churn, relay, mobility, contention)",
    paper_ref="beyond paper (sections 2.3-2.4 at scale)",
    paper=PAPER_FLEET_MODEL,
    cost="heavy",
    variants=(
        engine.Variant("fleet50", {"num_devices": 50}),
        engine.Variant("fleet100", {"num_devices": 100}),
        engine.Variant("fleet200", {"num_devices": 200}),
        engine.Variant(
            "churn",
            {"num_devices": 60, "leave_prob": 0.08, "join_prob": 0.5},
        ),
        engine.Variant(
            "mobility",
            {"num_devices": 50, "mobility_fraction": 0.25},
        ),
        engine.Variant(
            "contention",
            {"num_devices": 50, "mac": "contention"},
        ),
        # Scale variant: 1k nodes with churn, mobility, oscillator
        # wander and a 2-round resync interval, so energy and drift
        # stats are exercised at fleet scale (DESIGN.md §10).
        engine.Variant(
            "fleet1k",
            {
                "num_devices": 1000,
                "num_rounds": 2,
                "leave_prob": 0.05,
                "join_prob": 0.5,
                "mobility_fraction": 0.15,
                "resync_interval_rounds": 2,
                "drift_wander_ppm": 2.0,
            },
        ),
    ),
    sweepable=(
        "num_devices",
        "mac",
        "leave_prob",
        "mobility_fraction",
    ),
)
def campaign(
    rng: np.random.Generator,
    *,
    scale: float = 1.0,
    num_devices: int = 100,
    num_rounds: int = 4,
    mac: str = "tdma",
    leave_prob: float = 0.0,
    join_prob: float = 0.5,
    mobility_fraction: float = 0.0,
    relay: bool = True,
    fleet_backend: str = "vec",
    resync_interval_rounds: int = 1,
    drift_wander_ppm: float = 0.0,
    duty_cycle=None,
) -> engine.ExperimentOutput:
    """One fleet variant through the DES campaign runner.

    ``fleet_backend`` is accepted for requests that still name the
    engine; ``"vec"``, the only fleet round, is its one legal value.
    """
    if fleet_backend != "vec":
        raise ConfigurationError(
            f"unknown fleet backend {fleet_backend!r} (the only one is 'vec')"
        )
    config = FleetConfig(
        num_devices=num_devices,
        num_rounds=engine.scaled(num_rounds, scale),
        mac=mac,
        leave_prob=leave_prob,
        join_prob=join_prob,
        mobility_fraction=mobility_fraction,
        relay=relay,
        resync_interval_rounds=resync_interval_rounds,
        drift_wander_ppm=drift_wander_ppm,
        duty_cycle=duty_cycle,
    )
    result = run_fleet_campaign(rng, config)
    summary = result.summary()
    return engine.ExperimentOutput(measured=summary, report=format_fleet(summary))
