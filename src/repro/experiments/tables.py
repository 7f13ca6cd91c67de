"""The paper's in-text tables: protocol latency, flipping accuracy,
uplink latency, battery life.

* Protocol round time (section 3.2): 1.2/1.6/1.9/2.2/2.5 s for 3-7
  devices.
* Flipping disambiguation (section 3.2): 90.1% with one voter, 100%
  with three voters, over 50 rounds.
* Communication latency (section 2.4): ~0.9/1.0/1.2 s for N=6/7/8 at
  100 bps per device.
* Battery life (section 3.1): watch -90%, phone -63% after 4.5 h of
  continuous transmission.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.constants import DELTA0_S, DELTA1_S
from repro.devices.models import APPLE_WATCH_ULTRA, SAMSUNG_S9, DeviceModel
from repro.experiments import engine
from repro.protocol.slots import round_duration
from repro.protocol.uplink import communication_latency_s
from repro.simulate.network_sim import NetworkSimulator, run_rounds
from repro.simulate.scenario import testbed_scenario

PAPER_ROUND_TIMES_S = {3: 1.2, 4: 1.6, 5: 1.9, 6: 2.2, 7: 2.5}
PAPER_FLIPPING = {1: 0.901, 3: 1.0}
PAPER_COMM_LATENCY_S = {6: 0.9, 7: 1.0, 8: 1.2}
PAPER_BATTERY_DROP = {"apple_watch_ultra": 0.90, "samsung_s9": 0.63}


@dataclass(frozen=True)
class RoundTimeResult:
    """Measured vs scheduled protocol round time for one group size."""

    num_devices: int
    measured_mean_s: float
    schedule_bound_s: float


def run_round_times(
    rng: np.random.Generator,
    device_counts: Sequence[int] = (3, 4, 5, 6, 7),
    rounds_per_count: int = 10,
) -> List[RoundTimeResult]:
    """Protocol round time vs group size.

    Measured time is leader-transmission to last-packet-arrival plus
    one packet duration (the last packet must finish playing); the
    schedule bound is ``Delta_0 + (N - 1) Delta_1``.
    """
    from repro.constants import T_PACKET_S
    from repro.protocol.round import run_protocol_round

    results = []
    for n in device_counts:
        durations = []
        for _ in range(rounds_per_count):
            # Latency only needs the protocol layer, not localization.
            scenario = testbed_scenario("dock", num_devices=n, rng=rng)
            outcome = run_protocol_round(
                scenario.true_distances(),
                scenario.connectivity(),
                scenario.sound_speed(),
                clocks=[dev.clock for dev in scenario.devices],
                depths=scenario.depths,
                rng=rng,
            )
            durations.append(outcome.duration_s + T_PACKET_S)
        results.append(
            RoundTimeResult(
                num_devices=int(n),
                measured_mean_s=float(np.mean(durations)),
                schedule_bound_s=round_duration(n, DELTA0_S, DELTA1_S),
            )
        )
    return results


@dataclass(frozen=True)
class FlippingResult:
    """Flip-disambiguation accuracy for a number of voters."""

    num_voters: int
    accuracy: float
    num_rounds: int


def run_flipping_accuracy(
    rng: np.random.Generator,
    voter_counts: Sequence[int] = (1, 3),
    num_rounds: int = 50,
) -> List[FlippingResult]:
    """Flip accuracy with 1 vs 3 voters over 5-device rounds.

    Each attempt draws a fresh dock scenario. A disconnected round is
    re-run, as the leader would, up to ``3 * num_rounds`` attempts per
    voter count. Each :func:`run_rounds` call makes as many attempts as
    can still be needed and allowed, so the attempts (and ``rng``) are
    those of one round at a time.
    """

    def fresh(_: int) -> NetworkSimulator:
        return NetworkSimulator(testbed_scenario("dock", num_devices=5, rng=rng), rng=rng)

    results = []
    for voters in voter_counts:
        correct = 0
        completed = 0
        attempts = 0
        while completed < num_rounds and attempts < 3 * num_rounds:
            count = min(num_rounds - completed, 3 * num_rounds - attempts)
            rounds = run_rounds(fresh, count, rng, flip_voters=voters)
            attempts += count
            completed += len(rounds)
            correct += sum(int(outcome.flip_correct) for outcome in rounds)
        results.append(
            FlippingResult(
                num_voters=int(voters),
                accuracy=correct / max(completed, 1),
                num_rounds=completed,
            )
        )
    return results


@dataclass(frozen=True)
class BatteryResult:
    """Battery drop after a duty-cycled transmission session."""

    model: str
    hours: float
    battery_drop_fraction: float


def run_battery_model(
    duration_h: float = 4.5,
    duty_cycle: float = 0.12,
    voltage_v: float = 3.85,
    models: Sequence[DeviceModel] = (APPLE_WATCH_ULTRA, SAMSUNG_S9),
) -> List[BatteryResult]:
    """Duty-cycle battery model for the paper's 4.5 h sessions.

    The paper transmitted the preamble every 3 s (smartphone) or ran the
    SOS siren continuously (watch); we model average power as
    ``idle + duty * acoustic`` and convert through the battery capacity.
    """
    results = []
    for model in models:
        if model is APPLE_WATCH_ULTRA:
            # Continuous siren: full acoustic duty.
            avg_power_w = model.idle_power_w + model.acoustic_power_w
        else:
            avg_power_w = model.idle_power_w + duty_cycle * model.acoustic_power_w
        capacity_wh = model.battery_mah / 1000.0 * voltage_v
        drop = min(avg_power_w * duration_h / capacity_wh, 1.0)
        results.append(
            BatteryResult(
                model=model.name, hours=duration_h, battery_drop_fraction=float(drop)
            )
        )
    return results


def run_comm_latency(device_counts: Sequence[int] = (6, 7, 8)) -> Dict[int, float]:
    """Uplink latency per group size (analytic, section 2.4)."""
    return {int(n): communication_latency_s(n) for n in device_counts}


def format_round_times(results: List[RoundTimeResult]) -> str:
    lines = ["Protocol round time: N -> measured / schedule bound (s) [paper]"]
    for r in results:
        ref = PAPER_ROUND_TIMES_S.get(r.num_devices)
        ref_str = f"{ref:.1f}" if ref else "-"
        lines.append(
            f"  N={r.num_devices} -> {r.measured_mean_s:.2f} / "
            f"{r.schedule_bound_s:.2f}  [{ref_str}]"
        )
    return "\n".join(lines)


def format_flipping(results: List[FlippingResult]) -> str:
    lines = ["Flipping disambiguation: voters -> accuracy [paper]"]
    for r in results:
        ref = PAPER_FLIPPING.get(r.num_voters)
        ref_str = f"{ref:.1%}" if ref else "-"
        lines.append(f"  {r.num_voters} voter(s) -> {r.accuracy:.1%}  [{ref_str}]")
    return "\n".join(lines)


def format_comm_latency(latencies: Dict[int, float]) -> str:
    lines = ["Uplink latency: N -> seconds [paper]"]
    for n, latency in sorted(latencies.items()):
        ref = PAPER_COMM_LATENCY_S.get(n)
        ref_str = f"{ref:.1f}" if ref else "-"
        lines.append(f"  N={n} -> {latency:.2f}  [{ref_str}]")
    return "\n".join(lines)


def format_battery(results: List[BatteryResult]) -> str:
    lines = ["Battery drop after 4.5 h: model -> fraction [paper]"]
    for r in results:
        ref = PAPER_BATTERY_DROP.get(r.model)
        ref_str = f"{ref:.0%}" if ref else "-"
        lines.append(f"  {r.model:>18s} -> {r.battery_drop_fraction:.0%}  [{ref_str}]")
    return "\n".join(lines)


@engine.register(
    name="tables",
    title="Protocol latency, flipping, uplink, battery tables",
    paper_ref="Tables (sections 2.4, 3.1, 3.2)",
    paper={
        "round_times_s": PAPER_ROUND_TIMES_S,
        "flipping_accuracy": PAPER_FLIPPING,
        "comm_latency_s": PAPER_COMM_LATENCY_S,
        "battery_drop": PAPER_BATTERY_DROP,
    },
    cost="moderate",
    sweepable=("flipping_rounds",),
)
def campaign(
    rng,
    *,
    scale: float = 1.0,
    rounds_per_count: int = 10,
    flipping_rounds: int = 50,
):
    """All four in-text tables in one job."""
    round_times = run_round_times(
        rng, rounds_per_count=engine.scaled(rounds_per_count, scale)
    )
    flipping = run_flipping_accuracy(
        rng, num_rounds=engine.scaled(flipping_rounds, scale)
    )
    latency = run_comm_latency()
    battery = run_battery_model()
    measured = {
        "round_times_s": {
            r.num_devices: {
                "measured_mean": r.measured_mean_s,
                "schedule_bound": r.schedule_bound_s,
            }
            for r in round_times
        },
        "flipping_accuracy": {r.num_voters: r.accuracy for r in flipping},
        "comm_latency_s": latency,
        "battery_drop": {r.model: r.battery_drop_fraction for r in battery},
    }
    report = "\n".join(
        [
            format_round_times(round_times),
            format_flipping(flipping),
            format_comm_latency(latency),
            format_battery(battery),
        ]
    )
    return engine.ExperimentOutput(measured=measured, report=report)
