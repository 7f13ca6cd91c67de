"""Large-fleet campaigns: churn, multi-hop relay, mobility, contention.

The beyond-paper workload (DESIGN.md §5): fleets of 50-10k devices
spanning several acoustic ranges, nodes joining and leaving between
rounds (never mid-round), a two-hop uplink relay for devices
the leader cannot hear (:mod:`repro.protocol.relay`), devices moving
*during* a round (propagation delays are evaluated at transmit time
against the trajectory), per-node energy accounting, and a choice of
MAC policy (the paper's TDMA or random-access contention).

The campaign loop here owns everything between rounds (scenario,
churn, drift and duty-cycle columns, relay planning); each round runs
on the struct-of-arrays engine
:func:`repro.simulate.des.fleetvec.run_fleet_round_vec` (DESIGN.md
§10), pinned bit for bit to a per-event round on a generic event
simulator, kept as a test oracle in ``tests/legacy_oracles.py``.

Determinism contract: every random draw — link loss, detection noise,
churn, backoff — comes from the single generator passed to
:func:`run_fleet_campaign`, in event order, so a fixed seed fixes every
metric. The campaign engine relies on this for byte-identical
serial-vs-parallel ``--json`` artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.constants import MAX_RANGE_M, T_PACKET_S
from repro.errors import ConfigurationError
from repro.protocol.messages import TimestampReport
from repro.protocol.relay import plan_relays, relay_uplink_latency_s
from repro.protocol.slots import round_duration
from repro.simulate.des.fleetvec import run_fleet_round_vec
from repro.simulate.mobility import LinearBackForthTrajectory
from repro.simulate.network_sim import RangingErrorModel
from repro.simulate.scenario import Scenario, fleet_scenario


@dataclass(frozen=True)
class FleetConfig:
    """One fleet campaign setup.

    Attributes
    ----------
    num_devices / num_rounds:
        Fleet size (IDs 0..N-1, 0 is the leader) and rounds to run.
    area_xy_m:
        Horizontal extent; ``None`` scales with fleet size so density
        stays roughly constant (several hops across the fleet).
    max_range_m:
        Acoustic range limit (links beyond it do not exist).
    mac:
        ``"tdma"`` (the paper's slots) or ``"contention"``
        (random-access with exponential backoff).
    contention_window_s:
        Initial backoff window of the contention MAC.
    packet_duration_s:
        Beacon airtime (drives both collisions and TX energy).
    error_model:
        The calibrated detection-error / packet-loss model shared with
        :class:`~repro.simulate.network_sim.NetworkSimulator`
        (DESIGN.md §2) — the single source of the noise constants. The
        round inlines its draws, so a subclass is rejected rather than
        silently ignored.
    leave_prob / join_prob:
        Per-round churn: chance an active non-leader leaves, and a
        departed device rejoins, between rounds.
    relay:
        Plan two-hop relays for reports the leader cannot hear.
    mobility_fraction / speed_range_mps / amplitude_range_m:
        Fraction of non-leader devices swimming back and forth during
        rounds, and their kinematics.
    resync_interval_rounds:
        Clock-drift bookkeeping: devices whose report reached the
        leader re-zero their accumulated offset every this-many rounds
        (1 = every round). Intervals > 1 let offsets build up between
        resyncs and shift the local clocks actually used in the rounds.
    drift_wander_ppm:
        Std-dev of a per-round random-walk component added to each
        device's oscillator rate (models wander beyond the static
        skew). 0 disables the draw entirely.
    duty_cycle:
        Airtime budget as a fraction (e.g. 0.01 = 1%): after a
        transmission a device must stay silent for
        ``airtime / duty_cycle`` seconds of campaign time before it may
        transmit again (the leader is exempt — it anchors every round).
        ``None`` disables duty-cycle regulation.
    """

    num_devices: int = 100
    num_rounds: int = 4
    area_xy_m: Optional[float] = None
    max_range_m: float = MAX_RANGE_M
    mac: str = "tdma"
    contention_window_s: float = 4.0
    packet_duration_s: float = T_PACKET_S
    error_model: RangingErrorModel = field(default_factory=RangingErrorModel)
    leave_prob: float = 0.0
    join_prob: float = 0.5
    relay: bool = True
    mobility_fraction: float = 0.0
    speed_range_mps: Tuple[float, float] = (0.15, 0.5)
    amplitude_range_m: Tuple[float, float] = (2.0, 6.0)
    resync_interval_rounds: int = 1
    drift_wander_ppm: float = 0.0
    duty_cycle: Optional[float] = None

    def __post_init__(self):
        # Every bad setup fails here, naming the field, before the
        # campaign draws from its generator.
        for name in ("num_devices", "num_rounds", "resync_interval_rounds"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ConfigurationError(
                    f"{name} must be an integer, got {value!r}"
                )
        if self.num_devices < 2:
            raise ConfigurationError("num_devices must be >= 2")
        if self.num_rounds < 1:
            raise ConfigurationError("num_rounds must be >= 1")
        if self.mac not in ("tdma", "contention"):
            raise ConfigurationError(f"unknown MAC policy {self.mac!r}")
        if type(self.error_model) is not RangingErrorModel:
            raise ConfigurationError(
                "error_model must be a RangingErrorModel (the fleet round "
                f"inlines its draws), got {type(self.error_model).__name__}"
            )
        for name in ("max_range_m", "contention_window_s"):
            if not getattr(self, name) > 0.0:
                raise ConfigurationError(f"{name} must be positive")
        if not self.packet_duration_s >= 0.0:
            raise ConfigurationError("packet_duration_s must be non-negative")
        if self.area_xy_m is not None and not self.area_xy_m > 0.0:
            raise ConfigurationError("area_xy_m must be positive (or None)")
        for name in ("speed_range_mps", "amplitude_range_m"):
            lo, hi = getattr(self, name)
            if not 0.0 < lo <= hi:
                raise ConfigurationError(f"{name} must satisfy 0 < low <= high")
        if not 0.0 <= self.mobility_fraction <= 1.0:
            raise ConfigurationError("mobility_fraction must be in [0, 1]")
        for name in ("leave_prob", "join_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1]")
        if self.resync_interval_rounds < 1:
            raise ConfigurationError("resync_interval_rounds must be >= 1")
        if not self.drift_wander_ppm >= 0.0:
            raise ConfigurationError("drift_wander_ppm must be non-negative")
        if self.duty_cycle is not None and not 0.0 < self.duty_cycle <= 1.0:
            raise ConfigurationError("duty_cycle must be in (0, 1]")

    @property
    def area(self) -> float:
        """The resolved horizontal extent."""
        if self.area_xy_m is not None:
            return self.area_xy_m
        return max(60.0, 12.0 * float(np.sqrt(self.num_devices)))


@dataclass
class FleetRoundStats:
    """Protocol-level outcome of one fleet round."""

    round_index: int
    active: int
    transmitted: int
    silent: int
    missed_slots: int
    collisions: int
    tx_attempts: int
    gave_up: int
    direct_reports: int
    relayed_reports: int
    unreachable: int
    relay_waves: int
    round_duration_s: float
    uplink_latency_s: float
    mean_energy_j: float
    max_energy_j: float
    # Filled by the campaign loop (duty/drift state lives across
    # rounds, not inside one DES run).
    duty_silenced: int = 0
    mean_abs_clock_offset_s: float = 0.0
    max_abs_clock_offset_s: float = 0.0

    @property
    def coverage(self) -> float:
        """Fraction of active devices whose report reached the leader."""
        return (1 + self.direct_reports + self.relayed_reports) / self.active


@dataclass
class FleetResult:
    """A completed fleet campaign."""

    config: FleetConfig
    rounds: List[FleetRoundStats] = field(default_factory=list)
    leaves: int = 0
    joins: int = 0

    def summary(self) -> Dict[str, Any]:
        """Aggregate, JSON-friendly campaign metrics."""
        if not self.rounds:
            return {"rounds": 0}
        mean = lambda xs: float(np.mean(xs))  # noqa: E731
        return {
            "num_devices": self.config.num_devices,
            "mac": self.config.mac,
            "rounds": len(self.rounds),
            "mean_active": mean([r.active for r in self.rounds]),
            "mean_transmit_ratio": mean(
                [r.transmitted / r.active for r in self.rounds]
            ),
            "mean_coverage": mean([r.coverage for r in self.rounds]),
            "mean_direct_reports": mean([r.direct_reports for r in self.rounds]),
            "mean_relayed_reports": mean([r.relayed_reports for r in self.rounds]),
            "mean_unreachable": mean([r.unreachable for r in self.rounds]),
            "mean_relay_waves": mean([r.relay_waves for r in self.rounds]),
            "mean_round_duration_s": mean(
                [r.round_duration_s for r in self.rounds]
            ),
            "tdma_model_round_s": round_duration(self.config.num_devices),
            "mean_uplink_latency_s": mean(
                [r.uplink_latency_s for r in self.rounds]
            ),
            "total_collisions": int(sum(r.collisions for r in self.rounds)),
            "total_tx_attempts": int(sum(r.tx_attempts for r in self.rounds)),
            "total_missed_slots": int(sum(r.missed_slots for r in self.rounds)),
            "total_gave_up": int(sum(r.gave_up for r in self.rounds)),
            "mean_energy_j_per_round": mean(
                [r.mean_energy_j for r in self.rounds]
            ),
            "max_energy_j_per_round": max(r.max_energy_j for r in self.rounds),
            "duty_silenced_total": int(
                sum(r.duty_silenced for r in self.rounds)
            ),
            "mean_abs_clock_offset_s": mean(
                [r.mean_abs_clock_offset_s for r in self.rounds]
            ),
            "max_abs_clock_offset_s": max(
                r.max_abs_clock_offset_s for r in self.rounds
            ),
            "churn_leaves": self.leaves,
            "churn_joins": self.joins,
        }


def _build_trajectories(
    scenario: Scenario, config: FleetConfig, rng: np.random.Generator
) -> Dict[int, LinearBackForthTrajectory]:
    """Assign back-and-forth trajectories to a deterministic subset."""
    num_movers = int(round(config.mobility_fraction * (scenario.num_devices - 1)))
    if num_movers == 0:
        return {}
    movers = sorted(
        rng.choice(np.arange(1, scenario.num_devices), size=num_movers, replace=False)
    )
    trajectories: Dict[int, LinearBackForthTrajectory] = {}
    for mover in movers:
        azimuth = rng.uniform(0.0, 2.0 * np.pi)
        trajectories[int(mover)] = LinearBackForthTrajectory(
            center=scenario.devices[int(mover)].position,
            direction=np.array([np.cos(azimuth), np.sin(azimuth), 0.0]),
            amplitude_m=float(rng.uniform(*config.amplitude_range_m)),
            speed_mps=float(rng.uniform(*config.speed_range_mps)),
        )
    return trajectories


class PositionDistances:
    """Lazy distance rows over an ``(N, 3)`` position array.

    Relay planning takes ``row`` in place of the dense
    ``Scenario.true_distances()`` matrix: each row is computed on
    demand with the same squared-difference reduction the matrix uses,
    so the values are bit-identical — but a 10k-node fleet no longer
    materialises an 800 MB array.
    """

    def __init__(self, positions: np.ndarray):
        self._pts = np.asarray(positions, dtype=float)

    def row(self, source: int, ids) -> list:
        """Distances from ``source`` to each id, as one vectorized row,
        so relay planning can rank a candidate list in one call."""
        diff = self._pts[ids] - self._pts[source]
        return np.sqrt((diff**2).sum(axis=1)).tolist()


def _finish_round(
    scenario: Scenario,
    config: FleetConfig,
    active: List[int],
    reports: Dict[int, TimestampReport],
    leader_heard: set,
    missed_slots: int,
    collisions: int,
    tx_attempts: int,
    gave_up: int,
    energies,
    duration: float,
) -> Tuple[FleetRoundStats, float]:
    """Round post-processing: uplink/relay planning and the stats row.

    The vec round and the per-event test oracle both end here with the
    same report mappings and per-node aggregates, so everything from here
    on is engine-independent by construction."""
    transmitted = sorted(reports)
    silent_count = len(active) - len(transmitted)

    # Uplink: devices whose beacon the leader heard can reach it with
    # their FSK report; the rest need the two-hop relay.
    direct = {0} | {i for i in transmitted if i in leader_heard}
    relayed_count = 0
    unreachable_count = 0
    waves = 0
    if config.relay:
        # Inactive and silent devices have no report to carry, so they
        # are marked "direct" to keep the planner focused on genuinely
        # active-but-unheard reporters; having no reports of their own,
        # they can never be chosen as relays either. Everything without
        # a report is exactly the complement of the report owners, so
        # one boolean mask replaces the former per-round set algebra.
        pinned = np.ones(scenario.num_devices, dtype=bool)
        pinned[transmitted] = False
        pinned[sorted(direct)] = True
        plan = plan_relays(
            scenario.num_devices,
            [int(i) for i in np.flatnonzero(pinned)],
            reports,
            distances=PositionDistances(scenario.positions),
        )
        relayed_count = len(plan.assignments)
        unreachable_count = len(plan.unreachable)
        waves = plan.num_waves
        uplink_latency = relay_uplink_latency_s(scenario.num_devices, plan)
    else:
        from repro.protocol.uplink import communication_latency_s

        unreachable_count = len([i for i in transmitted if i not in direct])
        uplink_latency = communication_latency_s(scenario.num_devices)

    stats = FleetRoundStats(
        round_index=0,  # filled by the campaign loop
        active=len(active),
        transmitted=len(transmitted),
        silent=silent_count,
        missed_slots=missed_slots,
        collisions=collisions,
        tx_attempts=tx_attempts,
        gave_up=gave_up,
        direct_reports=len(direct) - 1,
        relayed_reports=relayed_count,
        unreachable=unreachable_count,
        relay_waves=waves,
        round_duration_s=float(duration),
        uplink_latency_s=float(uplink_latency),
        mean_energy_j=float(np.mean(energies)),
        max_energy_j=float(np.max(energies)),
    )
    return stats, duration + uplink_latency


def run_fleet_campaign(
    rng: np.random.Generator, config: Optional[FleetConfig] = None
) -> FleetResult:
    """Run a multi-round fleet campaign and collect protocol metrics."""
    config = config or FleetConfig()
    scenario = fleet_scenario(
        config.num_devices,
        rng=rng,
        area_xy_m=config.area,
        max_range_m=config.max_range_m,
    )
    trajectories = _build_trajectories(scenario, config, rng)
    result = FleetResult(config=config)

    num = config.num_devices
    # Clock-drift and duty-cycle state live as campaign-level columns
    # (one entry per device id); the round sees them as epoch/mask
    # arguments.
    skew_ppm = np.array([d.clock.skew_ppm for d in scenario.devices])
    epoch0 = np.array([d.clock.epoch_s for d in scenario.devices])
    rates = 1.0 + skew_ppm * 1e-6
    offsets = np.zeros(num)  # local-clock seconds accrued since resync
    wander_ppm = np.zeros(num)  # oscillator random-walk component
    next_tx_allowed = np.zeros(num)  # campaign time the budget reopens
    # With per-round resync and no wander the offsets are diagnostics
    # only — the clocks the nodes run on stay exactly the scenario
    # draw, preserving historical campaign outputs bit for bit.
    drift_applies = config.resync_interval_rounds > 1 or config.drift_wander_ppm > 0

    active = set(range(num))
    departed: set = set()
    campaign_time = 0.0
    for round_index in range(config.num_rounds):
        # Churn between rounds (the leader never leaves). Rejoins are
        # only offered to devices that departed in an *earlier* gap, so
        # a leave is always absent for at least one round.
        if round_index > 0:
            rejoin_pool = sorted(departed)
            for device_id in sorted(active - {0}):
                if rng.random() < config.leave_prob:
                    active.discard(device_id)
                    departed.add(device_id)
                    result.leaves += 1
            for device_id in rejoin_pool:
                if rng.random() < config.join_prob:
                    departed.discard(device_id)
                    active.add(device_id)
                    result.joins += 1
            if config.drift_wander_ppm > 0:
                wander_ppm = wander_ppm + rng.normal(
                    0.0, config.drift_wander_ppm, num
                )
        active_ids = sorted(active)
        if config.duty_cycle is not None:
            may_transmit = next_tx_allowed <= campaign_time
            may_transmit[0] = True  # the leader anchors every round
        else:
            may_transmit = None
        epoch_eff = epoch0 - offsets / rates if drift_applies else None
        stats, reports, elapsed, tx_times = run_fleet_round_vec(
            scenario,
            active_ids,
            trajectories,
            campaign_time,
            config,
            rng,
            may_transmit=may_transmit,
            epoch_eff=epoch_eff,
        )
        stats.round_index = round_index
        if may_transmit is not None:
            stats.duty_silenced = int(
                sum(1 for i in active_ids if not may_transmit[i])
            )
            for device_id, tx_time in tx_times.items():
                next_tx_allowed[device_id] = (
                    campaign_time
                    + tx_time
                    + config.packet_duration_s / config.duty_cycle
                )
        # Drift accrues over the full round (DES time plus uplink);
        # devices whose report reached the leader re-zero at resync
        # boundaries, the rest keep drifting.
        offsets = offsets + (skew_ppm + wander_ppm) * 1e-6 * elapsed
        abs_offsets = np.abs(offsets[active_ids])
        stats.mean_abs_clock_offset_s = float(np.mean(abs_offsets))
        stats.max_abs_clock_offset_s = float(np.max(abs_offsets))
        if (round_index + 1) % config.resync_interval_rounds == 0:
            offsets[sorted(reports)] = 0.0
            offsets[0] = 0.0
        result.rounds.append(stats)
        campaign_time += elapsed
        # Release this round's reception table before the next round
        # builds its own.
        del reports, tx_times
    return result
