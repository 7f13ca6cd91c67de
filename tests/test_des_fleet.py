"""Fleet campaigns on the DES: scenarios, determinism, engine wiring."""

import numpy as np
import pytest

from legacy_oracles import event_fleet
from repro.errors import ConfigurationError
from repro.experiments.engine import campaign_to_json, get_spec, run_campaign, run_unit
from repro.protocol.slots import round_duration
from repro.simulate.des.fleet import FleetConfig, run_fleet_campaign
from repro.simulate.scenario import fleet_scenario


class TestFleetScenario:
    def test_multi_hop_topology(self):
        """A fleet spans several acoustic ranges but stays connected."""
        scenario = fleet_scenario(60, rng=np.random.default_rng(0))
        d = scenario.true_distances()
        conn = scenario.connectivity()
        # Most pairs are out of direct range (multi-hop is required)...
        assert d.max() > 2 * scenario.max_range_m
        # ...but every device has at least one in-range neighbour and
        # the connectivity graph is one component.
        assert conn.any(axis=1).all()
        component = {0}
        frontier = [0]
        while frontier:
            nxt = frontier.pop()
            for j in np.flatnonzero(conn[nxt]):
                if j not in component:
                    component.add(int(j))
                    frontier.append(int(j))
        assert component == set(range(60))

    def test_short_range_fleet_stays_connected(self):
        """Connectedness holds in 3D even for short acoustic ranges."""
        scenario = fleet_scenario(
            30, rng=np.random.default_rng(4), max_range_m=10.0, area_xy_m=60.0
        )
        conn = scenario.connectivity()
        assert conn.any(axis=1).all()
        component = {0}
        frontier = [0]
        while frontier:
            nxt = frontier.pop()
            for j in np.flatnonzero(conn[nxt]):
                if j not in component:
                    component.add(int(j))
                    frontier.append(int(j))
        assert component == set(range(30))

    def test_minimum_separation(self):
        scenario = fleet_scenario(40, rng=np.random.default_rng(1), min_separation_m=2.0)
        d = scenario.true_distances()
        horizontal = np.linalg.norm(
            scenario.positions[:, None, :2] - scenario.positions[None, :, :2], axis=-1
        )
        np.fill_diagonal(horizontal, np.inf)
        assert horizontal.min() >= 2.0 - 1e-9
        assert d.shape == (40, 40)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            fleet_scenario(1)


class TestFleetConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FleetConfig(num_devices=1)
        with pytest.raises(ConfigurationError):
            FleetConfig(mac="aloha-deluxe")
        with pytest.raises(ConfigurationError):
            FleetConfig(mobility_fraction=1.5)
        with pytest.raises(ConfigurationError):
            FleetConfig(num_rounds=0)
        with pytest.raises(ConfigurationError):
            FleetConfig(leave_prob=1.5)
        with pytest.raises(ConfigurationError):
            FleetConfig(join_prob=-0.1)

    @pytest.mark.parametrize(
        "field, kw",
        [
            ("max_range_m", dict(max_range_m=0.0)),
            ("max_range_m", dict(max_range_m=-5.0)),
            ("contention_window_s", dict(mac="contention", contention_window_s=-1.0)),
            ("contention_window_s", dict(contention_window_s=0.0)),
            ("packet_duration_s", dict(packet_duration_s=-0.1)),
            ("area_xy_m", dict(area_xy_m=0.0)),
            ("area_xy_m", dict(area_xy_m=-3.0)),
            ("speed_range_mps", dict(mobility_fraction=0.5, speed_range_mps=(0.0, 0.0))),
            ("speed_range_mps", dict(mobility_fraction=0.5, speed_range_mps=(0.5, 0.2))),
            ("amplitude_range_m", dict(mobility_fraction=0.5, amplitude_range_m=(0.0, 0.0))),
            ("amplitude_range_m", dict(amplitude_range_m=(-1.0, 2.0))),
            ("max_range_m", dict(max_range_m=float("nan"))),
            ("num_devices", dict(num_devices=20.5)),
            ("num_devices", dict(num_devices=20.0)),
            ("num_rounds", dict(num_rounds=1.5)),
            ("resync_interval_rounds", dict(resync_interval_rounds=1.5)),
            ("resync_interval_rounds", dict(resync_interval_rounds=True)),
            ("drift_wander_ppm", dict(drift_wander_ppm=float("nan"))),
            ("drift_wander_ppm", dict(drift_wander_ppm=-1.0)),
        ],
    )
    def test_physically_invalid_parameters_rejected(self, field, kw):
        """A bad setup fails before the campaign draws anything: a
        ConfigurationError naming the field, never a numpy TypeError, a
        ZeroDivisionError or a silent run."""
        with pytest.raises(ConfigurationError, match=field):
            run_fleet_campaign(
                np.random.default_rng(1),
                FleetConfig(**{"num_devices": 20, "num_rounds": 1, **kw}),
            )

    def test_error_model_subclass_rejected(self):
        """The round inlines RangingErrorModel's draws, so an override of
        ``detection_error_m`` would be silently ignored: refuse it."""
        from repro.simulate.network_sim import RangingErrorModel

        class Noisier(RangingErrorModel):
            def detection_error_m(self, distance_m, occluded, rng):
                return 2.0 * super().detection_error_m(distance_m, occluded, rng)

        with pytest.raises(ConfigurationError, match="error_model"):
            FleetConfig(error_model=Noisier())
        FleetConfig(error_model=RangingErrorModel(loss_prob=0.1))

    def test_fractional_fleet_size_fails_the_unit_naming_the_field(self):
        """A sweep or service request with ``num_devices=20.5`` comes
        back as an error unit carrying the ConfigurationError."""
        result = run_unit("fleet", "fleet50", {"num_devices": 20.5}, base_seed=1, scale=0.25)
        assert result.status == "error"
        assert "ConfigurationError" in result.error
        assert "num_devices must be an integer" in result.error

    def test_boundary_parameters_run_identically_on_oracle_and_vec(self):
        kw = dict(
            num_devices=20,
            num_rounds=1,
            packet_duration_s=0.0,
            mobility_fraction=0.5,
            speed_range_mps=(0.3, 0.3),
            amplitude_range_m=(4.0, 4.0),
        )

        def summary():
            return run_fleet_campaign(np.random.default_rng(1), FleetConfig(**kw)).summary()

        with event_fleet():
            oracle = summary()
        assert oracle == summary()

    def test_error_model_shared_with_network_sim(self):
        from repro.simulate.network_sim import RangingErrorModel

        assert FleetConfig().error_model == RangingErrorModel()

    def test_area_scales_with_fleet(self):
        assert FleetConfig(num_devices=200).area > FleetConfig(num_devices=50).area
        assert FleetConfig(num_devices=50, area_xy_m=77.0).area == 77.0


class TestFleetCampaign:
    def test_tdma_round_tracks_analytic_model(self):
        # Single-hop fleet (everyone hears the leader): the DES round
        # lands within one slot of the Delta_0 + (N-1) Delta_1 model.
        result = run_fleet_campaign(
            np.random.default_rng(5),
            FleetConfig(num_devices=50, num_rounds=2, max_range_m=150.0),
        )
        summary = result.summary()
        assert summary["mean_transmit_ratio"] == 1.0
        assert summary["total_missed_slots"] == 0
        assert abs(summary["mean_round_duration_s"] - round_duration(50)) < 0.5

    def test_multi_hop_round_bounded_by_worst_case(self):
        # Multi-hop fleets may defer slots a full cycle; the paper's
        # worst-case bound still holds (plus propagation slack).
        result = run_fleet_campaign(
            np.random.default_rng(5), FleetConfig(num_devices=50, num_rounds=2)
        )
        summary = result.summary()
        assert summary["mean_transmit_ratio"] == 1.0
        assert summary["mean_round_duration_s"] >= round_duration(50) - 0.5
        assert summary["mean_round_duration_s"] < round_duration(
            50, all_in_range=False
        )

    def test_same_seed_identical_metrics(self):
        config = FleetConfig(
            num_devices=40,
            num_rounds=3,
            leave_prob=0.1,
            mobility_fraction=0.2,
            mac="contention",
        )
        a = run_fleet_campaign(np.random.default_rng(11), config).summary()
        b = run_fleet_campaign(np.random.default_rng(11), config).summary()
        assert a == b

    def test_churn_tracks_leaves_and_joins(self):
        result = run_fleet_campaign(
            np.random.default_rng(3),
            FleetConfig(num_devices=60, num_rounds=4, leave_prob=0.15, join_prob=0.5),
        )
        summary = result.summary()
        assert result.leaves > 0
        assert summary["mean_active"] < 60
        # The leader never leaves and every round still runs.
        assert all(r.active >= 1 for r in result.rounds)
        assert len(result.rounds) == 4

    def test_leave_is_absent_for_at_least_one_round(self):
        """A device cannot leave and rejoin in the same inter-round gap."""
        result = run_fleet_campaign(
            np.random.default_rng(2),
            FleetConfig(num_devices=10, num_rounds=3, leave_prob=1.0, join_prob=1.0),
        )
        actives = [r.active for r in result.rounds]
        assert actives == [10, 1, 10]  # everyone out for round 1, back for 2
        assert result.leaves == 9 and result.joins == 9

    def test_relay_extends_coverage(self):
        rng_kwargs = dict(num_devices=60, num_rounds=2)
        with_relay = run_fleet_campaign(
            np.random.default_rng(9), FleetConfig(relay=True, **rng_kwargs)
        ).summary()
        without = run_fleet_campaign(
            np.random.default_rng(9), FleetConfig(relay=False, **rng_kwargs)
        ).summary()
        assert with_relay["mean_relayed_reports"] > 0
        assert with_relay["mean_coverage"] > without["mean_coverage"]

    def test_contention_mac_collides_tdma_mostly_not(self):
        base = dict(num_devices=40, num_rounds=2)
        tdma = run_fleet_campaign(
            np.random.default_rng(13), FleetConfig(mac="tdma", **base)
        ).summary()
        contention = run_fleet_campaign(
            np.random.default_rng(13), FleetConfig(mac="contention", **base)
        ).summary()
        assert contention["total_collisions"] > tdma["total_collisions"]
        # TDMA guard slots keep the channel essentially collision-free.
        assert tdma["total_collisions"] <= 0.05 * tdma["total_tx_attempts"] * 40

    def test_energy_accounting(self):
        config = FleetConfig(num_devices=30, num_rounds=2)
        result = run_fleet_campaign(np.random.default_rng(21), config)
        summary = result.summary()
        assert summary["mean_energy_j_per_round"] > 0
        assert summary["max_energy_j_per_round"] >= summary["mean_energy_j_per_round"]
        # Idle listening dominates a 30-device TDMA round (~10 s at
        # ~1.35 W) with one 278 ms transmission on top.
        assert summary["mean_energy_j_per_round"] < 60

    def test_mobility_during_round(self):
        config = FleetConfig(num_devices=30, num_rounds=2, mobility_fraction=0.3)
        moving = run_fleet_campaign(np.random.default_rng(31), config)
        static = run_fleet_campaign(
            np.random.default_rng(31), FleetConfig(num_devices=30, num_rounds=2)
        )
        # Motion perturbs propagation delays, so the traces diverge.
        assert (
            moving.summary()["mean_round_duration_s"]
            != static.summary()["mean_round_duration_s"]
        )
        assert moving.summary()["mean_transmit_ratio"] == 1.0


class TestUplinkBookkeepingRegression:
    """Pins the campaign outputs around the uplink/no-report bookkeeping.

    ``_finish_round`` marks everything without a report as "direct"
    with one boolean mask instead of the former per-round
    ``set(range(N)) - set(active)`` churn; these snapshots (seed 4242,
    taken on the per-event round, which the vec engine matches bit for
    bit) pin the surrounding metrics byte-for-byte so the mask can
    never drift from the set semantics it replaced.
    """

    def _summary(self, **kw):
        return run_fleet_campaign(
            np.random.default_rng(4242), FleetConfig(**kw)
        ).summary()

    def test_tdma_churn_mobility_snapshot(self):
        summary = self._summary(
            num_devices=30,
            num_rounds=3,
            leave_prob=0.1,
            join_prob=0.5,
            mobility_fraction=0.2,
        )
        assert summary["churn_leaves"] == 2
        assert summary["churn_joins"] == 0
        assert summary["mean_active"] == 29.333333333333332
        assert summary["mean_coverage"] == 0.9658730158730159
        assert summary["mean_direct_reports"] == 18.666666666666668
        assert summary["mean_relayed_reports"] == 8.666666666666666
        assert summary["mean_unreachable"] == 1.0
        assert summary["mean_relay_waves"] == 2.0
        assert summary["mean_round_duration_s"] == 9.895049480753102
        assert summary["mean_uplink_latency_s"] == 13.410000000000002
        assert summary["mean_energy_j_per_round"] == 14.361519513302403
        assert summary["max_energy_j_per_round"] == 15.057349733024171
        assert summary["total_collisions"] == 7
        assert summary["total_tx_attempts"] == 88

    def test_contention_snapshot(self):
        summary = self._summary(num_devices=25, num_rounds=2, mac="contention")
        assert summary["mean_coverage"] == 0.96
        assert summary["mean_direct_reports"] == 11.0
        assert summary["mean_relayed_reports"] == 12.0
        assert summary["mean_unreachable"] == 1.0
        assert summary["mean_relay_waves"] == 2.5
        assert summary["mean_round_duration_s"] == 15.349783896255438
        assert summary["mean_uplink_latency_s"] == 13.02
        assert summary["mean_energy_j_per_round"] == 21.530576659944842
        assert summary["total_collisions"] == 100
        assert summary["total_gave_up"] == 0
        assert summary["total_tx_attempts"] == 50


class TestFleetEngineWiring:
    def test_spec_registered_with_variants(self):
        spec = get_spec("fleet")
        names = [v.name for v in spec.variants]
        assert names == [
            "fleet50",
            "fleet100",
            "fleet200",
            "churn",
            "mobility",
            "contention",
            "fleet1k",
        ]
        assert spec.paper  # analytic model references
        assert spec.cost == "heavy"

    def test_100_node_campaign_serial_matches_parallel_byte_identical(self):
        """Acceptance criterion: the 100-node fleet scenario through
        ``run_campaign``, serial vs ``workers=4``, byte-identical
        artifacts."""
        kwargs = dict(base_seed=2023, scale=0.25, sweep={"num_devices": [100]})
        serial = run_campaign(["fleet"], **kwargs)
        parallel = run_campaign(["fleet"], workers=4, **kwargs)
        assert [r.status for r in serial] == ["ok"]
        assert serial[0].measured["num_devices"] == 100
        assert serial[0].measured["mean_coverage"] > 0.9
        assert campaign_to_json(serial, base_seed=2023) == campaign_to_json(
            parallel, base_seed=2023
        )
