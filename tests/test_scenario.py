"""Tests for scenario construction and mobility trajectories."""

import numpy as np
import pytest

from repro.channel.environment import DOCK
from repro.devices.device import make_device
from repro.errors import ConfigurationError
from repro.simulate.mobility import LinearBackForthTrajectory
from repro.simulate.scenario import (
    PointingModel,
    Scenario,
    testbed_scenario as make_testbed_scenario,
)


class TestPointingModel:
    def test_zero_std_exact(self):
        rng = np.random.default_rng(0)
        model = PointingModel(error_std_deg=0.0)
        assert model.sample_azimuth(1.0, rng) == pytest.approx(1.0)

    def test_error_scale(self):
        rng = np.random.default_rng(1)
        model = PointingModel(error_std_deg=5.0)
        samples = np.array([model.sample_azimuth(0.0, rng) for _ in range(500)])
        assert np.rad2deg(samples.std()) == pytest.approx(5.0, rel=0.2)


class TestScenario:
    def test_testbed_layout(self):
        rng = np.random.default_rng(2)
        scenario = make_testbed_scenario("dock", num_devices=5, rng=rng)
        assert scenario.num_devices == 5
        d = scenario.true_distances()
        # User 1 close to the leader (visible range).
        assert 3.5 <= d[0, 1] <= 9.5
        # Depths inside the water column.
        assert np.all(scenario.depths <= DOCK.water_depth_m)

    def test_connectivity_respects_range(self):
        rng = np.random.default_rng(3)
        scenario = make_testbed_scenario("dock", num_devices=5, rng=rng)
        conn = scenario.connectivity()
        assert conn.shape == (5, 5)
        assert not conn.diagonal().any()
        d = scenario.true_distances()
        assert np.all(conn == ((d <= scenario.max_range_m) & (d > 0)))

    def test_occlusion_lookup(self):
        rng = np.random.default_rng(4)
        scenario = make_testbed_scenario(
            "dock", num_devices=4, rng=rng, occluded_links=[(0, 1)]
        )
        assert scenario.is_occluded(0, 1)
        assert scenario.is_occluded(1, 0)
        assert not scenario.is_occluded(0, 2)

    def test_pointing_azimuth_towards_user1(self):
        rng = np.random.default_rng(5)
        scenario = make_testbed_scenario("dock", num_devices=4, rng=rng)
        az = scenario.true_pointing_azimuth()
        rel = scenario.devices[1].position[:2] - scenario.devices[0].position[:2]
        assert az == pytest.approx(np.arctan2(rel[1], rel[0]))

    def test_device_id_order_enforced(self):
        rng = np.random.default_rng(6)
        devs = [make_device(1, [0, 0, 1], rng), make_device(0, [5, 0, 1], rng)]
        with pytest.raises(ConfigurationError):
            Scenario(environment=DOCK, devices=devs)

    def test_depth_outside_column_rejected(self):
        rng = np.random.default_rng(7)
        devs = [
            make_device(0, [0, 0, 1], rng),
            make_device(1, [5, 0, 20.0], rng),  # deeper than the dock
        ]
        with pytest.raises(ConfigurationError):
            Scenario(environment=DOCK, devices=devs)

    def test_environment_by_name_and_object(self):
        rng = np.random.default_rng(8)
        by_name = make_testbed_scenario("boathouse", num_devices=3, rng=rng)
        by_obj = make_testbed_scenario(DOCK, num_devices=3, rng=rng)
        assert by_name.environment.name == "boathouse"
        assert by_obj.environment.name == "dock"

    def test_explicit_devices(self):
        rng = np.random.default_rng(9)
        points = [[0.0, 0.0, 1.0], [6.0, 0.0, 2.0], [3.0, 8.0, 4.0]]
        devices = [make_device(i, p, rng) for i, p in enumerate(points)]
        scenario = Scenario(environment=DOCK, devices=devices)
        assert scenario.num_devices == 3
        assert np.array_equal(scenario.positions, points)
        assert np.array_equal(scenario.depths, [1.0, 2.0, 4.0])
        assert scenario.true_distances()[0, 1] == pytest.approx(np.hypot(6.0, 1.0))

    def test_sound_speed_plausible(self):
        rng = np.random.default_rng(10)
        scenario = make_testbed_scenario("dock", num_devices=3, rng=rng)
        assert 1_400 < scenario.sound_speed() < 1_600


class TestTrajectories:
    def test_back_forth_stays_in_bounds(self):
        traj = LinearBackForthTrajectory(
            center=np.array([10.0, 0.0, 2.0]),
            direction=np.array([1.0, 0.0, 0.0]),
            amplitude_m=3.0,
            speed_mps=0.5,
        )
        for t in np.linspace(0, 60, 200):
            pos = traj.position(float(t))
            assert 7.0 - 1e-9 <= pos[0] <= 13.0 + 1e-9
            assert pos[1] == pytest.approx(0.0)
            assert pos[2] == pytest.approx(2.0)

    def test_starts_at_center_moving_positive(self):
        traj = LinearBackForthTrajectory(
            center=np.zeros(3),
            direction=np.array([0.0, 1.0, 0.0]),
            amplitude_m=2.0,
            speed_mps=1.0,
        )
        assert np.allclose(traj.position(0.0), 0.0)
        assert traj.position(1.0)[1] == pytest.approx(1.0)

    def test_constant_velocity_before_turn(self):
        traj = LinearBackForthTrajectory(
            center=np.array([0.0, 0.0, 1.0]),
            direction=np.array([1.0, 0.0, 0.0]),
            amplitude_m=5.0,
            speed_mps=0.5,
        )
        for t in (0.0, 1.0, 2.0, 9.5):
            assert np.allclose(traj.position(t), [0.5 * t, 0.0, 1.0])

    def test_period(self):
        traj = LinearBackForthTrajectory(
            center=np.zeros(3),
            direction=np.array([1.0, 0.0, 0.0]),
            amplitude_m=2.0,
            speed_mps=1.0,
        )
        period = 8.0  # 4 * amplitude / speed
        assert np.allclose(traj.position(3.3), traj.position(3.3 + period))

    def test_speed_magnitude(self):
        traj = LinearBackForthTrajectory(
            center=np.zeros(3),
            direction=np.array([1.0, 0.0, 0.0]),
            amplitude_m=5.0,
            speed_mps=0.4,
        )
        dt = 0.01
        p1, p2 = traj.position(1.0), traj.position(1.0 + dt)
        assert np.linalg.norm(p2 - p1) / dt == pytest.approx(0.4, rel=1e-6)

    def test_zero_direction_rejected(self):
        traj = LinearBackForthTrajectory(
            center=np.zeros(3),
            direction=np.zeros(3),
            amplitude_m=1.0,
            speed_mps=0.5,
        )
        with pytest.raises(ValueError):
            traj.position(1.0)


class TestTestbedInvariants:
    """Rejection-sampling guarantees of ``testbed_scenario``."""

    @pytest.mark.parametrize("site", ["dock", "boathouse"])
    @pytest.mark.parametrize("seed", range(12))
    def test_pairwise_distances_within_bounds(self, site, seed):
        min_link, max_link = 3.0, 25.0
        rng = np.random.default_rng(seed)
        scenario = make_testbed_scenario(
            site, num_devices=5, rng=rng, min_link_m=min_link, max_link_m=max_link
        )
        xy = scenario.positions[:, :2]
        gaps = np.linalg.norm(xy[:, None, :] - xy[None, :, :], axis=-1)
        off_diag = gaps[~np.eye(len(xy), dtype=bool)]
        assert off_diag.min() >= min_link / 2.0
        assert off_diag.max() <= max_link + 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_depths_within_water_column(self, seed):
        rng = np.random.default_rng(seed)
        scenario = make_testbed_scenario("dock", num_devices=6, rng=rng)
        depth_cap = min(scenario.environment.water_depth_m, 3.0)
        assert np.all(scenario.depths >= 0.5 - 1e-9)
        assert np.all(scenario.depths <= depth_cap + 1e-9)

    def test_user1_visible_from_leader(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            scenario = make_testbed_scenario("dock", num_devices=5, rng=rng)
            d01 = float(
                np.linalg.norm(scenario.positions[1, :2] - scenario.positions[0, :2])
            )
            assert 4.0 - 1e-9 <= d01 <= 9.0 + 1e-9

    def test_impossible_constraints_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            # 12 devices whose pairwise gaps must stay in [4.5, 10] m
            # within a 10 m radius cannot satisfy the separation.
            make_testbed_scenario(
                "dock", num_devices=12, rng=rng, min_link_m=9.0, max_link_m=10.0
            )

    def test_is_occluded_symmetric(self):
        rng = np.random.default_rng(3)
        scenario = make_testbed_scenario(
            "dock", num_devices=5, rng=rng, occluded_links=[(0, 1), (3, 2)]
        )
        for i in range(scenario.num_devices):
            for j in range(scenario.num_devices):
                assert scenario.is_occluded(i, j) == scenario.is_occluded(j, i)
        assert scenario.is_occluded(2, 3) and scenario.is_occluded(3, 2)
        assert not scenario.is_occluded(0, 2)
