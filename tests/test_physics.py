"""Tests for repro.physics: Wilson's equation, absorption, depth."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.physics import (
    WaterProperties,
    absorption_loss_db,
    depth_to_pressure,
    pressure_to_depth,
    sound_speed_wilson,
    thorp_absorption_db_per_km,
)


class TestWilsonEquation:
    def test_reference_seawater_value(self):
        # T=0, S=35, D=0 -> exactly the 1449 constant.
        assert sound_speed_wilson(0.0, 35.0, 0.0) == pytest.approx(1449.0)

    def test_warm_seawater_faster(self):
        assert sound_speed_wilson(20.0, 35.0, 0.0) > sound_speed_wilson(5.0, 35.0, 0.0)

    def test_salinity_term(self):
        fresh = sound_speed_wilson(15.0, 0.0, 0.0)
        salty = sound_speed_wilson(15.0, 35.0, 0.0)
        assert salty - fresh == pytest.approx(1.39 * 35.0)

    def test_depth_term_small_at_recreational_depths(self):
        surface = sound_speed_wilson(15.0, 35.0, 0.0)
        deep = sound_speed_wilson(15.0, 35.0, 40.0)
        assert deep - surface == pytest.approx(0.017 * 40.0)
        # The paper: <2% relative change within dive limits.
        assert (deep - surface) / surface < 0.02

    def test_vectorised(self):
        temps = np.array([5.0, 15.0, 25.0])
        speeds = sound_speed_wilson(temps)
        assert speeds.shape == (3,)
        assert np.all(np.diff(speeds) > 0)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            sound_speed_wilson(15.0, 35.0, -1.0)

    @given(
        t=st.floats(0.0, 30.0),
        s=st.floats(0.0, 40.0),
        d=st.floats(0.0, 40.0),
    )
    def test_plausible_range(self, t, s, d):
        c = sound_speed_wilson(t, s, d)
        assert 1400.0 < c < 1600.0


class TestWaterProperties:
    def test_sound_speed_method(self):
        props = WaterProperties(temperature_c=14.0, salinity_ppt=0.2)
        assert props.sound_speed(2.0) == pytest.approx(
            sound_speed_wilson(14.0, 0.2, 2.0)
        )

    def test_profile_monotone_in_depth(self):
        props = WaterProperties(temperature_c=10.0)
        profile = sound_speed_wilson(
            props.temperature_c, props.salinity_ppt, np.array([0.0, 10.0, 20.0, 30.0])
        )
        assert np.all(np.diff(profile) > 0)


class TestAbsorption:
    def test_thorp_increases_with_frequency(self):
        freqs = [1_000.0, 3_000.0, 5_000.0, 10_000.0]
        alphas = [thorp_absorption_db_per_km(f) for f in freqs]
        assert all(b > a for a, b in zip(alphas, alphas[1:]))

    def test_thorp_small_in_band(self):
        # In the 1-5 kHz band absorption is well under 1 dB/km.
        assert thorp_absorption_db_per_km(5_000.0) < 2.0

    def test_absorption_linear_in_distance(self):
        one = absorption_loss_db(1_000.0, 3_000.0)
        two = absorption_loss_db(2_000.0, 3_000.0)
        assert two == pytest.approx(2 * one)

    def test_zero_distance_no_loss(self):
        assert absorption_loss_db(0.0, 3_000.0) == 0.0

    def test_array_matches_scalar(self):
        # The array-first image method and the per-tap one must agree
        # bit for bit on every path length.
        dists = np.array([0.5, 10.0, 23.7, 45.0])
        losses = absorption_loss_db(dists, 3_000.0)
        assert np.array_equal(losses, [absorption_loss_db(float(d), 3_000.0) for d in dists])

    @given(d=st.floats(1.0, 100.0), f=st.floats(500.0, 10_000.0))
    def test_loss_positive_and_monotone(self, d, f):
        loss = absorption_loss_db(d, f)
        assert loss > 0.0
        assert absorption_loss_db(d * 2, f) > loss


class TestDepthConversion:
    def test_surface_is_zero(self):
        assert pressure_to_depth(101_325.0) == pytest.approx(0.0)

    def test_one_metre(self):
        p = depth_to_pressure(1.0)
        assert p == pytest.approx(101_325.0 + 997.0 * 9.81)

    @given(h=st.floats(0.0, 40.0))
    def test_roundtrip(self, h):
        assert pressure_to_depth(depth_to_pressure(h)) == pytest.approx(h, abs=1e-9)

    def test_vectorised(self):
        depths = pressure_to_depth(np.array([101_325.0, 111_106.0]))
        assert depths.shape == (2,)
        assert depths[0] == pytest.approx(0.0)
