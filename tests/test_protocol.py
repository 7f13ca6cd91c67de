"""Tests for the distributed timestamp protocol."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import (
    DEFAULT_SOUND_SPEED,
    DELTA0_S,
    DELTA1_S,
    MAX_RANGE_M,
    T_GUARD_S,
    TWO_TAU_MAX_S,
)
from repro.devices.clock import DeviceClock
from repro.errors import ConfigurationError, ProtocolError
from repro.geometry.topology import pairwise_distance_matrix
from repro.protocol.ranging_matrix import (
    pairwise_distances_from_reports,
    two_way_distance,
)
from repro.protocol.round import run_protocol_round
from repro.protocol.slots import assigned_slot_time, round_duration
from repro.protocol.sync import infer_transmit_slot


class TestSlots:
    def test_leader_at_zero(self):
        assert assigned_slot_time(0) == 0.0

    def test_paper_slot_times(self):
        assert assigned_slot_time(1) == pytest.approx(0.600)
        assert assigned_slot_time(2) == pytest.approx(0.920)
        assert assigned_slot_time(5) == pytest.approx(0.600 + 4 * 0.320)

    def test_round_duration_paper_values(self):
        # Paper latency table: 1.2/1.6/1.9/2.2/2.5 s for N=3..7.
        expected = {3: 1.24, 4: 1.56, 5: 1.88, 6: 2.20, 7: 2.52}
        for n, value in expected.items():
            assert round_duration(n) == pytest.approx(value, abs=0.01)

    def test_slots_spaced_by_delta1(self):
        for k in range(1, 7):
            assert assigned_slot_time(k + 1) - assigned_slot_time(k) == pytest.approx(DELTA1_S)
        for n in range(2, 8):
            assert round_duration(n + 1) - round_duration(n) == pytest.approx(DELTA1_S)
            assert round_duration(n, all_in_range=False) > round_duration(n)

    def test_worst_case_doubles_span(self):
        normal = round_duration(5)
        worst = round_duration(5, all_in_range=False)
        assert worst == pytest.approx(DELTA0_S + 2 * (normal - DELTA0_S))

    def test_guard_covers_two_way_propagation(self):
        # Paper: 42 ms guard at 32 m max range, i.e. 2 * tau_max at
        # 1500 m/s to within 1 ms, and no shorter than the uplink's 2*tau.
        assert T_GUARD_S >= TWO_TAU_MAX_S
        assert T_GUARD_S == pytest.approx(2 * MAX_RANGE_M / 1_500.0, abs=1e-3)

    def test_guard_spans_max_range_only_above_1524_mps(self):
        # The paper's 42 ms and 32 m: the guard spans the two-way trip to
        # MAX_RANGE_M from 2 * 32 / 0.042 = 1523.81 m/s up, and at the
        # default sound speed only to 1480 * 0.042 / 2 = 31.08 m.
        assert (T_GUARD_S, MAX_RANGE_M, DEFAULT_SOUND_SPEED) == (0.042, 32.0, 1_480.0)
        assert 2 * MAX_RANGE_M / T_GUARD_S == pytest.approx(1_523.8095238, rel=1e-10)
        assert DEFAULT_SOUND_SPEED * T_GUARD_S / 2 == pytest.approx(31.08, rel=1e-12)
        assert 2 * MAX_RANGE_M / DEFAULT_SOUND_SPEED > T_GUARD_S

    def test_schedule_validation(self):
        with pytest.raises(ConfigurationError):
            assigned_slot_time(-1)
        with pytest.raises(ConfigurationError):
            round_duration(1)


class TestSlotInference:
    def test_heard_leader(self):
        tx, missed = infer_transmit_slot(2, 0, 10.0, 5)
        assert tx == pytest.approx(10.0 + DELTA0_S + DELTA1_S)
        assert not missed

    def test_heard_earlier_device_makes_slot(self):
        # Device 4 hears device 1: gap (4-1)*0.32 = 0.96 > 0.6 -> makes it.
        tx, missed = infer_transmit_slot(4, 1, 5.0, 6)
        assert tx == pytest.approx(5.0 + 3 * DELTA1_S)
        assert not missed

    def test_heard_close_device_misses_slot(self):
        # Device 2 hears device 1: gap 0.32 < 0.6 -> full extra cycle.
        n = 6
        tx, missed = infer_transmit_slot(2, 1, 5.0, n)
        assert missed
        assert tx == pytest.approx(5.0 + (n - 1 + 2) * DELTA1_S)

    def test_validation(self):
        with pytest.raises(ProtocolError):
            infer_transmit_slot(0, 1, 0.0, 4)
        with pytest.raises(ProtocolError):
            infer_transmit_slot(2, 2, 0.0, 4)
        with pytest.raises(ProtocolError):
            infer_transmit_slot(5, 0, 0.0, 4)


def _full_connectivity(n):
    conn = np.ones((n, n), dtype=bool)
    np.fill_diagonal(conn, False)
    return conn


def _random_positions(rng, n, spread=15.0):
    pts = rng.uniform(-spread, spread, size=(n, 3))
    pts[:, 2] = rng.uniform(1.0, 3.0, size=n)
    return pts


class TestProtocolRound:
    def test_distances_recovered_with_ideal_clocks(self):
        rng = np.random.default_rng(0)
        pts = _random_positions(rng, 5)
        d = pairwise_distance_matrix(pts)
        outcome = run_protocol_round(d, _full_connectivity(5), 1_500.0, rng=rng)
        est, w = pairwise_distances_from_reports(outcome.reports.values(), 1_500.0)
        assert np.all(w[np.triu_indices(5, 1)] == 1.0)
        assert np.nanmax(np.abs(est - d)) < 1e-6

    def test_clock_offsets_cancel(self):
        rng = np.random.default_rng(1)
        pts = _random_positions(rng, 4)
        d = pairwise_distance_matrix(pts)
        clocks = [
            DeviceClock(skew_ppm=rng.uniform(-80, 80), epoch_s=rng.uniform(0, 500))
            for _ in range(4)
        ]
        outcome = run_protocol_round(
            d, _full_connectivity(4), 1_500.0, clocks=clocks, rng=rng
        )
        est, _ = pairwise_distances_from_reports(outcome.reports.values(), 1_500.0)
        # ppm skew over sub-second intervals: centimetre-level residuals.
        assert np.nanmax(np.abs(est - d)) < 0.1

    def test_out_of_leader_range_device_still_ranged(self):
        rng = np.random.default_rng(2)
        pts = _random_positions(rng, 5)
        d = pairwise_distance_matrix(pts)
        conn = _full_connectivity(5)
        conn[0, 4] = conn[4, 0] = False  # device 4 cannot hear the leader
        outcome = run_protocol_round(d, conn, 1_500.0, rng=rng)
        assert 4 in outcome.reports
        est, w = pairwise_distances_from_reports(outcome.reports.values(), 1_500.0)
        # Links not involving the leader-4 pair stay accurate.
        assert w[1, 4] == 1.0
        assert abs(est[1, 4] - d[1, 4]) < 0.2

    def test_one_way_loss_recovered_via_common_neighbour(self):
        rng = np.random.default_rng(3)
        pts = _random_positions(rng, 5)
        d = pairwise_distance_matrix(pts)
        conn = _full_connectivity(5)
        conn[2, 3] = False  # 2 cannot hear 3 (one direction only)
        outcome = run_protocol_round(d, conn, 1_500.0, rng=rng)
        est, w = pairwise_distances_from_reports(outcome.reports.values(), 1_500.0)
        assert w[2, 3] == 1.0
        assert abs(est[2, 3] - d[2, 3]) < 0.2

    def test_recovery_disabled(self):
        rng = np.random.default_rng(4)
        pts = _random_positions(rng, 4)
        d = pairwise_distance_matrix(pts)
        conn = _full_connectivity(4)
        conn[1, 2] = False
        outcome = run_protocol_round(d, conn, 1_500.0, rng=rng)
        est, w = pairwise_distances_from_reports(
            outcome.reports.values(), 1_500.0, recover_one_way=False
        )
        assert w[1, 2] == 0.0

    def test_silent_device_reported(self):
        rng = np.random.default_rng(5)
        pts = _random_positions(rng, 4)
        d = pairwise_distance_matrix(pts)
        conn = np.zeros((4, 4), dtype=bool)
        conn[0, 1] = conn[1, 0] = True  # only leader <-> 1 connected
        outcome = run_protocol_round(d, conn, 1_500.0, rng=rng)
        assert 2 in outcome.silent_ids and 3 in outcome.silent_ids
        # The silent top ids keep their rows: NaN distances, zero weight.
        reports = outcome.reports.values()
        est, w = pairwise_distances_from_reports(reports, 1_500.0, num_devices=4)
        assert est.shape == w.shape == (4, 4)
        assert np.isnan(est[2:, :2]).all() and not w[2:].any()
        assert w[0, 1] == 1.0
        with pytest.raises(ValueError, match="device 1 in a 1-device round"):
            pairwise_distances_from_reports(reports, 1_500.0, num_devices=1)

    def test_duration_close_to_schedule(self):
        rng = np.random.default_rng(6)
        pts = _random_positions(rng, 5)
        d = pairwise_distance_matrix(pts)
        outcome = run_protocol_round(d, _full_connectivity(5), 1_500.0, rng=rng)
        bound = round_duration(5)
        assert outcome.duration_s < bound
        assert outcome.duration_s > bound - DELTA1_S

    def test_arrival_noise_applied(self):
        rng = np.random.default_rng(7)
        pts = _random_positions(rng, 4)
        d = pairwise_distance_matrix(pts)

        def noise(i, j, dist, r):
            return 1.0 / 1_500.0  # one metre of bias per detection

        outcome = run_protocol_round(
            d, _full_connectivity(4), 1_500.0, arrival_noise=noise, rng=rng
        )
        est, _ = pairwise_distances_from_reports(outcome.reports.values(), 1_500.0)
        # Symmetric bias on both directions: (e_ij - (-e_ji))/2 ... the
        # two-way formula averages the two biases.
        off_diag = est[np.triu_indices(4, 1)] - d[np.triu_indices(4, 1)]
        assert np.allclose(np.abs(off_diag), 1.0, atol=0.2)

    def test_acausal_arrival_clamps_the_event_not_the_timestamp(self):
        """A detection error larger than the flight time puts an arrival
        before its transmission: the event fires at "now", but the node
        records, and infers its slot from, the exact noisy time."""
        d = np.array([[0.0, 15.0], [15.0, 0.0]])

        def noise(i, j, dist, r):
            return -0.02 if (i, j) == (1, 0) else 0.0

        outcome = run_protocol_round(
            d, _full_connectivity(2), 1_500.0, arrival_noise=noise
        )
        heard = 0.0 + 15.0 / 1_500.0 + -0.02
        assert heard < 0.0
        assert outcome.reports[1].receptions == {0: heard}
        assert outcome.global_tx_times == {0: 0.0, 1: heard + DELTA0_S}

    def test_first_beacon_fixes_the_slot(self):
        """Device 3 cannot hear the leader; it syncs to device 1's
        beacon, which arrives first, and only timestamps device 2's."""
        d = np.full((4, 4), 30.0)
        np.fill_diagonal(d, 0.0)
        conn = _full_connectivity(4)
        conn[0, 3] = conn[3, 0] = False
        outcome = run_protocol_round(d, conn, 1_500.0)
        first = outcome.global_tx_times[1] + 30.0 / 1_500.0
        assert outcome.beacons[3].sync_ref_id == 1
        assert outcome.global_tx_times[3] == infer_transmit_slot(3, 1, first, 4)[0]
        assert sorted(outcome.reports[3].receptions) == [1, 2]
        assert outcome.missed_slot_ids == []

    def test_validation(self):
        with pytest.raises(ProtocolError):
            run_protocol_round(np.zeros((2, 3)), np.zeros((2, 3), bool), 1_500.0)
        with pytest.raises(ProtocolError):
            run_protocol_round(np.zeros((1, 1)), np.zeros((1, 1), bool), 1_500.0)
        d = np.full((3, 3), 10.0)
        np.fill_diagonal(d, 0.0)
        conn = _full_connectivity(3)
        # An empty clock list is a count mismatch, not "ideal clocks".
        for clocks in ([], [DeviceClock()] * 2):
            with pytest.raises(ProtocolError, match="clock"):
                run_protocol_round(d, conn, 1_500.0, clocks=clocks)
        for depths in ([1.0, 2.0], [1.0, 2.0, 3.0, 4.0], np.zeros((3, 1))):
            with pytest.raises(ProtocolError, match="depth"):
                run_protocol_round(d, conn, 1_500.0, depths=depths)
        for bad in (np.nan, np.inf, -1.0):
            d_bad = d.copy()
            d_bad[1, 2] = bad
            with pytest.raises(ProtocolError, match="distances"):
                run_protocol_round(d_bad, conn, 1_500.0)
        for speed in (0.0, -1_500.0, np.nan, np.inf):
            with pytest.raises(ConfigurationError, match="sound speed"):
                run_protocol_round(d, conn, speed)

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(3, 7), seed=st.integers(0, 1_000))
    def test_fully_connected_always_complete(self, n, seed):
        rng = np.random.default_rng(seed)
        pts = _random_positions(rng, n)
        d = pairwise_distance_matrix(pts)
        outcome = run_protocol_round(d, _full_connectivity(n), 1_500.0, rng=rng)
        assert len(outcome.reports) == n
        assert not outcome.silent_ids
        est, w = pairwise_distances_from_reports(outcome.reports.values(), 1_500.0)
        assert np.all(w[np.triu_indices(n, 1)] == 1.0)
        assert np.nanmax(np.abs(est - d)) < 1e-6


class TestTwoWayDistance:
    def test_missing_leg_returns_none(self):
        from repro.protocol.messages import TimestampReport

        a = TimestampReport(device_id=0, depth_m=0, own_tx_local_s=0.0, receptions={})
        b = TimestampReport(device_id=1, depth_m=0, own_tx_local_s=0.6, receptions={0: 0.01})
        assert two_way_distance(a, b, 1_500.0) is None
