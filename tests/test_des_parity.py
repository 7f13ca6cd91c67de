"""DES-vs-oracle parity: the adapter contract of DESIGN.md §4.

``run_protocol_round`` runs on the discrete-event engine; these tests
pin it to the original fixed-point loop (the frozen
``legacy_protocol_round`` oracle of ``tests/legacy_oracles.py``,
swapped in for the DES by :func:`legacy_round`) on fixed seeds — down
to float equality for the timestamp reports, which is far inside the
uplink's clock quantization (2 samples at 44.1 kHz ≈ 45 µs).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from legacy_oracles import legacy_round
from repro.devices.clock import DeviceClock
from repro.geometry.topology import pairwise_distance_matrix
from repro.protocol.round import run_protocol_round
from repro.simulate.network_sim import NetworkSimulator, RangingErrorModel
from repro.simulate.scenario import testbed_scenario

#: One uplink timestamp quantum (the satellite-task tolerance); the
#: backends actually agree to float precision.
CLOCK_QUANTUM_S = 2 / 44_100


def _calibrated_noise(i, j, dist, rng):
    return rng.normal(0.0, 0.25 + 0.012 * dist) / 1_480.0


def _random_setup(seed, n=5, max_range=None):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-15, 15, size=(n, 3))
    pts[:, 2] = rng.uniform(1.0, 3.0, size=n)
    d = pairwise_distance_matrix(pts)
    conn = np.ones((n, n), dtype=bool) if max_range is None else d <= max_range
    np.fill_diagonal(conn, False)
    clocks = [
        DeviceClock(skew_ppm=rng.uniform(-80, 80), epoch_s=rng.uniform(0, 500))
        for _ in range(n)
    ]
    return d, conn, clocks


def _both_backends(d, conn, clocks, seed, **kwargs):
    def round_():
        return run_protocol_round(
            d,
            conn,
            1_480.0,
            clocks=clocks,
            arrival_noise=_calibrated_noise,
            rng=np.random.default_rng(seed),
            **kwargs,
        )

    with legacy_round():
        legacy = round_()
    return legacy, round_()


def _assert_outcomes_match(legacy, des, tol=CLOCK_QUANTUM_S):
    assert set(legacy.reports) == set(des.reports)
    assert sorted(legacy.silent_ids) == sorted(des.silent_ids)
    assert sorted(legacy.missed_slot_ids) == sorted(des.missed_slot_ids)
    assert legacy.duration_s == pytest.approx(des.duration_s, abs=tol)
    for i, report in legacy.reports.items():
        twin = des.reports[i]
        assert report.own_tx_local_s == pytest.approx(twin.own_tx_local_s, abs=tol)
        assert set(report.receptions) == set(twin.receptions)
        for j, t in report.receptions.items():
            assert t == pytest.approx(twin.receptions[j], abs=tol)
    for i, t in legacy.global_tx_times.items():
        assert t == pytest.approx(des.global_tx_times[i], abs=tol)


class TestProtocolRoundParity:
    def test_paper_scale_reports_match(self):
        """5 devices, realistic clocks and calibrated noise: the
        satellite-task scenario."""
        d, conn, clocks = _random_setup(42)
        legacy, des = _both_backends(d, conn, clocks, seed=7)
        _assert_outcomes_match(legacy, des)

    def test_reports_match_to_float_precision(self):
        """The backends share arithmetic term for term, so agreement is
        *exact*, not merely within the quantum."""
        d, conn, clocks = _random_setup(3)
        legacy, des = _both_backends(d, conn, clocks, seed=11)
        for i, report in legacy.reports.items():
            assert report.own_tx_local_s == des.reports[i].own_tx_local_s
            assert report.receptions == des.reports[i].receptions

    def test_out_of_leader_range_parity(self):
        """A device outside the leader's range syncs to the first
        beacon it hears — both backends agree on slot inference."""
        d, conn, clocks = _random_setup(9)
        conn[4, 0] = conn[0, 4] = False
        legacy, des = _both_backends(d, conn, clocks, seed=5)
        assert 4 in des.reports
        _assert_outcomes_match(legacy, des)

    def test_silent_device_parity(self):
        d, conn, clocks = _random_setup(13, n=4)
        conn[3, :] = conn[:, 3] = False
        legacy, des = _both_backends(d, conn, clocks, seed=13)
        assert des.silent_ids == [3]
        _assert_outcomes_match(legacy, des)

    def test_beacons_and_sync_refs_match(self):
        d, conn, clocks = _random_setup(21, max_range=28.0)
        legacy, des = _both_backends(d, conn, clocks, seed=21)
        assert len(legacy.beacons) == len(des.beacons)
        for a, b in zip(legacy.beacons, des.beacons):
            assert (a.sender_id, a.sync_ref_id) == (b.sender_id, b.sync_ref_id)
            assert a.tx_local_time_s == pytest.approx(
                b.tx_local_time_s, abs=CLOCK_QUANTUM_S
            )

    def test_round_has_no_backend_knob(self):
        """The DES is the only production round; the fixed point is
        reachable from the tests alone."""
        d, conn, clocks = _random_setup(1, n=3)
        with pytest.raises(TypeError):
            run_protocol_round(d, conn, 1_480.0, backend="des")
        scenario = testbed_scenario("dock", num_devices=4, rng=np.random.default_rng(1))
        with pytest.raises(TypeError):
            NetworkSimulator(scenario, backend="des")

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(3, 8),
        max_range=st.sampled_from([None, 22.0, 30.0]),
    )
    def test_parity_over_random_topologies(self, seed, n, max_range):
        d, conn, clocks = _random_setup(seed, n=n, max_range=max_range)
        # Directional loss, like the network simulator applies.
        rng = np.random.default_rng(seed + 1)
        conn = conn & ~(rng.random((n, n)) < 0.05)
        legacy, des = _both_backends(d, conn, clocks, seed=seed)
        _assert_outcomes_match(legacy, des)


class TestNetworkSimulatorParity:
    def test_full_round_identical_through_localization(self):
        """The DES backend leaves every figure-experiment number in
        place: a full NetworkSimulator round (uplink quantisation,
        flip vote, localization) is bit-identical."""
        def round_():
            scenario = testbed_scenario(
                "dock", num_devices=5, rng=np.random.default_rng(2023)
            )
            sim = NetworkSimulator(
                scenario,
                error_model=RangingErrorModel(),
                rng=np.random.default_rng(99),
            )
            return sim.run_round()

        with legacy_round():
            legacy = round_()
        des = round_()
        assert np.array_equal(legacy.distances, des.distances)
        assert np.array_equal(legacy.weights, des.weights)
        assert np.array_equal(legacy.errors_2d, des.errors_2d)
        assert legacy.flip_correct == des.flip_correct

    def test_many_rounds_consume_rng_identically(self):
        """Round k's randomness is unaffected by which round ran rounds
        0..k-1 (the pre-draw keeps the stream aligned)."""

        def errors_2d():
            scenario = testbed_scenario(
                "boathouse", num_devices=5, rng=np.random.default_rng(7)
            )
            sim = NetworkSimulator(scenario, rng=np.random.default_rng(17))
            return [r.errors_2d for r in sim.run_many(4)]

        errors = {"des": errors_2d()}
        with legacy_round():
            errors["legacy"] = errors_2d()
        assert len(errors["legacy"]) == len(errors["des"])
        for a, b in zip(errors["legacy"], errors["des"]):
            assert np.array_equal(a, b)
