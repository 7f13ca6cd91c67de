"""Round-vs-oracle parity: the contract of DESIGN.md §4.

``run_protocol_round`` runs one first-arrival event loop; these tests
pin it, on fixed seeds, to the two frozen round oracles of
``tests/legacy_oracles.py``: the original fixed-point loop (swapped in
by :func:`legacy_round`) and the round on the generic per-event
simulator (swapped in by :func:`des_round`). Agreement is exact —
every report, beacon, transmit time and id list, float for float.
With acausal detection noise (a packet "detected" before it was sent)
the fixed point may legitimately diverge; the DES oracle may not.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from legacy_oracles import des_round, legacy_round
from repro.devices.clock import DeviceClock
from repro.geometry.topology import pairwise_distance_matrix
from repro.protocol.round import run_protocol_round
from repro.simulate.network_sim import NetworkSimulator, RangingErrorModel
from repro.simulate.scenario import testbed_scenario

#: Both round oracles, by name.
ORACLES = {"fixed point": legacy_round, "DES": des_round}


def _calibrated_noise(i, j, dist, rng):
    return rng.normal(0.0, 0.25 + 0.012 * dist) / 1_480.0


def _heavy_noise(i, j, dist, rng):
    """30 m of detection error: often acausal at these ranges."""
    return rng.normal(0.0, 30.0) / 1_480.0


def _random_setup(seed, n=5, max_range=None, skew_ppm=80.0, epoch_s=500.0):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-15, 15, size=(n, 3))
    pts[:, 2] = rng.uniform(1.0, 3.0, size=n)
    d = pairwise_distance_matrix(pts)
    conn = np.ones((n, n), dtype=bool) if max_range is None else d <= max_range
    np.fill_diagonal(conn, False)
    clocks = [
        DeviceClock(
            skew_ppm=rng.uniform(-skew_ppm, skew_ppm), epoch_s=rng.uniform(0, epoch_s)
        )
        for _ in range(n)
    ]
    return d, conn, clocks


def _round_and_oracles(d, conn, clocks, seed, noise=_calibrated_noise, oracles=ORACLES):
    """The production round, then each oracle's, on the same inputs."""

    def round_():
        return run_protocol_round(
            d,
            conn,
            1_480.0,
            clocks=clocks,
            depths=np.arange(d.shape[0]) * 0.25,
            arrival_noise=noise,
            rng=np.random.default_rng(seed),
        )

    outcomes = {}
    for name in oracles:
        with ORACLES[name]():
            outcomes[name] = round_()
    return round_(), outcomes


def _assert_outcomes_match(oracle, loop):
    """Exact equality of everything a round outputs (floats included)."""
    assert list(oracle.reports) == list(loop.reports)
    for i, report in oracle.reports.items():
        twin = loop.reports[i]
        assert report.own_tx_local_s == twin.own_tx_local_s
        assert report.depth_m == twin.depth_m
        assert report.receptions == twin.receptions
        assert list(twin.receptions) == sorted(twin.receptions)
    assert oracle.beacons == loop.beacons
    assert oracle.global_tx_times == loop.global_tx_times
    assert oracle.missed_slot_ids == loop.missed_slot_ids
    assert oracle.silent_ids == loop.silent_ids
    assert oracle.duration_s == loop.duration_s


def _assert_matches_oracles(loop, outcomes):
    for oracle in outcomes.values():
        _assert_outcomes_match(oracle, loop)
    if "DES" in outcomes:
        # Same event order and arithmetic: identical down to dict order
        # and float types.
        assert repr(outcomes["DES"]) == repr(loop)


class TestProtocolRoundParity:
    def test_paper_scale_reports_match(self):
        """5 devices, realistic clocks and calibrated noise."""
        d, conn, clocks = _random_setup(42)
        _assert_matches_oracles(*_round_and_oracles(d, conn, clocks, seed=7))

    def test_reports_match_to_float_precision(self):
        """The loop and the oracles share arithmetic term for term, so
        agreement is exact, not merely within a clock quantum."""
        d, conn, clocks = _random_setup(3)
        loop, outcomes = _round_and_oracles(d, conn, clocks, seed=11)
        for oracle in outcomes.values():
            for i, report in oracle.reports.items():
                assert report.own_tx_local_s == loop.reports[i].own_tx_local_s
                assert report.receptions == loop.reports[i].receptions

    def test_out_of_leader_range_parity(self):
        """A device outside the leader's range syncs to the first
        beacon it hears — all three rounds agree on slot inference."""
        d, conn, clocks = _random_setup(9)
        conn[4, 0] = conn[0, 4] = False
        loop, outcomes = _round_and_oracles(d, conn, clocks, seed=5)
        assert 4 in loop.reports
        _assert_matches_oracles(loop, outcomes)

    def test_silent_device_parity(self):
        d, conn, clocks = _random_setup(13, n=4)
        conn[3, :] = conn[:, 3] = False
        loop, outcomes = _round_and_oracles(d, conn, clocks, seed=13)
        assert loop.silent_ids == [3]
        _assert_matches_oracles(loop, outcomes)

    def test_beacons_and_sync_refs_match(self):
        d, conn, clocks = _random_setup(21, max_range=28.0)
        loop, outcomes = _round_and_oracles(d, conn, clocks, seed=21)
        for oracle in outcomes.values():
            assert [
                (b.sender_id, b.sync_ref_id, b.tx_local_time_s) for b in oracle.beacons
            ] == [(b.sender_id, b.sync_ref_id, b.tx_local_time_s) for b in loop.beacons]

    def test_round_has_no_backend_knob(self):
        """The first-arrival loop is the only production round; the
        oracles are reachable from the tests alone."""
        d, conn, clocks = _random_setup(1, n=3)
        with pytest.raises(TypeError):
            run_protocol_round(d, conn, 1_480.0, backend="des")
        scenario = testbed_scenario("dock", num_devices=4, rng=np.random.default_rng(1))
        with pytest.raises(TypeError):
            NetworkSimulator(scenario, backend="des")

    def test_exact_arrival_tie_breaks_in_schedule_order(self):
        """Two beacons reach device 3 at the same float time; the one
        scheduled first (device 2's, sent before device 1's deferred
        slot) wins, as on both oracles."""
        d = np.full((4, 4), 15.0)
        np.fill_diagonal(d, 0.0)
        d[2, 3] = d[3, 2] = 2_000.0
        conn = np.zeros((4, 4), dtype=bool)
        for i, j in [(0, 2), (1, 2), (1, 3), (2, 3)]:
            conn[i, j] = conn[j, i] = True
        tx = run_protocol_round(d, conn, 1_480.0).global_tx_times
        assert tx[2] < tx[1]
        tie = tx[2] + 2_000.0 / 1_480.0
        base = tx[1] + 15.0 / 1_480.0
        extra = tie - base
        while base + extra != tie:  # absorb the rounding of tie - base
            extra = np.nextafter(extra, np.inf if base + extra < tie else -np.inf)

        def noise(i, j, dist, rng):
            return extra if (i, j) == (3, 1) else 0.0

        loop, outcomes = _round_and_oracles(
            d, conn, [DeviceClock()] * 4, seed=0, noise=noise
        )
        assert loop.reports[3].receptions[1] == loop.reports[3].receptions[2]
        assert loop.beacons[3].sync_ref_id == 2
        _assert_matches_oracles(loop, outcomes)

    @pytest.mark.parametrize("max_range", [None, 22.0, 30.0])
    @pytest.mark.parametrize("seed", range(8))
    def test_transmissions_scheduled_in_the_past_fire_in_schedule_order(
        self, seed, max_range
    ):
        """Detection errors beyond the processing margin (σ = 2 km) put
        whole slots before "now": every such event clamps to "now" and
        fires in schedule order, as on the DES oracle."""

        def extreme_noise(i, j, dist, rng):
            return rng.normal(0.0, 2_000.0) / 1_480.0

        d, conn, clocks = _random_setup(seed, n=8, max_range=max_range)
        loop, outcomes = _round_and_oracles(
            d, conn, clocks, seed=seed, noise=extreme_noise, oracles=["DES"]
        )
        _assert_matches_oracles(loop, outcomes)

    @pytest.mark.parametrize("harness", [legacy_round, des_round])
    def test_harness_fails_when_no_round_reaches_its_oracle(self, harness):
        with pytest.raises(AssertionError, match="no protocol round reached"):
            with harness():
                pass

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 11),
        max_range=st.sampled_from([None, 22.0, 30.0]),
        clock_spread=st.sampled_from([(0.0, 0.0), (20.0, 5.0), (80.0, 500.0)]),
        loss=st.sampled_from([0.0, 0.05, 0.3]),
        heavy=st.booleans(),
    )
    def test_parity_over_random_topologies(
        self, seed, n, max_range, clock_spread, loss, heavy
    ):
        """Random topologies, clock skew and epochs, asymmetric loss and
        (when ``heavy``) partly acausal noise, where only the DES oracle
        has to agree."""
        skew_ppm, epoch_s = clock_spread
        d, conn, clocks = _random_setup(
            seed, n=n, max_range=max_range, skew_ppm=skew_ppm, epoch_s=epoch_s
        )
        # Directional loss, like the network simulator applies.
        rng = np.random.default_rng(seed + 1)
        conn = conn & ~(rng.random((n, n)) < loss)
        loop, outcomes = _round_and_oracles(
            d,
            conn,
            clocks,
            seed=seed,
            noise=_heavy_noise if heavy else _calibrated_noise,
            oracles=["DES"] if heavy else list(ORACLES),
        )
        _assert_matches_oracles(loop, outcomes)


class TestNetworkSimulatorParity:
    def test_full_round_identical_through_localization(self):
        """The loop leaves every figure-experiment number in place: a
        full NetworkSimulator round (uplink quantisation, flip vote,
        localization) is bit-identical on either oracle."""

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

        loop = round_()
        for harness in ORACLES.values():
            with harness():
                oracle = round_()
            assert np.array_equal(oracle.distances, loop.distances)
            assert np.array_equal(oracle.weights, loop.weights)
            assert np.array_equal(oracle.errors_2d, loop.errors_2d)
            assert oracle.flip_correct == loop.flip_correct

    def test_many_rounds_consume_rng_identically(self):
        """Round k's randomness is unaffected by which round ran rounds
        0..k-1 (the pre-draw keeps the stream aligned)."""

        def errors_2d():
            scenario = testbed_scenario(
                "boathouse", num_devices=5, rng=np.random.default_rng(7)
            )
            sim = NetworkSimulator(scenario, rng=np.random.default_rng(17))
            return [r.errors_2d for r in sim.run_many(4)]

        loop = errors_2d()
        for harness in ORACLES.values():
            with harness():
                oracle = errors_2d()
            assert len(oracle) == len(loop)
            for a, b in zip(oracle, loop):
                assert np.array_equal(a, b)
