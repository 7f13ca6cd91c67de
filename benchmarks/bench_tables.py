"""The paper's in-text tables: protocol latency, flipping accuracy,
uplink latency, battery life."""

import pytest

from repro.experiments.tables import (
    PAPER_COMM_LATENCY_S,
    PAPER_ROUND_TIMES_S,
    format_battery,
    format_comm_latency,
    format_flipping,
    format_round_times,
    run_battery_model,
    run_comm_latency,
    run_flipping_accuracy,
    run_round_times,
)


def test_table_protocol_latency(rng, report):
    results = run_round_times(rng, rounds_per_count=6)
    report(format_round_times(results))
    for r in results:
        paper = PAPER_ROUND_TIMES_S[r.num_devices]
        # Paper: 1.2/1.6/1.9/2.2/2.5 s for N = 3..7.
        assert r.measured_mean_s == pytest.approx(paper, abs=0.15)


def test_table_flipping_accuracy(rng, report):
    results = run_flipping_accuracy(rng, num_rounds=50)
    report(format_flipping(results))
    by_voters = {r.num_voters: r.accuracy for r in results}

    # Paper: 90.1% with one voter, 100% with three.
    assert by_voters[1] >= 0.75
    assert by_voters[3] >= by_voters[1] - 0.05
    assert by_voters[3] >= 0.9


def test_table_comm_latency(report):
    latencies = run_comm_latency()
    report(format_comm_latency(latencies))
    for n, paper in PAPER_COMM_LATENCY_S.items():
        assert latencies[n] == pytest.approx(paper, abs=0.1)


def test_table_battery(report):
    results = run_battery_model()
    report(format_battery(results))
    by_model = {r.model: r.battery_drop_fraction for r in results}

    # Paper: watch -90%, phone -63% after 4.5 h.
    assert by_model["apple_watch_ultra"] == pytest.approx(0.90, abs=0.10)
    assert by_model["samsung_s9"] == pytest.approx(0.63, abs=0.12)
