"""Extension bench: 100-node DES fleet round (beyond the paper's 7).

Runs the large-fleet campaign through the discrete-event engine and
checks the protocol-level outcomes against the paper's own analytic
models: TDMA round duration ``Delta_0 + (N-1) Delta_1`` and the
section-2.4 uplink/relay airtime. Also times one full 100-node round,
which is the unit of work every fleet scenario scales with.
"""

import numpy as np

from repro.experiments.ext_fleet import format_fleet
from repro.protocol.slots import round_duration
from repro.simulate.des.fleet import FleetConfig, run_fleet_campaign

#: Campaign-registry entry backing this bench (see conftest ``spec``).
EXPERIMENT = "fleet"


def test_ext_fleet_100(benchmark, rng, report, spec):
    config = FleetConfig(num_devices=100, num_rounds=3)
    result = run_fleet_campaign(rng, config)
    summary = result.summary()
    report(format_fleet(summary))
    benchmark.extra_info["coverage"] = summary["mean_coverage"]
    benchmark.extra_info["round_duration_s"] = summary["mean_round_duration_s"]
    benchmark.extra_info["energy_j"] = summary["mean_energy_j_per_round"]

    # Every active device syncs and transmits (the fleet builder keeps
    # the topology connected), the DES round tracks the TDMA model, and
    # the two-hop relay pushes report coverage well past the leader's
    # direct neighbourhood.
    assert summary["mean_transmit_ratio"] == 1.0
    model = round_duration(100)
    assert abs(summary["mean_round_duration_s"] - model) < 0.5
    assert summary["mean_coverage"] > 0.9
    assert summary["mean_relayed_reports"] > 0

    benchmark.pedantic(
        lambda: run_fleet_campaign(
            np.random.default_rng(23), FleetConfig(num_devices=100, num_rounds=1)
        ),
        rounds=3,
        iterations=1,
    )


def test_ext_fleet_1k_vec(benchmark, rng, report, spec):
    """The vectorized engine at 1k nodes with churn, mobility and drift
    (the fleet1k registry variant's workload; DESIGN.md §10)."""
    config = FleetConfig(
        num_devices=1000,
        num_rounds=2,
        leave_prob=0.05,
        join_prob=0.5,
        mobility_fraction=0.15,
        resync_interval_rounds=2,
        drift_wander_ppm=2.0,
    )
    result = run_fleet_campaign(rng, config)
    summary = result.summary()
    report(format_fleet(summary))
    benchmark.extra_info["coverage"] = summary["mean_coverage"]
    benchmark.extra_info["round_duration_s"] = summary["mean_round_duration_s"]
    benchmark.extra_info["energy_j"] = summary["mean_energy_j_per_round"]
    benchmark.extra_info["max_abs_clock_offset_s"] = summary[
        "max_abs_clock_offset_s"
    ]

    # Every transmit-allowed device syncs and transmits, and the drift
    # model actually accrued offsets between the 2-round resyncs.
    assert summary["mean_transmit_ratio"] == 1.0
    assert summary["max_abs_clock_offset_s"] > 0
    assert summary["mean_energy_j_per_round"] > 0

    benchmark.pedantic(
        lambda: run_fleet_campaign(
            np.random.default_rng(23),
            FleetConfig(num_devices=1000, num_rounds=1),
        ),
        rounds=2,
        iterations=1,
    )
