"""Large-fleet DES tour: a 100-node campaign through ``run_campaign``.

Run with::

    PYTHONPATH=src python examples/fleet.py

Demonstrates the fleet campaigns of `repro.simulate.des`: the
``fleet`` variants through the campaign engine, the beyond-paper
scenario axes (churn, mobility, contention MAC), and direct use of
``FleetConfig`` for custom scenarios. Every round runs on the
vectorized fleet engine (`repro.simulate.des.fleetvec`), byte-identical
to the per-event DES round kept as a test oracle. Uses a small
``scale`` so the tour finishes quickly.
"""

import numpy as np

from repro.experiments.engine import campaign_to_json, get_spec, run_campaign
from repro.simulate.des import FleetConfig, run_fleet_campaign


def main() -> None:
    # 1. The fleet spec and its scenario catalog.
    spec = get_spec("fleet")
    print(f"{spec.name}: {spec.title}")
    print(f"  paper reference: {spec.paper_ref}")
    print("  variants:", ", ".join(v.name for v in spec.variants))

    # 2. A 100-node fleet campaign through the engine — the same seeded
    #    substream machinery as the paper figures, so serial and
    #    --workers runs produce byte-identical JSON artifacts.
    results = run_campaign(["fleet"], base_seed=2023, workers=4, scale=0.25)
    for result in results:
        print(f"\n===== fleet/{result.variant}")
        print(result.report)
    artifact = campaign_to_json(results, base_seed=2023)
    print(f"\nJSON artifact: {len(artifact)} bytes, {len(results)} variants")

    # 3. Direct DES use: a custom 120-node scenario with churn AND
    #    mobility AND the contention MAC at once.
    config = FleetConfig(
        num_devices=120,
        num_rounds=3,
        mac="contention",
        leave_prob=0.05,
        join_prob=0.6,
        mobility_fraction=0.2,
    )
    result = run_fleet_campaign(np.random.default_rng(42), config)
    summary = result.summary()
    print(
        f"\nCustom 120-node contention fleet: "
        f"{summary['mean_coverage']:.1%} coverage, "
        f"{summary['total_collisions']} collisions, "
        f"{summary['churn_leaves']} leaves / {summary['churn_joins']} joins, "
        f"{summary['mean_energy_j_per_round']:.1f} J per round"
    )


if __name__ == "__main__":
    main()
