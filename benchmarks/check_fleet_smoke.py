"""CI fleet-scale smoke: the fleet1k registry variant.

Usage::

    PYTHONPATH=src python benchmarks/check_fleet_smoke.py \
        --scale 0.5 --budget-s 15 --json fleet-smoke.json

Runs the ``fleet1k`` variant exactly as the campaign registry defines
it (1000 nodes, churn + mobility + oscillator wander), at
``--scale``-reduced rounds, and fails (exit 1) when:

* the run exceeds the ``--budget-s`` wall-clock budget — the vec
  engine's whole point is that 1k nodes are interactive, so a blown
  budget means the scaling story regressed;
* the summary is missing any of the schema keys a fleet artifact
  carries (coverage, energy, drift, churn, duty columns) — partial
  summaries must not ship as green;
* a basic sanity bound fails (every transmit-allowed device transmits,
  energy is positive, the drift model accrued offsets).

The JSON artifact records the wall time, budget, the process's peak
resident set (``peak_rss_mb``, from ``ru_maxrss``; recorded, not gated)
and summary for the CI run log.
"""

from __future__ import annotations

import argparse
import json
import time

#: Every key a fleet campaign summary must carry (the artifact schema).
SUMMARY_SCHEMA = (
    "num_devices",
    "mac",
    "rounds",
    "mean_active",
    "mean_transmit_ratio",
    "mean_coverage",
    "mean_direct_reports",
    "mean_relayed_reports",
    "mean_unreachable",
    "mean_relay_waves",
    "mean_round_duration_s",
    "tdma_model_round_s",
    "mean_uplink_latency_s",
    "total_collisions",
    "total_tx_attempts",
    "total_missed_slots",
    "total_gave_up",
    "mean_energy_j_per_round",
    "max_energy_j_per_round",
    "duty_silenced_total",
    "mean_abs_clock_offset_s",
    "max_abs_clock_offset_s",
    "churn_leaves",
    "churn_joins",
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale",
        type=float,
        default=0.5,
        help="round-count multiplier for the fleet1k variant (default 0.5)",
    )
    parser.add_argument(
        "--budget-s",
        type=float,
        default=15.0,
        help="wall-clock budget in seconds (default 15)",
    )
    parser.add_argument(
        "--json", metavar="PATH", help="write the smoke artifact here"
    )
    args = parser.parse_args(argv)

    from repro.experiments import engine

    spec = engine.get_spec("fleet")
    variant = spec.variant("fleet1k")
    entry = spec.resolve_entry()

    print(
        f"fleet-scale smoke: fleet1k (scale {args.scale}, "
        f"budget {args.budget_s:.0f}s) ..."
    )
    start = time.perf_counter()
    output = entry(
        engine.experiment_rng("fleet", "fleet1k"),
        scale=args.scale,
        **dict(variant.params),
    )
    wall = time.perf_counter() - start
    peak_rss_mb = engine.peak_rss_mb()
    summary = output.measured

    failures = []
    if wall > args.budget_s:
        failures.append(
            f"wall clock {wall:.1f}s exceeded the {args.budget_s:.0f}s budget"
        )
    missing = [key for key in SUMMARY_SCHEMA if key not in summary]
    if missing:
        failures.append(f"summary missing schema keys: {', '.join(missing)}")
    else:
        if summary["mean_transmit_ratio"] != 1.0:
            failures.append(
                f"transmit ratio {summary['mean_transmit_ratio']} != 1.0"
            )
        if not summary["mean_energy_j_per_round"] > 0:
            failures.append("energy per round is not positive")
        if not summary["max_abs_clock_offset_s"] > 0:
            failures.append(
                "drift model accrued no clock offset (wander/resync broken)"
            )

    print(output.report)
    print(
        f"wall {wall:.1f}s / budget {args.budget_s:.0f}s, "
        f"peak RSS {peak_rss_mb:.1f} MB"
    )

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "schema": "repro-fleet-smoke/1",
                    "variant": "fleet1k",
                    "scale": args.scale,
                    "budget_s": args.budget_s,
                    "wall_s": wall,
                    "peak_rss_mb": peak_rss_mb,
                    "summary": summary,
                },
                fh,
                indent=2,
                sort_keys=True,
            )
            fh.write("\n")
        print(f"wrote {args.json}")

    if failures:
        print("fleet-scale smoke: FAILED")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("fleet-scale smoke: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
