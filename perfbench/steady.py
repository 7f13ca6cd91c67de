"""Steadiness mode: two sets of timed runs per workload, spread per metric.

Usage (from the repository root)::

    python3 perfbench/steady.py --runs 10 [--workloads ranging fleet] \\
        [--sets 2] [--seconds N] [--first-seed 100] [--json out.json]

Each run is a separate ``perfbench/run.py --trace 0`` process with its
own seed.  For every end-to-end metric the report gives, per set, the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread (interquartile range over the median), then the shift of the
second set's median against the first's in the metric's worse
direction.  A metric is steady when each spread is below a third of
its ``BENCHMARK.json`` bound and the shift is within the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent


def summarize(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def worse_shift(first: float, second: float, better: str) -> float:
    """Relative change from ``first`` to ``second``; positive is worse."""
    change = (second - first) / first
    return change if better == "lower" else -change


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    started = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}:\n{out.stdout}\n{out.stderr}")
    # Exit code 1 (a failed output check) also raises above: a benchmark
    # with wrong outputs has no steadiness to report.
    result = json.loads(out.stdout.strip().splitlines()[-1])
    values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
    print(f"  {workload} seed {seed}: {time.perf_counter() - started:.1f} s, {values}", flush=True)
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--json", help="write the full report here")
    args = parser.parse_args(argv)

    report: Dict[str, Any] = {}
    steady = True
    seed = args.first_seed
    for workload in args.workloads:
        sets: List[Dict[str, List[float]]] = []
        for _ in range(args.sets):
            values: Dict[str, List[float]] = {m["name"]: [] for m in spec["end_to_end"]}
            for _ in range(args.runs):
                result = run_once(workload, seed, args.seconds)
                seed += 1
                for name in values:
                    values[name].append(result["metrics"][name]["value"])
            sets.append(values)
        report[workload] = {}
        print(f"\n{workload}: {args.sets} sets x {args.runs} runs", flush=True)
        print(f"  {'metric':<16}{'median per set':>32}{'spread per set':>24}{'shift':>9}{'bound':>7}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [summarize(s[name]) for s in sets]
            shift = worse_shift(stats[0]["median"], stats[-1]["median"], metric["better"])
            ok = shift <= bound and all(s["spread"] < bound / 3 for s in stats)
            steady &= ok
            report[workload][name] = {"sets": stats, "shift": shift, "bound": bound, "steady": ok, "values": [s[name] for s in sets]}
            medians = " ".join(f"{s['median']:.5g}" for s in stats)
            spreads = " ".join(f"{s['spread']:.3f}" for s in stats)
            print(f"  {name:<16}{medians:>32}{spreads:>24}{shift:>+9.3f}{bound:>7}{'' if ok else '  UNSTEADY'}", flush=True)
        if args.json:
            Path(args.json).write_text(json.dumps(report, indent=2), encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
