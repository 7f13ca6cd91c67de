"""The repo benchmark: one command, four workloads, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ranging --seed 1 --seconds 15 --trace 0

``--trace 0`` times the workload with tracing off and prints every
end-to-end metric of ``BENCHMARK.json``; ``--trace 1`` runs one
untraced and one traced pass and prints every per-layer metric.  The
work of a run is fixed per workload (passes, trace length), so the
sample count behind each figure never depends on the host's speed;
``--seconds`` is accepted for the common benchmark interface and
changes nothing.  Except for ``ranging``, a run pins itself to one CPU
and scales its timed intervals to the reference host speed (see
``hostspeed``).  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 1 when an output check fails and 2 when the program cannot be
found or run.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Sequence, Tuple  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for stores, logs and span dumps (ignored by git).
WORK = ROOT / ".perfbench"
WORKLOADS = ("ranging", "localization", "fleet", "service")
#: Set-up repetitions per timed run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Service sessions (fresh server, one replay) per timed run.
SERVICE_SESSIONS = 3
#: Workloads that run pinned to one CPU beside the host-speed sampler,
#: their timed intervals scaled to the reference host speed (see
#: ``hostspeed``).  ``ranging`` runs unpinned and unscaled: its FFT
#: workers and Phase-B flush thread use both CPUs.
PINNED = ("localization", "fleet", "service")
#: The run's host-speed sampler; ``None`` for an unpinned workload.
SAMPLER = None


def pin_environment() -> Dict[str, str]:
    """Drop every ``REPRO_*`` override so the host cannot change the program.

    ``REPRO_PIPELINE_DEPTH``, ``REPRO_FFT_WORKERS`` and
    ``REPRO_ARRAY_BACKEND`` then run at the defaults users get; the
    service's store cap is passed explicitly instead of
    ``REPRO_CACHE_MAX_BYTES``.
    """
    cleared = {k: os.environ.pop(k) for k in sorted(os.environ) if k.startswith("REPRO_")}
    os.environ["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return cleared


def environment_record(seed: int, cleared: Dict[str, str], store_cap: Any) -> Dict[str, Any]:
    import numpy
    import scipy

    from repro.signals.batchcorr import fft_workers
    from repro.signals.xp import get_context
    from repro.simulate.batch_exchange import pipeline_depth

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "REPRO_PIPELINE_DEPTH": pipeline_depth(),
        "REPRO_FFT_WORKERS": fft_workers(),
        "REPRO_ARRAY_BACKEND": get_context().name,
        "REPRO_CACHE_MAX_BYTES": store_cap,
        "cleared_from_host": sorted(cleared),
    }


def benchmark_metrics(kind: str) -> List[Dict[str, Any]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec[kind]


def end_to_end(
    setups: Sequence[float], walls: Sequence[float], operations: int, peak_rss_mb: float
) -> Dict[str, float]:
    """The end-to-end metrics of one timed run.

    ``walls`` are the pass (or trace replay) times of the run, each over
    ``operations`` units or requests; ``setups`` the set-up times.
    ``campaign_s`` is the fastest pass: the host only ever adds time, and
    what scaling leaves of a slow stretch lands on the slower passes.
    """
    print(f"samples: {len(setups)} set-ups, {len(walls)} passes of {operations} operations")
    campaign_s = min(walls)
    return {
        "setup_s": statistics.median(setups),
        "campaign_s": campaign_s,
        "requests_per_s": operations / campaign_s,
        "peak_rss_mb": peak_rss_mb,
    }


# ---------------------------------------------------------------------------
# Campaign workloads (ranging, localization, fleet)
# ---------------------------------------------------------------------------


def campaign_setup(workload) -> float:
    """Imports, cache-key salt, warm-up pass: seconds since process start."""
    from repro.experiments import engine
    from repro.service import cachekey, compute, store  # noqa: F401

    engine.load_registry()
    cachekey.code_version()
    workload.warm_up()
    return time.perf_counter() - T0


def setup_sample(args) -> Tuple[float, float, float]:
    """One set-up in a fresh interpreter, timed the way this process's was.

    Returns its ``(start, end, seconds)``; both processes read the same
    monotonic clock.
    """
    out = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-sample"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    sample = json.loads(out.stdout.strip().splitlines()[-1])
    return sample["start"], sample["end"], sample["setup_s"]


def scaled(intervals: Sequence[Tuple[float, float, float]], label: str) -> List[float]:
    """Each ``(start, end, seconds)`` at the reference host speed.

    Unchanged when the run has no sampler (an unpinned workload).
    """
    raw = [seconds for _, _, seconds in intervals]
    if SAMPLER is None:
        print(f"{label} wall (s): " + " ".join(f"{w:.3f}" for w in raw))
        return raw
    out = [seconds * SAMPLER.factor(start, end) for start, end, seconds in intervals]
    print(f"{label} wall (s): " + " ".join(f"{w:.3f}" for w in raw))
    print(f"{label} at the reference host speed (s): " + " ".join(f"{w:.3f}" for w in out))
    return out


def run_campaign_workload(args) -> Dict[str, Any]:
    from perfbench.workloads import CAMPAIGN_WORKLOADS

    workload = CAMPAIGN_WORKLOADS[args.workload](args.seed)
    first_setup = campaign_setup(workload)
    if args.trace:
        from perfbench.trace import Recorder

        # Both passes on one seed: the traced pass repeats the untraced one.
        passes = [workload.run_pass(workload.pass_seeds[0])]
        recorder = Recorder()
        uninstall = recorder.install()
        try:
            passes.append(workload.run_pass(workload.pass_seeds[0]))
        finally:
            uninstall()
        traced_end = time.perf_counter()
    else:
        setups = [(T0, T0 + first_setup, first_setup)]
        setups += [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
        passes, intervals = [], []
        for seed in workload.pass_seeds:
            start = time.perf_counter()
            passes.append(workload.run_pass(seed))
            intervals.append((start, time.perf_counter(), passes[-1].wall_s))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    last = passes[-1]
    violations = []
    if args.trace and passes[0].bodies != last.bodies:
        violations.append("the untraced and the traced pass produced different bytes")
    violations.extend(workload.check(passes))
    for line in violations:
        print(f"CHECK FAILED: {line}")

    units = len(last.bodies)
    attempted = units * len(passes) + 1
    failed = sum(p.failed_units for p in passes) + (1 if violations else 0)
    outcome: Dict[str, Any] = {"attempted": attempted, "failed": failed, "store_cap": 0}
    if args.trace:
        from perfbench.trace import layer_metrics, root_time

        spans = recorder.spans
        recorder.dump(WORK / f"trace-{args.workload}-seed{args.seed}.json")
        layers = layer_metrics(spans)
        if args.workload == "fleet":
            (summary,) = last.measured.values()
            layers["simulate.des.fleet.tx_attempts"] = float(summary["total_tx_attempts"])
            layers["simulate.des.fleet.collisions"] = float(summary["total_collisions"])
            layers["simulate.des.fleet.coverage"] = float(summary["mean_coverage"])
        traced_start = traced_end - last.wall_s
        covered = root_time(spans, threading.get_ident(), traced_start, traced_end)
        layers["trace.overhead_s"] = last.wall_s - passes[0].wall_s
        layers["trace.unattributed_frac"] = 1.0 - covered / last.wall_s
        outcome["metrics"] = layers
        return outcome

    outcome["metrics"] = end_to_end(scaled(setups, "set-up"), scaled(intervals, "pass"), units, peak_rss_mb)
    return outcome


# ---------------------------------------------------------------------------
# Service workload
# ---------------------------------------------------------------------------


def run_service_workload(args) -> Dict[str, Any]:
    from perfbench import workloads as wl
    from perfbench.checks import check_service
    from perfbench.trace import layer_metrics, load_spans
    from repro.service.client import ServiceClient

    env = dict(os.environ)
    store_root = WORK / "service-store"
    trace = wl.service_trace(args.seed, wl.SERVICE_REQUESTS)
    clients = wl.SERVICE_CLIENTS

    def session(spans_path=None) -> Dict[str, Any]:
        """Set up one server, replay the whole trace once, stop it."""
        started = time.perf_counter()
        server = wl.start_service(store_root, args.seed, env, spans_path)
        out: Dict[str, Any] = {"started": started, "setup_s": time.perf_counter() - started}
        out["store_cap"] = server.max_bytes
        try:
            client = ServiceClient(server.url)
            before = client.stats().json()
            out["start"] = time.perf_counter()
            out["wall_s"], out["records"] = wl.replay(server.url, trace, clients)
            after = client.stats().json()
            out["peak_rss_mb"] = server.peak_rss_mb()
        finally:
            server.stop()
        out["stats"] = {k: after[k] - before[k] for k in ("hits", "misses", "dedup_waits", "engine_calls")}
        return out

    if args.trace:
        untraced = session()
        spans_path = WORK / f"trace-service-seed{args.seed}.json"
        spans_path.unlink(missing_ok=True)
        run = session(spans_path)
        end = run["start"] + run["wall_s"]
        spans = [s for s in load_spans(spans_path) if s[4] >= run["start"] and s[5] <= end]
        violations = check_service(untraced["records"] + run["records"])
    else:
        # Set-up and replay time are each the median of the sessions.
        sessions = [session() for _ in range(SERVICE_SESSIONS)]
        # Each replay starts on a fresh store with the same seed, so every
        # body served for a key must match the first one in any replay.
        violations = check_service([r for one in sessions for r in one["records"]])
        run = sessions[-1]
    for line in violations[:20]:
        print(f"CHECK FAILED: {line}")
    outcome: Dict[str, Any] = {
        "attempted": (2 if args.trace else SERVICE_SESSIONS) * len(trace),
        "failed": len(violations),
        "store_cap": run["store_cap"],
    }
    if args.trace:
        records = [r for r in run["records"] if r is not None and r.status == 200]
        layers = layer_metrics(spans)
        stats = run["stats"]
        client_s = sum(r.latency_s for r in records)
        server_s = sum(s[5] - s[4] for s in spans if s[1] == 0)
        layers["service.server.hit_ratio"] = stats["hits"] / max(1, stats["hits"] + stats["misses"])
        layers["service.server.dedup_waits"] = float(stats["dedup_waits"])
        layers["service.server.engine_calls"] = float(stats["engine_calls"])
        layers["service.http_s"] = (client_s - server_s) / len(records)
        layers["trace.overhead_s"] = run["wall_s"] - untraced["wall_s"]
        layers["trace.unattributed_frac"] = (client_s - server_s) / client_s
        outcome["metrics"] = layers
        return outcome

    print(f"{clients} closed-loop client(s) per replay")
    outcome["metrics"] = end_to_end(
        scaled([(s["started"], s["started"] + s["setup_s"], s["setup_s"]) for s in sessions], "set-up"),
        scaled([(s["start"], s["start"] + s["wall_s"], s["wall_s"]) for s in sessions], "replay"),
        len(trace),
        max(one["peak_rss_mb"] for one in sessions),
    )
    return outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0, help="accepted; the work per run is fixed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cleared = pin_environment()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    WORK.mkdir(exist_ok=True)

    if args.setup_sample:
        from perfbench.workloads import CAMPAIGN_WORKLOADS

        setup_s = campaign_setup(CAMPAIGN_WORKLOADS[args.workload](args.seed))
        print(json.dumps({"setup_s": setup_s, "start": T0, "end": T0 + setup_s}))
        return 0

    global SAMPLER
    if args.workload in PINNED:
        from perfbench import hostspeed

        print(f"pinned to CPU {hostspeed.pin()}")
        if not args.trace:
            SAMPLER = hostspeed.Sampler(WORK / f"hostspeed-{os.getpid()}.txt")
    try:
        if args.workload == "service":
            outcome = run_service_workload(args)
        else:
            outcome = run_campaign_workload(args)
    finally:
        if SAMPLER is not None:
            SAMPLER.stop()
            SAMPLER.path.unlink(missing_ok=True)

    print("environment: " + json.dumps(environment_record(args.seed, cleared, outcome["store_cap"]), sort_keys=True))
    declared = benchmark_metrics("per_layer" if args.trace else "end_to_end")
    metrics = {m["name"]: {"value": outcome["metrics"][m["name"]], "unit": m["unit"]} for m in declared}
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    correct = outcome["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": outcome["attempted"], "failed": outcome["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
