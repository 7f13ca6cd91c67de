"""Record per-figure wall-clock timings: legacy vs batch vs fast backend.

Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py --json BENCH_PR5.json
    PYTHONPATH=src python benchmarks/run_benchmarks.py --scale 0.2 --figures fig11

Times each waveform figure's campaign entry three ways on the same
seeded substream: ``legacy`` is the per-exchange reference, run as the
test oracle of ``tests/legacy_oracles.py`` (patched in around a
``backend="batch"`` call); ``batch`` is bit-identical to it (pinned by
``tests/test_batch_parity.py``, a pure performance A/B); ``fast``
relaxes bit-parity and is validated statistically
(``tests/test_fast_equivalence.py``).  Also times the hot kernels the
batch pipeline rewrote (peak scan, tap rendering, template-cached NCC,
multi-threshold power detection).  The JSON artifact is the repo's
benchmark trajectory record; CI uploads it per run and gates it with
``benchmarks/check_regression.py``.

A figure whose campaign raises under any backend is recorded with an
``"error"`` entry and the run exits non-zero, so a broken backend can
never silently vanish from the CI artifact.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import platform
import sys
import time
import traceback
from pathlib import Path
from typing import Dict

import numpy as np

from repro.experiments import engine
from repro.experiments.fast_contract import FAST_FIGURES, compare_measured

#: Figure entries that accept backend="batch"|"fast".
FIGURES = ("fig11", "fig12", "fig13", "fig14", "fig15", "fig22")

#: Timed columns: (label, entry kwargs).  ``legacy`` runs the batch
#: entry with the per-exchange oracles patched in (:func:`_oracle`).
BACKENDS = (
    ("legacy", {"backend": "batch"}),
    ("batch", {"backend": "batch"}),
    ("fast", {"backend": "fast"}),
)


def _tests_on_path() -> None:
    """Make the test oracles (``tests/*.py``) importable."""
    tests_dir = str(Path(__file__).resolve().parent.parent / "tests")
    if tests_dir not in sys.path:
        sys.path.insert(0, tests_dir)


def _oracle(label: str):
    """The test-oracle context of a reference column: the per-exchange
    waveform paths for ``legacy``, the per-event fleet round for
    ``event``; production columns run unpatched."""
    if label not in ("legacy", "event"):
        return contextlib.nullcontext()
    _tests_on_path()
    from legacy_oracles import event_fleet, legacy_waveform

    return legacy_waveform() if label == "legacy" else event_fleet()


def _time_call(fn, repeats: int = 1) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_figure(name: str, scale: float, repeats: int = 3) -> Dict[str, object]:
    spec = engine.get_spec(name)
    entry = spec.resolve_entry()
    timings: Dict[str, object] = {}
    measured: Dict[str, Dict] = {}
    # The executor A/B: "batch"/"fast" run with the default pipelined
    # flush (Phase B overlaps the next chunk's Phase A), while
    # "batch_sequential" forces pipeline=0 — the pre-pipeline executor.
    # "fast_float32" is the precision A/B: the same fast backend at
    # single precision, gated against the batch run's measured metrics
    # through the float32 tolerance table (a violation here fails the
    # CI gate unconditionally — see benchmarks/check_regression.py).
    cases = list(BACKENDS)
    cases.append(("batch_sequential", {"backend": "batch", "pipeline": 0}))
    cases.append(("fast_float32", {"backend": "fast", "precision": "float32"}))
    for label, kwargs in cases:
        try:
            # Best-of-N with a fresh substream per repeat (identical
            # workload each time): these ratios feed the CI regression
            # gate, so a single GC pause must not fail a build.
            with _oracle(label):
                timings[label] = _time_call(
                    lambda: measured.__setitem__(
                        label,
                        entry(
                            engine.experiment_rng(name), scale=scale, **kwargs
                        ).measured,
                    ),
                    repeats,
                )
        except Exception:
            timings["error"] = (
                f"case {label!r} raised:\n{traceback.format_exc(limit=8)}"
            )
            return timings
    timings["speedup"] = timings["legacy"] / timings["batch"]
    timings["speedup_fast"] = timings["legacy"] / timings["fast"]
    timings["speedup_pipeline"] = timings["batch_sequential"] / timings["batch"]
    timings["speedup_float32"] = timings["fast"] / timings["fast_float32"]
    if name in FAST_FIGURES:
        timings["contract_float32"] = compare_measured(
            name, measured["batch"], measured["fast_float32"], precision="float32"
        )
    return timings


#: Figures the campaign-level A/B runs (chunkable, so --workers can
#: parallelise trials inside each experiment).
CAMPAIGN_FIGURES = ("fig11", "fig12", "fig13", "fig14", "fig15")


def bench_campaign(
    scale: float,
    workers: int = 4,
    trial_chunks: int = 4,
    backend: str = "fast",
) -> Dict[str, object]:
    """End-to-end campaign wall clock: serial vs the persistent pool.

    Both runs use the same ``(base_seed, trial_chunks)`` so their
    artifacts are byte-identical (tests/test_executor.py pins this);
    the only variable is the executor.  Recorded, not gated: the
    worker-count speedup is a property of the host's core count.
    """
    timings: Dict[str, object] = {
        "figures": list(CAMPAIGN_FIGURES),
        "workers": workers,
        "trial_chunks": trial_chunks,
        "backend": backend,
    }

    def _run(n_workers: int) -> None:
        engine.run_campaign(
            list(CAMPAIGN_FIGURES),
            scale=scale,
            workers=n_workers,
            trial_chunks=trial_chunks,
            backend=backend,
        )

    try:
        timings["serial"] = _time_call(lambda: _run(1))
        timings["parallel"] = _time_call(lambda: _run(workers))
        timings["speedup_workers"] = timings["serial"] / timings["parallel"]
    except Exception:
        timings["error"] = f"campaign raised:\n{traceback.format_exc(limit=8)}"
    finally:
        engine.shutdown_pool()
    return timings


def bench_service(
    scale: float,
    figure: str = "fig11",
    warm_requests: int = 25,
) -> Dict[str, object]:
    """Cold-vs-warm rows for the campaign service (``repro.service``).

    Starts a real server on an ephemeral loopback port with a fresh
    temporary cache, issues one cold ``POST /campaign`` (engine
    compute + store write) and a train of warm requests (pure cache
    hits), and records both plus the warm-hit percentiles.  The
    ``service_warm`` p50 is what ``check_regression.py`` gates: a warm
    hit must stay disk-read cheap no matter how the engine evolves.
    """
    import tempfile

    from repro.service.client import ServiceClient
    from repro.service.replay import percentile
    from repro.service.server import start_background
    from repro.service.store import CacheStore

    request = {"experiment": figure, "scale": scale, "backend": "fast"}
    timings: Dict[str, object] = {"figure": figure, "scale": scale}
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as root:
        with start_background(CacheStore(root)) as server:
            client = ServiceClient(f"http://127.0.0.1:{server.port}")
            start = time.perf_counter()
            response = client.campaign(request)
            timings["service_cold"] = time.perf_counter() - start
            if response.status != 200 or response.cache != "miss":
                timings["error"] = (
                    f"cold request: HTTP {response.status}, "
                    f"X-Cache {response.cache!r}: {response.body[:500]!r}"
                )
                return timings
            warm = []
            for _ in range(warm_requests):
                start = time.perf_counter()
                response = client.campaign(request)
                warm.append(time.perf_counter() - start)
                if response.status != 200 or response.cache != "hit":
                    timings["error"] = (
                        f"warm request: HTTP {response.status}, "
                        f"X-Cache {response.cache!r}"
                    )
                    return timings
    timings["service_warm"] = percentile(warm, 50)
    timings["service_warm_p99"] = percentile(warm, 99)
    timings["speedup_warm"] = timings["service_cold"] / timings["service_warm"]
    return timings


def bench_fleet(scale: float) -> Dict[str, object]:
    """Fleet-engine A/B: the per-event round oracle vs the vec engine.

    ``fleet1k`` times an identical 1000-node churn+mobility campaign on
    both (same seed; the summaries must be byte-identical — recorded as
    ``parity``) and reports ``speedup_vec``, the column
    ``check_regression.py`` gates.  The ``event`` column runs the
    per-event round of ``tests/legacy_oracles.py`` patched into the
    campaign loop.  ``fleet10k`` is the scale row: a 10k-node
    churn+mobility campaign with oscillator wander and 2-round resync
    on the vec engine only (the per-event round needs tens of minutes
    per round at this size), recording wall clock plus the energy and
    clock-drift stats from the summary.
    """
    from repro.simulate.des.fleet import FleetConfig, run_fleet_campaign

    def _run(label: str, **kwargs):
        config = FleetConfig(**kwargs)
        rng = np.random.default_rng(2023)
        with _oracle(label):
            start = time.perf_counter()
            result = run_fleet_campaign(rng, config)
            elapsed = time.perf_counter() - start
        return result.summary(), elapsed

    out: Dict[str, object] = {}
    try:
        # Warm both engines so first-call numpy dispatch overhead does
        # not land inside either timed run.
        _run("event", num_devices=30, num_rounds=1)
        _run("vec", num_devices=30, num_rounds=1)

        rounds = max(1, int(round(3 * scale)))
        kw = dict(
            num_devices=1000,
            num_rounds=rounds,
            leave_prob=0.05,
            join_prob=0.5,
            mobility_fraction=0.15,
        )
        event_summary, t_event = _run("event", **kw)
        vec_summary, t_vec = _run("vec", **kw)
        out["fleet1k"] = {
            "num_devices": 1000,
            "rounds": rounds,
            "event": t_event,
            "vec": t_vec,
            "speedup_vec": t_event / t_vec,
            "parity": json.dumps(event_summary, sort_keys=True)
            == json.dumps(vec_summary, sort_keys=True),
        }

        rounds10 = max(1, int(round(2 * scale)))
        summary10, t10 = _run(
            "vec",
            num_devices=10000,
            num_rounds=rounds10,
            leave_prob=0.05,
            join_prob=0.5,
            mobility_fraction=0.15,
            resync_interval_rounds=2,
            drift_wander_ppm=2.0,
        )
        out["fleet10k"] = {
            "num_devices": 10000,
            "rounds": rounds10,
            "vec": t10,
            "mean_coverage": summary10["mean_coverage"],
            "mean_round_duration_s": summary10["mean_round_duration_s"],
            "mean_energy_j_per_round": summary10["mean_energy_j_per_round"],
            "max_energy_j_per_round": summary10["max_energy_j_per_round"],
            "mean_abs_clock_offset_s": summary10["mean_abs_clock_offset_s"],
            "max_abs_clock_offset_s": summary10["max_abs_clock_offset_s"],
        }
    except Exception:
        out["error"] = f"fleet bench raised:\n{traceback.format_exc(limit=8)}"
    return out


def bench_kernels() -> Dict[str, Dict[str, float]]:
    """Hot-kernel A/Bs: the Python-loop paths the batch engine replaced."""
    from repro.channel.multipath import PathTap
    from repro.channel.render import render_taps
    from repro.ranging.batch import power_threshold_hits
    from repro.ranging.detector import detect_power_threshold
    from repro.signals import batchcorr
    from repro.signals.correlation import normalized_cross_correlation
    from repro.signals.preamble import make_preamble

    _tests_on_path()
    from scalar_receiver import local_peak_indices

    rng = np.random.default_rng(0)
    preamble = make_preamble()
    out: Dict[str, Dict[str, float]] = {}

    # Peak scan over a detection-length correlation array.
    values = rng.standard_normal(27_000)
    out["local_peak_indices"] = {
        "legacy": _time_call(lambda: local_peak_indices(values, 0.08), 3),
        "batch": _time_call(lambda: batchcorr.local_peak_indices_fast(values, 0.08), 3),
    }

    # Tap rendering (60 taps, typical post-case-multipath count).  The
    # per-tap Python loop is the pre-batch implementation render_taps
    # used before the np.add.at scatter rewrite.
    taps = [
        PathTap(float(d), float(a))
        for d, a in zip(rng.uniform(0, 0.03, 60), rng.standard_normal(60))
    ]

    def _render_taps_loop(taps, sample_rate):
        delays = np.array([t.delay_s for t in taps])
        amps = np.array([t.amplitude for t in taps])
        positions = delays * sample_rate
        n = int(np.ceil(positions.max())) + 2
        fir = np.zeros(n)
        for pos, amp in zip(positions, amps):
            base = int(np.floor(pos))
            frac = pos - base
            if base + 1 >= n:
                continue
            fir[base] += amp * (1.0 - frac)
            fir[base + 1] += amp * frac
        return fir

    out["render_taps"] = {
        "legacy": _time_call(lambda: _render_taps_loop(taps, 44_100.0), 5),
        "batch": _time_call(lambda: render_taps(taps, 44_100.0), 5),
    }

    # Template-cached, stacked NCC over a 16-stream batch vs 16 scalar calls.
    streams = [rng.standard_normal(17_500) for _ in range(16)]
    tmpl = batchcorr.CachedTemplate(preamble.waveform)
    batchcorr.normalized_cross_correlation_batch(streams[:1], tmpl)  # warm cache
    out["normalized_xcorr_16_streams"] = {
        "legacy": _time_call(
            lambda: [normalized_cross_correlation(s, preamble.waveform) for s in streams]
        ),
        "batch": _time_call(
            lambda: batchcorr.normalized_cross_correlation_batch(streams, tmpl)
        ),
    }

    # Power-threshold detector across the Fig. 12a threshold sweep.
    stream = rng.standard_normal(20_000)
    thresholds = (3.0, 6.0, 10.0, 15.0, 20.0)
    out["power_threshold_5_thresholds"] = {
        "legacy": _time_call(
            lambda: [detect_power_threshold(stream, threshold_db=t) for t in thresholds],
            3,
        ),
        "batch": _time_call(lambda: power_threshold_hits(stream, thresholds), 3),
    }

    for entry in out.values():
        entry["speedup"] = entry["legacy"] / entry["batch"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", metavar="PATH", help="write the timing artifact here")
    parser.add_argument(
        "--scale", type=float, default=0.5, help="per-figure trial-count multiplier"
    )
    parser.add_argument(
        "--figures", nargs="*", default=list(FIGURES), help="figures to time"
    )
    parser.add_argument(
        "--skip-kernels", action="store_true", help="skip the kernel micro-benchmarks"
    )
    parser.add_argument(
        "--campaign",
        action="store_true",
        help="also time the end-to-end campaign: serial vs --workers pool",
    )
    parser.add_argument(
        "--skip-service",
        action="store_true",
        help="skip the campaign-service cold/warm rows",
    )
    parser.add_argument(
        "--skip-fleet",
        action="store_true",
        help="skip the fleet vec-vs-event rows (1k A/B + 10k scale row)",
    )
    parser.add_argument(
        "--workers", type=int, default=4, help="worker count for --campaign"
    )
    args = parser.parse_args(argv)

    doc = {
        "schema": "repro-bench/2",
        "scale": args.scale,
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "numpy": np.__version__,
        },
        "figures": {},
        "kernels": {},
        "notes": (
            "legacy vs batch vs fast waveform backend on identical seeds. "
            "batch outputs are bit-identical to legacy "
            "(tests/test_batch_parity.py) and bounded by costs both backends "
            "share bit-for-bit (RNG stream consumption, the legacy path's FFT "
            "sizes, BLAS candidate-gate dots); fast relaxes bit-parity "
            "(power-of-two/5-smooth shared FFT sizes, fused NCC, "
            "frequency-domain noise, right-sized FIRs) under the statistical "
            "equivalence contract of tests/test_fast_equivalence.py. "
            "batch_sequential disables the Phase-A/Phase-B flush pipeline "
            "(pipeline=0); speedup_pipeline = batch_sequential/batch is the "
            "executor A/B (bit-identical outputs either way). "
            "fast_float32 reruns the fast backend at single precision; "
            "speedup_float32 = fast/fast_float32 is the precision A/B, and "
            "contract_float32 records any float32 statistical-contract "
            "violations against this run's batch metrics (must be empty). "
            "Kernel-level rows isolate the rewritten hot loops."
        ),
    }
    failures = []
    for name in args.figures:
        print(f"timing {name} (scale {args.scale}) ...", flush=True)
        doc["figures"][name] = bench_figure(name, args.scale)
        fig = doc["figures"][name]
        if "error" in fig:
            failures.append(name)
            print(f"  FAILED: {fig['error']}")
            continue
        print(
            f"  legacy {fig['legacy']:.2f}s  batch {fig['batch']:.2f}s  "
            f"fast {fig['fast']:.2f}s  fast32 {fig['fast_float32']:.2f}s  "
            f"seq-flush {fig['batch_sequential']:.2f}s  "
            f"speedup {fig['speedup']:.2f}x "
            f"(fast {fig['speedup_fast']:.2f}x, "
            f"float32 {fig['speedup_float32']:.2f}x, "
            f"pipeline {fig['speedup_pipeline']:.2f}x)"
        )
        if fig.get("contract_float32"):
            failures.append(name)
            for violation in fig["contract_float32"]:
                print(f"  FLOAT32 CONTRACT VIOLATION: {violation}")
    if args.campaign:
        print(f"timing campaign (workers {args.workers}) ...", flush=True)
        doc["campaign"] = bench_campaign(args.scale, workers=args.workers)
        camp = doc["campaign"]
        if "error" in camp:
            failures.append("campaign")
            print(f"  FAILED: {camp['error']}")
        else:
            print(
                f"  serial {camp['serial']:.2f}s  "
                f"workers={args.workers} {camp['parallel']:.2f}s  "
                f"speedup {camp['speedup_workers']:.2f}x"
            )
    if not args.skip_service:
        print("timing campaign service (cold vs warm) ...", flush=True)
        doc["service"] = bench_service(args.scale)
        svc = doc["service"]
        if "error" in svc:
            failures.append("service")
            print(f"  FAILED: {svc['error']}")
        else:
            print(
                f"  cold {svc['service_cold']:.2f}s  "
                f"warm p50 {svc['service_warm'] * 1e3:.2f}ms  "
                f"(x{svc['speedup_warm']:.0f} faster)"
            )
    if not args.skip_fleet:
        print("timing fleet engines (event oracle vs vec) ...", flush=True)
        doc["fleet"] = bench_fleet(args.scale)
        fleet = doc["fleet"]
        if "error" in fleet:
            failures.append("fleet")
            print(f"  FAILED: {fleet['error']}")
        else:
            row = fleet["fleet1k"]
            print(
                f"  fleet1k: event {row['event']:.2f}s  vec {row['vec']:.2f}s  "
                f"speedup {row['speedup_vec']:.1f}x  "
                f"parity {'OK' if row['parity'] else 'BROKEN'}"
            )
            row10 = fleet["fleet10k"]
            print(
                f"  fleet10k: vec {row10['vec']:.2f}s "
                f"({row10['rounds']} round(s), "
                f"coverage {row10['mean_coverage']:.1%}, "
                f"{row10['mean_energy_j_per_round']:.0f} J/round, "
                f"drift max {row10['max_abs_clock_offset_s'] * 1e3:.1f} ms)"
            )
    if not args.skip_kernels:
        print("timing kernels ...", flush=True)
        doc["kernels"] = bench_kernels()
        for kernel, entry in doc["kernels"].items():
            print(
                f"  {kernel}: legacy {entry['legacy']*1e3:.2f}ms  "
                f"batch {entry['batch']*1e3:.2f}ms  speedup {entry['speedup']:.1f}x"
            )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    if failures:
        # The artifact records the tracebacks, but the run must still
        # fail: a missing/broken figure in BENCH_CI.json would otherwise
        # silently pass the CI perf gate.
        print(f"FAILED figures: {', '.join(failures)}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
