"""Campaign CLI: run paper experiments in parallel with seeded substreams.

Usage::

    python -m repro.experiments.runner                       # everything, serial
    python -m repro.experiments.runner fig11 tables          # a subset
    python -m repro.experiments.runner --workers 4 --json results.json
    python -m repro.experiments.runner fig18 --sweep site=dock,boathouse
    python -m repro.experiments.runner --list                # registry overview

Every experiment draws from its own ``np.random.SeedSequence``
substream (see :mod:`repro.experiments.engine`), so the measured
numbers depend only on ``--seed`` — not on worker count, selection, or
execution order.  ``--json`` writes a machine-readable artifact with
paper-vs-measured values for every selected experiment; it is
byte-identical for serial and parallel runs unless ``--timing`` is
given.  The shape checks under ``benchmarks/`` assert the paper's claims
on the numbers the same registry entries measure.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from typing import Any, Dict, List, Optional

from repro.experiments import engine
from repro.experiments.engine import (
    DEFAULT_BASE_SEED,
    ExperimentResult,
    run_campaign,
    write_campaign_json,
)


def _parse_sweep(entries: Optional[List[str]]) -> Dict[str, List[Any]]:
    """``["site=dock,boathouse"]`` -> ``{"site": ["dock", "boathouse"]}``.

    Each key may appear once, with all its values comma-separated; a
    repeated or empty key raises ``ValueError``.
    """
    sweep: Dict[str, List[Any]] = {}
    for entry in entries or []:
        key, _, values = entry.partition("=")
        if not key or not values:
            raise ValueError(f"--sweep expects key=v1,v2..., got {entry!r}")
        if key in sweep:
            raise ValueError(
                f"--sweep {key!r} given twice; list its values once, "
                f"comma-separated ({key}=v1,v2,...)"
            )
        parsed: List[Any] = []
        for raw in values.split(","):
            for cast in (int, float):
                try:
                    parsed.append(cast(raw))
                    break
                except ValueError:
                    continue
            else:
                parsed.append(raw)
        sweep[key] = parsed
    return sweep


def _json_destination_error(path: str) -> Optional[str]:
    """Why ``--json PATH`` cannot be written, or ``None`` when it can.

    The artifact is written only after the whole campaign has run, so
    the destination is probed up front: a missing parent directory or
    a directory path must fail before any compute starts.
    """
    if os.path.isdir(path):
        return f"--json {path!r} is a directory; give a file path"
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        return f"--json {path!r}: directory {parent!r} does not exist; create it first"
    try:
        fd, probe = tempfile.mkstemp(prefix=".probe-", dir=parent)
        os.close(fd)
        os.unlink(probe)
    except OSError as exc:
        return f"--json {path!r}: directory {parent!r} is not writable: {exc}"
    if os.path.exists(path) and not os.access(path, os.W_OK):
        return f"--json {path!r} is not writable"
    return None


def _print_registry() -> None:
    print(f"{'name':<8} {'cost':<9} {'variants':<22} title")
    for spec in engine.registry().values():
        variants = ",".join(v.name for v in spec.variants)
        print(f"{spec.name:<8} {spec.cost:<9} {variants:<22} {spec.title}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.runner",
        description="Run paper experiments as a seeded, parallel campaign.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help="experiment names (default: all registered)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool size (1 = serial; results are identical either way)",
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_BASE_SEED, help="campaign base seed"
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="trial-count multiplier (0.1 = quick smoke pass)",
    )
    parser.add_argument(
        "--json", metavar="PATH", help="write the structured campaign artifact here"
    )
    parser.add_argument(
        "--timing",
        action="store_true",
        help=(
            "include each experiment's wall time and peak RSS in the JSON "
            "artifact (breaks byte-identity)"
        ),
    )
    parser.add_argument(
        "--backend",
        metavar="NAME",
        help=(
            "waveform backend for the whole campaign (batch | fast; batch is "
            "the bit-parity reference); every selected experiment must "
            "support it"
        ),
    )
    parser.add_argument(
        "--precision",
        metavar="NAME",
        help=(
            "working precision for the waveform kernels (float64 | float32); "
            "float32 requires --backend fast and is validated by the "
            "statistical contract rather than bit-parity"
        ),
    )
    parser.add_argument(
        "--sweep",
        action="append",
        metavar="KEY=V1,V2",
        help="scenario sweep applied to experiments that declare KEY sweepable",
    )
    parser.add_argument(
        "--trial-chunks",
        type=int,
        default=1,
        metavar="N",
        help=(
            "split chunkable experiments into N trial chunks (each with its "
            "own seeded substream) so --workers parallelises trials; the "
            "artifact depends only on the seed and N, not the worker count"
        ),
    )
    parser.add_argument(
        "--pipeline",
        type=int,
        default=None,
        metavar="N",
        help=(
            "Phase-A/Phase-B flush-pipeline depth for waveform experiments "
            "(0 = synchronous flushes; default from REPRO_PIPELINE_DEPTH). "
            "Artifacts are bit-identical at every depth"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        help=(
            "read/write the content-addressable result cache at PATH (the "
            "same store `python -m repro.service` serves from): cached "
            "units are returned without recomputing; misses are computed "
            "and stored. Units run sequentially; --workers still "
            "parallelises chunks inside a unit"
        ),
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "wrap the campaign in cProfile and write profile.pstats next "
            "to the --json artifact (or into the working directory); "
            "implies serial in-process execution so the profile actually "
            "sees the compute"
        ),
    )
    parser.add_argument(
        "--list", action="store_true", help="print the experiment registry and exit"
    )
    return parser


def _run_cached(args, selected, sweep, show) -> List[ExperimentResult]:
    """The --cache-dir campaign path: per-unit cache-through compute.

    Expands the selection to (experiment, variant, params) units —
    the cache's addressing granularity, so sweep points shared between
    campaigns share entries — and serves each unit through the store.
    Cached bodies round-trip through
    :func:`repro.experiments.engine.result_from_dict`, so the JSON
    artifact is byte-identical to an uncached run's.
    """
    import json as _json

    from repro.service.cachekey import UnitRequest
    from repro.service.compute import cached_unit
    from repro.service.store import CacheStore

    store = CacheStore(args.cache_dir)
    store.ensure_writable()
    results: List[ExperimentResult] = []
    for name, variant, params in engine.plan_units(
        selected, sweep=sweep, backend=args.backend, precision=args.precision
    ):
        request = UnitRequest(
            experiment=name,
            variant=variant,
            params=params,
            base_seed=args.seed,
            scale=args.scale,
            backend=args.backend,
            precision=args.precision,
            trial_chunks=args.trial_chunks,
        )
        _, body, hit = cached_unit(
            store, request, workers=args.workers, pipeline=args.pipeline
        )
        result = engine.result_from_dict(_json.loads(body)["result"])
        show(result, cached=hit)
        results.append(result)
    return results


def main(argv=None) -> int:
    """Entry point: run the selected (or all) experiments."""
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(argv)

    if args.list:
        _print_registry()
        return 0

    experiments = engine.registry()
    selected = args.experiments or list(experiments)
    try:
        engine.check_request(
            selected,
            base_seed=args.seed,
            scale=args.scale,
            trial_chunks=args.trial_chunks,
            backend=args.backend,
            precision=args.precision,
        )
        engine.check_workers(args.workers)
        sweep = _parse_sweep(args.sweep)
        engine.plan_units(
            selected, sweep=sweep, backend=args.backend, precision=args.precision
        )
    except KeyError as exc:
        print(exc.args[0])
        print(f"available: {', '.join(experiments)}")
        return 2
    except ValueError as exc:
        print(exc)
        return 2
    if args.json:
        problem = _json_destination_error(args.json)
        if problem is not None:
            print(f"error: {problem}", file=sys.stderr)
            return 2
    for key in sweep:
        if not any(key in experiments[name].sweepable for name in selected):
            print(
                f"note: no selected experiment declares {key!r} sweepable; "
                f"that sweep axis is ignored"
            )

    def show(result: ExperimentResult, cached: bool = False) -> None:
        print(f"\n===== {result.label} " + "=" * max(0, 60 - len(result.label)))
        if result.status == "ok":
            print(result.report)
            suffix = "from cache" if cached else f"in {result.wall_time_s:.1f} s"
            print(f"----- {result.label} done {suffix}")
        else:
            print(result.error)
            print(f"----- {result.label} FAILED after {result.wall_time_s:.1f} s")

    profiler = None
    if args.profile:
        import cProfile

        if args.workers != 1:
            # Worker processes would run the compute outside the
            # profiler; a profiled campaign is serial by construction.
            print("--profile forces --workers 1 (in-process execution)")
            args.workers = 1
        profiler = cProfile.Profile()
        profiler.enable()

    try:
        if args.cache_dir:
            from repro.service.store import CacheStoreError

            try:
                results = _run_cached(args, selected, sweep, show)
            except CacheStoreError as exc:
                # A bad --cache-dir must fail before any compute starts,
                # with an actionable message — not crash mid-campaign.
                print(f"error: {exc}", file=sys.stderr)
                return 2
        else:
            results = run_campaign(
                selected,
                base_seed=args.seed,
                workers=args.workers,
                scale=args.scale,
                sweep=sweep,
                trial_chunks=args.trial_chunks,
                backend=args.backend,
                precision=args.precision,
                pipeline=args.pipeline,
                progress=show,
            )
    finally:
        if profiler is not None:
            import os.path

            profiler.disable()
            stats_path = os.path.join(
                os.path.dirname(args.json) or ".", "profile.pstats"
            ) if args.json else "profile.pstats"
            profiler.dump_stats(stats_path)
            print(f"wrote profile to {stats_path}")

    if args.json:
        write_campaign_json(
            args.json,
            results,
            base_seed=args.seed,
            include_timing=args.timing,
            trial_chunks=args.trial_chunks,
            backend=args.backend,
            precision=args.precision,
        )
        print(f"\nwrote {len(results)} experiment result(s) to {args.json}")

    failed = [r.label for r in results if r.status != "ok"]
    if failed:
        print(f"\nFAILED: {', '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
