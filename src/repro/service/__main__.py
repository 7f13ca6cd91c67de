"""Campaign-service CLI: ``serve`` / ``warm`` / ``replay`` / ``stats``.

Usage::

    # serve campaigns over HTTP with an on-disk result cache
    python -m repro.service serve --port 8123 --cache-dir ~/.cache/repro

    # pre-populate a cache (against a server, or locally with no server)
    python -m repro.service warm fig11 fig13 --url http://127.0.0.1:8123 \\
        --scale 0.25 --capture trace.jsonl --json warm.json
    python -m repro.service warm fig11 --cache-dir ~/.cache/repro --scale 0.25

    # replay a recorded trace at 50x against a running server
    python -m repro.service replay trace.jsonl --url http://127.0.0.1:8123 \\
        --speed 50 --repeat 3 --json replay.json

    # server counters + store occupancy
    python -m repro.service stats --url http://127.0.0.1:8123
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from typing import Any, Dict, List, Optional

from repro.experiments import engine
from repro.service.cachekey import UnitRequest, normalize_request
from repro.service.client import ServiceClient
from repro.service.store import CacheStore, CacheStoreError


def _cmd_serve(args) -> int:
    store = CacheStore(args.cache_dir, max_bytes=args.max_bytes)
    try:
        engine.check_workers(args.engine_workers)
        store.ensure_writable()
    except (CacheStoreError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    async def _main() -> None:
        from repro.service.server import CampaignServer

        server = CampaignServer(
            store,
            host=args.host,
            port=args.port,
            engine_workers=args.engine_workers,
        )
        await server.start()
        print(
            f"serving campaigns on http://{args.host}:{server.port} "
            f"(cache {store.root}, engine workers {args.engine_workers})",
            flush=True,
        )
        try:
            await server.serve_forever()
        except asyncio.CancelledError:  # pragma: no cover - shutdown path
            pass
        finally:
            await server.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    finally:
        # Idempotent alongside the engine's own atexit hook.
        engine.shutdown_pool()
    return 0


def _unit_requests(args) -> List[UnitRequest]:
    requests = []
    for name in args.experiments:
        requests.append(
            normalize_request(
                {
                    "experiment": name,
                    "variant": args.variant,
                    "base_seed": args.seed,
                    "scale": args.scale,
                    "backend": args.backend,
                    "trial_chunks": args.trial_chunks,
                }
            )
        )
    return requests


def _cmd_warm(args) -> int:
    try:
        engine.check_workers(args.workers)
        requests = _unit_requests(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    entries: List[Dict[str, Any]] = []
    if args.url:
        recorder = None
        if args.capture:
            from repro.service.replay import TraceRecorder

            recorder = TraceRecorder(args.capture)
        client = ServiceClient(args.url, recorder=recorder)
        for request in requests:
            start = time.monotonic()
            response = client.campaign(request.to_dict())
            entries.append(
                {
                    "experiment": request.experiment,
                    "variant": request.variant,
                    "key": response.headers.get("x-cache-key"),
                    "cache": response.cache,
                    "status": response.status,
                    "latency_s": time.monotonic() - start,
                }
            )
    else:
        if not args.cache_dir:
            print("error: warm needs --url or --cache-dir", file=sys.stderr)
            return 2
        from repro.service.compute import cached_unit

        store = CacheStore(args.cache_dir)
        try:
            store.ensure_writable()
        except CacheStoreError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for request in requests:
            start = time.monotonic()
            key, body, hit = cached_unit(store, request, workers=args.workers)
            ok = json.loads(body)["result"]["status"] == "ok"
            entries.append(
                {
                    "experiment": request.experiment,
                    "variant": request.variant,
                    "key": key,
                    "cache": "hit" if hit else "miss",
                    "status": 200 if ok else 500,
                    "latency_s": time.monotonic() - start,
                }
            )
    report = {
        "schema": "repro-warm/1",
        "entries": entries,
        "hits": sum(1 for e in entries if e["cache"] == "hit"),
        "misses": sum(1 for e in entries if e["cache"] == "miss"),
        "errors": sum(1 for e in entries if e["status"] >= 400),
    }
    for entry in entries:
        print(
            f"{entry['experiment']}/{entry['variant']}: {entry['cache']} "
            f"in {entry['latency_s']:.3f}s (HTTP {entry['status']})"
        )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 1 if report["errors"] else 0


def _cmd_replay(args) -> int:
    from repro.service.replay import load_trace, replay_trace

    try:
        entries = load_trace(args.trace)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    client = ServiceClient(args.url)
    report = replay_trace(client, entries, speed=args.speed, repeat=args.repeat)
    print(
        f"{report['requests']} requests in {report['duration_s']:.2f}s at "
        f"{args.speed:g}x: {report['hits']} hits / {report['misses']} misses "
        f"(hit rate {report['hit_rate']:.0%}, {report['errors']} errors)"
    )
    if report["latency"]:
        lat = report["latency"]
        print(
            f"latency p50 {lat['p50_s'] * 1e3:.2f}ms  "
            f"p90 {lat['p90_s'] * 1e3:.2f}ms  p99 {lat['p99_s'] * 1e3:.2f}ms"
        )
    if report["hit_latency"]:
        lat = report["hit_latency"]
        print(f"hit latency p50 {lat['p50_s'] * 1e3:.2f}ms")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 1 if report["errors"] else 0


def _cmd_stats(args) -> int:
    client = ServiceClient(args.url)
    response = client.stats()
    print(json.dumps(response.json(), indent=2, sort_keys=True))
    return 0 if response.status == 200 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve, warm, and load-test the campaign result cache.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the asyncio HTTP service")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8123, help="0 = ephemeral")
    serve.add_argument("--cache-dir", required=True, metavar="PATH")
    serve.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="LRU cap on the store (default REPRO_CACHE_MAX_BYTES; 0 = unbounded)",
    )
    serve.add_argument(
        "--engine-workers",
        type=int,
        default=1,
        metavar="N",
        help="worker-pool size for chunked units (misses still run one at a time)",
    )
    serve.set_defaults(func=_cmd_serve)

    warm = sub.add_parser("warm", help="pre-populate the cache")
    warm.add_argument("experiments", nargs="+", metavar="EXPERIMENT")
    warm.add_argument("--url", help="warm through a running server")
    warm.add_argument("--cache-dir", metavar="PATH", help="warm a store directly")
    warm.add_argument("--variant", default="default")
    warm.add_argument("--seed", type=int, default=engine.DEFAULT_BASE_SEED)
    warm.add_argument("--scale", type=float, default=1.0)
    warm.add_argument("--backend", default=None)
    warm.add_argument("--trial-chunks", type=int, default=1, metavar="N")
    warm.add_argument(
        "--workers", type=int, default=1, help="chunk parallelism (local mode)"
    )
    warm.add_argument(
        "--capture",
        metavar="PATH",
        help="record issued requests as a JSONL replay trace (with --url)",
    )
    warm.add_argument("--json", metavar="PATH", help="write the warm report here")
    warm.set_defaults(func=_cmd_warm)

    replay = sub.add_parser("replay", help="replay a recorded trace")
    replay.add_argument("trace", metavar="TRACE.jsonl")
    replay.add_argument("--url", default="http://127.0.0.1:8123")
    replay.add_argument("--speed", type=float, default=1.0, metavar="X")
    replay.add_argument("--repeat", type=int, default=1, metavar="N")
    replay.add_argument("--json", metavar="PATH", help="write the replay report here")
    replay.set_defaults(func=_cmd_replay)

    stats = sub.add_parser("stats", help="print server + store counters")
    stats.add_argument("--url", default="http://127.0.0.1:8123")
    stats.set_defaults(func=_cmd_stats)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(sys.argv[1:] if argv is None else argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
