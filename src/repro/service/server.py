"""Asyncio HTTP front end over the campaign engine and result cache.

A deliberately small handcoded HTTP/1.1 server on stdlib ``asyncio``
streams (no new dependencies, one request per connection):

* ``POST /campaign`` — body is a unit request (see
  :func:`repro.service.cachekey.normalize_request`).  Cache hits are
  served straight from the store without touching the engine; misses
  are dispatched to the compute executor.  Responses carry
  ``X-Cache: hit|miss`` and ``X-Cache-Key`` headers.
* ``GET /result/<key>`` — the stored body for a key, or 404.
* ``GET /healthz`` — liveness.
* ``GET /stats`` — server counters plus store occupancy.

**In-flight dedup.**  Identical concurrent requests collapse onto one
compute: the first miss installs an ``asyncio.Future`` keyed by the
cache key, every later identical request awaits that future, and
exactly one engine call happens (``dedup_waits`` counts the riders).

**Compute executor.**  Misses run in a single-threaded
``ThreadPoolExecutor`` — the persistent
:class:`repro.experiments.pool.WorkerPool` behind
:func:`repro.experiments.engine.run_unit` is not re-entrant, so the
serving tier serialises engine dispatches and lets ``engine_workers``
parallelise *inside* a chunked unit instead.  The event loop stays
free to serve hits at memory speed while a miss computes.

Failure semantics (DESIGN.md §9): bad request → 400 with a JSON
error; unit computed with ``status="error"`` → 500 with the unit body,
*not cached*; unexpected server-side exception → 500 error JSON, not
cached.  A corrupt cache entry is a miss handled by the store, never a
500.
"""

from __future__ import annotations

import asyncio
import json
import traceback
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Optional, Tuple

from repro.service.cachekey import UnitRequest, cache_key, normalize_request
from repro.service.store import CacheStore

#: Largest accepted request body; campaign requests are tiny.
MAX_BODY_BYTES = 1 << 20

#: Largest accepted request head (request line + headers).
MAX_HEAD_BYTES = 1 << 16

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
}

#: ``compute(request) -> (body_bytes, ok)`` — the injectable compute
#: hook (tests swap in fakes; the default is the real engine path).
ComputeFn = Callable[[UnitRequest], Tuple[bytes, bool]]


def _json_body(payload: Any) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


class CampaignServer:
    """The serving tier: cache in front, engine executor behind."""

    def __init__(
        self,
        store: CacheStore,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        engine_workers: int = 1,
        compute: Optional[ComputeFn] = None,
    ):
        self.store = store
        self.host = host
        self.port = port
        self.engine_workers = int(engine_workers)
        self._compute: ComputeFn = compute or self._engine_compute
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-service-compute"
        )
        self._inflight: Dict[str, asyncio.Future] = {}
        self._server: Optional[asyncio.base_events.Server] = None
        self.requests = 0
        self.hit_count = 0
        self.miss_count = 0
        self.dedup_waits = 0
        self.engine_calls = 0
        self.error_count = 0

    def _engine_compute(self, request: UnitRequest) -> Tuple[bytes, bool]:
        from repro.service.compute import compute_unit

        return compute_unit(request, workers=self.engine_workers)

    # -- lifecycle ---------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._executor.shutdown(wait=False, cancel_futures=True)

    # -- HTTP plumbing -----------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader, writer) -> None:
        try:
            try:
                method, path, body = await self._read_request(reader)
            except _BadRequest as exc:
                await self._respond(writer, exc.status, _json_body({"error": str(exc)}))
                return
            self.requests += 1
            try:
                status, payload, headers = await self._route(method, path, body)
            except Exception:
                self.error_count += 1
                status = 500
                payload = _json_body({"error": traceback.format_exc(limit=8)})
                headers = ()
            await self._respond(writer, status, payload, headers)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _read_request(self, reader) -> Tuple[str, str, bytes]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            raise _BadRequest(413, "request head too large")
        except asyncio.IncompleteReadError:
            raise _BadRequest(400, "truncated request")
        if len(head) > MAX_HEAD_BYTES:
            raise _BadRequest(413, "request head too large")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3:
            raise _BadRequest(400, f"malformed request line: {lines[0]!r}")
        method, path, _version = parts
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                value = value.strip()
                if not (value.isascii() and value.isdigit()):
                    raise _BadRequest(400, "bad Content-Length")
                if len(value.lstrip("0")) > len(str(MAX_BODY_BYTES)):
                    raise _BadRequest(413, "request body too large")
                length = int(value)
        if length > MAX_BODY_BYTES:
            raise _BadRequest(413, "request body too large")
        try:
            body = await reader.readexactly(length) if length else b""
        except asyncio.IncompleteReadError:
            raise _BadRequest(400, "truncated request body")
        return method, path, body

    async def _respond(
        self, writer, status: int, body: bytes, extra_headers=()
    ) -> None:
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        head.extend(f"{name}: {value}" for name, value in extra_headers)
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        writer.write(body)
        await writer.drain()

    # -- routing -----------------------------------------------------

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, bytes, Tuple]:
        if path == "/healthz" and method == "GET":
            return 200, _json_body({"status": "ok"}), ()
        if path == "/stats" and method == "GET":
            return 200, _json_body(self.stats()), ()
        if path.startswith("/result/") and method == "GET":
            return self._serve_result(path[len("/result/"):])
        if path == "/campaign":
            if method != "POST":
                return 405, _json_body({"error": "POST required"}), ()
            return await self._serve_campaign(body)
        return 404, _json_body({"error": f"no route for {method} {path}"}), ()

    def _serve_result(self, key: str) -> Tuple[int, bytes, Tuple]:
        try:
            cached = self.store.get(key)
        except ValueError as exc:
            return 400, _json_body({"error": str(exc)}), ()
        if cached is None:
            return 404, _json_body({"error": f"no cached result for {key}"}), (
                ("X-Cache", "miss"),
            )
        return 200, cached, (("X-Cache", "hit"), ("X-Cache-Key", key))

    async def _serve_campaign(self, body: bytes) -> Tuple[int, bytes, Tuple]:
        try:
            request = normalize_request(json.loads(body.decode("utf-8")))
        except (ValueError, RecursionError) as exc:
            return 400, _json_body({"error": str(exc)}), ()
        key = cache_key(request)
        headers = (("X-Cache-Key", key),)
        cached = self.store.get(key)
        if cached is not None:
            self.hit_count += 1
            return 200, cached, (("X-Cache", "hit"),) + headers
        self.miss_count += 1
        payload, ok = await self._compute_deduped(key, request)
        return (200 if ok else 500), payload, (("X-Cache", "miss"),) + headers

    async def _compute_deduped(
        self, key: str, request: UnitRequest
    ) -> Tuple[bytes, bool]:
        """Collapse identical concurrent misses onto one engine call."""
        existing = self._inflight.get(key)
        if existing is not None:
            self.dedup_waits += 1
            return await asyncio.shield(existing)
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._inflight[key] = future
        try:
            self.engine_calls += 1
            try:
                body, ok = await loop.run_in_executor(
                    self._executor, self._compute, request
                )
            except Exception:
                self.error_count += 1
                body, ok = (
                    _json_body({"error": traceback.format_exc(limit=8)}),
                    False,
                )
            if ok:
                await loop.run_in_executor(None, self.store.put, key, body)
            future.set_result((body, ok))
            return body, ok
        finally:
            self._inflight.pop(key, None)

    def stats(self) -> Dict[str, Any]:
        return {
            "requests": self.requests,
            "hits": self.hit_count,
            "misses": self.miss_count,
            "dedup_waits": self.dedup_waits,
            "engine_calls": self.engine_calls,
            "errors": self.error_count,
            "inflight": len(self._inflight),
            "store": self.store.stats(),
        }


class _BadRequest(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status

