"""A campaign server on a background thread, shared by the service tests.

:func:`start_background` starts a :class:`repro.service.server.CampaignServer`
on an ephemeral port in its own thread and event loop, so a test can
talk to it over real HTTP and stop it with a ``with`` block.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Optional

from repro.service.server import CampaignServer
from repro.service.store import CacheStore


class BackgroundServer:
    """A :class:`CampaignServer` on its own thread + event loop.

    Construction blocks until the port is bound; :meth:`close` stops the
    loop and joins the thread.  The CLI ``serve`` command runs the
    server in the foreground instead.
    """

    def __init__(self, store: CacheStore, **server_kwargs):
        self.server: Optional[CampaignServer] = None
        self.port: Optional[int] = None
        self._store = store
        self._kwargs = server_kwargs
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):  # pragma: no cover
            raise RuntimeError("service thread failed to start in 30s")
        if self._error is not None:
            raise RuntimeError("service failed to start") from self._error

    def _run(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # pragma: no cover - surfaced in ctor
            self._error = exc
            self._ready.set()

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        server = CampaignServer(self._store, **self._kwargs)
        await server.start()
        self.server = server
        self.port = server.port
        self._ready.set()
        try:
            await self._stop_event.wait()
        finally:
            await server.stop()

    def close(self) -> None:
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout=30)

    def __enter__(self) -> "BackgroundServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def start_background(store: CacheStore, **server_kwargs) -> BackgroundServer:
    """Start a server on an ephemeral port; returns the running handle."""
    return BackgroundServer(store, **server_kwargs)
