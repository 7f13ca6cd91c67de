"""On-disk content-addressable store for campaign unit bodies.

Layout: ``<root>/<key[:2]>/<key>.json`` (two-level sharding keeps any
one directory small), plus ``<root>/quarantine/`` for entries that
failed validation.  Three invariants:

* **Atomic writes.**  Bodies land via write-to-tempfile + ``os.replace``
  in the same directory, so a reader never observes a torn entry and a
  writer crash leaves only a ``*.tmp-*`` file that readers ignore and
  later writes clean up once it is older than ``STALE_TMP_GRACE_S``
  (a younger one may belong to a concurrent writer in the same shard).
* **Corrupt entries are misses, never errors.**  ``get`` validates the
  stored bytes as JSON; a corrupt file is moved into ``quarantine/``
  and reported as a miss, so the serving tier recomputes instead of
  returning a 500 (DESIGN.md §9 failure semantics).
* **Bounded size.**  When ``max_bytes`` (default from
  ``REPRO_CACHE_MAX_BYTES``; 0/unset = unbounded) is exceeded after a
  write, least-recently-used entries — by ``(mtime, name)``, and ``get``
  touches the mtime on every hit — are evicted until the store fits.
  Occupancy comes from an in-process index of every shard that is
  reconciled against the disk with one ``stat`` per shard directory:
  only shards whose directory mtime changed, or that were "racy" (see
  :data:`RACY_WINDOW_S`), are listed again.  Cached entry mtimes are
  lower bounds, so each victim is re-``stat``-ed before it is deleted;
  the order is exactly the LRU order of a full walk, across processes.

Hit/miss/put/eviction/quarantine counters are per-process and exposed
via :meth:`CacheStore.stats` (the server's ``GET /stats``).
"""

from __future__ import annotations

import heapq
import json
import os
import tempfile
import threading
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.signals.batchcorr import env_int

#: Cap on the store's total entry bytes; 0 means unbounded.
ENV_MAX_BYTES = "REPRO_CACHE_MAX_BYTES"

#: Age (seconds) after which a ``*.tmp-*`` file counts as left behind by
#: a crashed writer.  Younger temp files may still be mid-write in
#: another thread or process, so the sweep spares them.
STALE_TMP_GRACE_S = 60.0

#: Racy window (seconds) of the eviction index.  Another process can
#: change a shard within the same mtime tick as the index's last look,
#: leaving the directory mtime unchanged.  Every shard whose directory
#: mtime lies within this window of the newest one seen in a reconcile
#: is therefore listed again at the next reconcile too.  The newest
#: mtime is never later than the filesystem's "now", so the window
#: needs no wall clock; it must be at least the filesystem's mtime
#: granularity.
RACY_WINDOW_S = 1.0


class CacheStoreError(RuntimeError):
    """The cache root is unusable (unwritable, not a directory, ...)."""


def _valid_key(key: str) -> bool:
    return (
        len(key) == 64
        and all(c in "0123456789abcdef" for c in key)
    )


class CacheStore:
    """A content-addressable body store rooted at ``root``."""

    def __init__(self, root, max_bytes: Optional[int] = None):
        self.root = Path(root)
        if max_bytes is None:
            max_bytes = env_int(ENV_MAX_BYTES, 0, minimum=0)
        self.max_bytes = int(max_bytes)
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0
        self.quarantined = 0
        # The eviction index (see _reconcile).  The server runs put on
        # executor threads while get and /stats run on its event loop.
        self._lock = threading.Lock()
        self._shards: Dict[str, _Shard] = {}
        self._heap: List[Tuple[float, str]] = []
        self._total = 0

    # -- paths -------------------------------------------------------

    def path_for(self, key: str) -> Path:
        if not _valid_key(key):
            raise ValueError(f"not a sha256 hex key: {key!r}")
        return self.root / key[:2] / f"{key}.json"

    def ensure_writable(self) -> None:
        """Create the root and prove it accepts writes.

        Raises :class:`CacheStoreError` with an actionable message when
        it cannot — the runner turns this into a clean non-zero exit
        instead of crashing mid-campaign.
        """
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, probe = tempfile.mkstemp(prefix=".probe-", dir=self.root)
            os.close(fd)
            os.unlink(probe)
        except (OSError, ValueError) as exc:
            raise CacheStoreError(
                f"cache root {str(self.root)!r} is not a writable directory: {exc}"
            ) from exc

    # -- read --------------------------------------------------------

    def get(self, key: str) -> Optional[bytes]:
        """The stored body for ``key``, or ``None`` on a miss.

        A hit touches the entry's mtime (the LRU clock).  A file that
        exists but does not parse as JSON is quarantined and counted as
        a miss — the caller recomputes.
        """
        path = self.path_for(key)
        try:
            body = path.read_bytes()
        except (FileNotFoundError, NotADirectoryError):
            self.misses += 1
            return None
        try:
            json.loads(body)
        except ValueError:
            self._quarantine(path)
            self.misses += 1
            return None
        try:
            os.utime(path)
        except OSError:  # pragma: no cover - entry evicted underneath us
            pass
        self.hits += 1
        return body

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside so it cannot keep serving misses."""
        target = self.root / "quarantine" / path.name
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:  # pragma: no cover - lost a race; drop it
            try:
                path.unlink()
            except OSError:
                pass
        self.quarantined += 1

    # -- write -------------------------------------------------------

    def put(self, key: str, body: bytes) -> Path:
        """Store ``body`` under ``key`` atomically; returns the path.

        The temp file lives in the destination directory so
        ``os.replace`` is a same-filesystem rename; stale ``*.tmp-*``
        files from crashed writers are swept opportunistically.
        """
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=f"{key}.tmp-", dir=path.parent)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(body)
                fh.flush()
                written = os.fstat(fh.fileno()).st_mtime
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.puts += 1
        self._sweep_stale_tmps(path.parent, written)
        if self.max_bytes > 0:
            self.evict()
        return path

    def _sweep_stale_tmps(self, directory: Path, now: float) -> None:
        """Remove leftover temp files from writers that died mid-write.

        ``now`` is the mtime of the entry just written (the rename keeps
        the temp file's mtime), so ages are measured on the filesystem's
        clock.  Only temp files older than ``STALE_TMP_GRACE_S`` go: a
        younger one may be another writer's live temp file, whose
        ``os.replace`` would otherwise fail.
        """
        for tmp in directory.glob("*.tmp-*"):
            try:
                if now - tmp.stat().st_mtime > STALE_TMP_GRACE_S:
                    tmp.unlink()
            except OSError:  # pragma: no cover - renamed or swept concurrently
                pass

    # -- accounting / eviction ---------------------------------------

    def _reconcile(self) -> None:
        """Bring the index up to date with the disk (lock held).

        One ``scandir`` of the root and one ``stat`` per shard
        directory; only shards whose directory mtime changed, or that
        were racy last time, are listed and stat-ed entry by entry.
        """
        seen: Dict[str, int] = {}
        try:
            with os.scandir(self.root) as it:
                for entry in it:
                    if len(entry.name) == 2 and entry.is_dir():
                        try:
                            seen[entry.name] = entry.stat().st_mtime_ns
                        except OSError:  # pragma: no cover - removed concurrently
                            pass
        except (FileNotFoundError, NotADirectoryError):
            pass
        for name in self._shards.keys() - seen.keys():
            self._total -= sum(size for size, _ in self._shards.pop(name).entries.values())
        racy_after = max(seen.values(), default=0) - int(RACY_WINDOW_S * 1e9)
        for name, mtime_ns in seen.items():
            shard = self._shards.get(name)
            if shard is None or shard.racy or shard.mtime_ns != mtime_ns:
                shard = self._shards[name] = self._rescan(name, mtime_ns, shard)
            shard.racy = mtime_ns > racy_after
        # Superseded heap items are dropped lazily; compact when they
        # outnumber the live ones.
        if len(self._heap) > 2 * self._count() + 1024:
            self._heap = [
                (mtime, name)
                for shard in self._shards.values()
                for name, (_, mtime) in shard.entries.items()
            ]
            heapq.heapify(self._heap)

    def _rescan(self, name: str, mtime_ns: int, old: Optional[_Shard]) -> _Shard:
        """List one shard; queue new or changed entries on the LRU heap."""
        shard = _Shard(mtime_ns)
        try:
            with os.scandir(os.path.join(self.root, name)) as it:
                for entry in it:
                    if entry.name.endswith(".json"):
                        try:
                            stat = entry.stat()
                        except OSError:  # pragma: no cover - evicted concurrently
                            continue
                        shard.entries[entry.name] = (stat.st_size, stat.st_mtime)
        except OSError:  # pragma: no cover - shard removed concurrently
            pass
        previous = old.entries if old is not None else {}
        self._total += sum(size for size, _ in shard.entries.values())
        self._total -= sum(size for size, _ in previous.values())
        for entry_name, value in shard.entries.items():
            if previous.get(entry_name) != value:
                heapq.heappush(self._heap, (value[1], entry_name))
        return shard

    def _count(self) -> int:
        return sum(len(shard.entries) for shard in self._shards.values())

    def _occupancy(self) -> Tuple[int, int]:
        """(entries, bytes) on disk now, from the reconciled index."""
        with self._lock:
            self._reconcile()
            return self._count(), self._total

    def total_bytes(self) -> int:
        return self._occupancy()[1]

    def entry_count(self) -> int:
        return self._occupancy()[0]

    def evict(self) -> int:
        """Drop least-recently-used entries until under ``max_bytes``.

        Returns the number of entries evicted; unbounded stores
        (``max_bytes == 0``) never evict.  Victims come off a heap of
        cached ``(mtime, name)`` pairs.  ``get`` and ``put`` only move
        an mtime forward, and any process may have done so since the
        index looked, so a cached mtime is a lower bound: each victim is
        re-``stat``-ed and goes back on the heap if it was touched,
        which keeps the order exactly the one a full walk would give.
        An entry another writer already removed just leaves the byte
        total; it is not counted and costs no live entry its place.
        """
        if self.max_bytes <= 0:
            return 0
        dropped = 0
        with self._lock:
            self._reconcile()
            heap = self._heap
            while heap and self._total > self.max_bytes:
                mtime, name = heapq.heappop(heap)
                shard = self._shards.get(name[:2])
                cached = shard.entries.get(name) if shard is not None else None
                if cached is None or cached[1] != mtime:
                    continue  # stale: superseded, or no longer indexed
                path = os.path.join(self.root, name[:2], name)
                try:
                    stat = os.stat(path)
                except FileNotFoundError:
                    stat = None
                if stat is not None:
                    if stat.st_mtime > mtime:
                        shard.entries[name] = (stat.st_size, stat.st_mtime)
                        self._total += stat.st_size - cached[0]
                        heapq.heappush(heap, (stat.st_mtime, name))
                        continue
                    try:
                        os.unlink(path)
                    except FileNotFoundError:
                        pass
                    except OSError:  # pragma: no cover - undeletable; keeps its bytes
                        continue
                    else:
                        dropped += 1
                del shard.entries[name]
                self._total -= cached[0]
            self.evictions += dropped
        return dropped

    def stats(self) -> Dict[str, int]:
        """Counters (this process) plus current on-disk occupancy."""
        entries, total = self._occupancy()
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "quarantined": self.quarantined,
            "entries": entries,
            "total_bytes": total,
            "max_bytes": self.max_bytes,
        }


class _Shard:
    """Index of one shard directory: its mtime, racy flag and entries."""

    __slots__ = ("mtime_ns", "racy", "entries")

    def __init__(self, mtime_ns: int) -> None:
        self.mtime_ns = mtime_ns
        self.racy = False
        #: entry file name -> (size, mtime)
        self.entries: Dict[str, Tuple[int, float]] = {}
