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
  write, least-recently-used entries — by mtime, which ``get`` touches
  on every hit — are evicted until the store fits.

Hit/miss/put/eviction/quarantine counters are per-process and exposed
via :meth:`CacheStore.stats` (the server's ``GET /stats``).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.signals.batchcorr import env_int

#: Cap on the store's total entry bytes; 0 means unbounded.
ENV_MAX_BYTES = "REPRO_CACHE_MAX_BYTES"

#: Age (seconds) after which a ``*.tmp-*`` file counts as left behind by
#: a crashed writer.  Younger temp files may still be mid-write in
#: another thread or process, so the sweep spares them.
STALE_TMP_GRACE_S = 60.0


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

    def _entries(self) -> List[Tuple[Path, int, float]]:
        """(path, size, mtime) for every committed entry (tmps excluded)."""
        entries = []
        for path in self.root.glob("??/*.json"):
            try:
                stat = path.stat()
            except OSError:  # pragma: no cover - evicted concurrently
                continue
            entries.append((path, stat.st_size, stat.st_mtime))
        return entries

    def total_bytes(self) -> int:
        return sum(size for _, size, _ in self._entries())

    def entry_count(self) -> int:
        return len(self._entries())

    def evict(self) -> int:
        """Drop least-recently-used entries until under ``max_bytes``.

        Returns the number of entries evicted; unbounded stores
        (``max_bytes == 0``) never evict.
        """
        if self.max_bytes <= 0:
            return 0
        entries = sorted(self._entries(), key=lambda e: (e[2], e[0].name))
        total = sum(size for _, size, _ in entries)
        dropped = 0
        while entries and total > self.max_bytes:
            path, size, _ = entries.pop(0)
            try:
                path.unlink()
            except OSError:  # pragma: no cover - already gone
                continue
            total -= size
            dropped += 1
        self.evictions += dropped
        return dropped

    def stats(self) -> Dict[str, int]:
        """Counters (this process) plus current on-disk occupancy."""
        entries = self._entries()
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "quarantined": self.quarantined,
            "entries": len(entries),
            "total_bytes": sum(size for _, size, _ in entries),
            "max_bytes": self.max_bytes,
        }
