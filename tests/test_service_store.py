"""Content-addressable store: atomicity, eviction, quarantine, dedup.

The satellite contract for ``repro.service.store``: a crashed-mid-write
temp file can never corrupt a read, LRU eviction honours
``REPRO_CACHE_MAX_BYTES``, a corrupt entry is a miss that recomputes
(never a 500), and concurrent identical requests collapse onto exactly
one engine call (the in-flight dedup lives in the server; tested here
against a slow fake compute).
"""

import json
import os
import sys
import threading
import time

import pytest

from repro.service.cachekey import UnitRequest
from repro.service.client import ServiceClient
from repro.service.compute import cached_unit
from repro.service.server import start_background
from repro.service.store import STALE_TMP_GRACE_S, CacheStore, CacheStoreError

KEY_A = "a" * 64
KEY_B = "b" * 64
KEY_C = "c" * 64


@pytest.fixture
def store(tmp_path):
    s = CacheStore(tmp_path / "cache")
    s.ensure_writable()
    return s


def test_put_get_round_trip_and_layout(store):
    body = json.dumps({"v": 1}).encode()
    path = store.put(KEY_A, body)
    assert path == store.root / KEY_A[:2] / f"{KEY_A}.json"
    assert path.exists()
    assert store.get(KEY_A) == body
    assert store.get(KEY_B) is None
    stats = store.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1 and stats["puts"] == 1
    assert stats["entries"] == 1 and stats["total_bytes"] == len(body)


def test_invalid_key_rejected(store):
    with pytest.raises(ValueError, match="sha256"):
        store.get("nope")
    with pytest.raises(ValueError, match="sha256"):
        store.put("../../evil", b"{}")


def test_crashed_mid_write_tmp_is_ignored_and_swept(store):
    shard = store.root / KEY_A[:2]
    shard.mkdir(parents=True)
    stale = shard / f"{KEY_A}.tmp-deadbeef"
    stale.write_bytes(b'{"torn":')
    # The crash happened long ago: older than the sweep's grace period.
    old = stale.stat().st_mtime - 2 * STALE_TMP_GRACE_S
    os.utime(stale, (old, old))
    # A reader never sees the torn temp file...
    assert store.get(KEY_A) is None
    assert store.total_bytes() == 0
    # ...and a later write in the shard both lands atomically and
    # sweeps the leftover.
    body = b'{"v": 2}'
    store.put(KEY_A, body)
    assert store.get(KEY_A) == body
    assert not stale.exists()
    assert not list(store.root.glob("**/*.tmp-*"))


def test_sweep_spares_young_tmp_of_a_live_writer(store):
    shard = store.root / KEY_A[:2]
    shard.mkdir(parents=True)
    live = shard / f"{KEY_A}.tmp-inflight"
    live.write_bytes(b'{"half":')
    store.put(KEY_A, b'{"v": 3}')
    assert live.exists()


def test_concurrent_puts_in_one_shard_never_lose_a_rename(store):
    # Every key lands in shard "ab": each put's sweep runs while the
    # other writers' temp files may be mid-write in the same directory.
    # More writer threads than cores, and frequent thread switches.
    keys = [f"ab{i:062x}" for i in range(60)]
    shard = store.root / "ab"
    shard.mkdir(parents=True)
    planted = shard / f"{keys[0]}.tmp-crashed"
    planted.write_bytes(b'{"torn":')
    old = planted.stat().st_mtime - 2 * STALE_TMP_GRACE_S
    os.utime(planted, (old, old))
    errors = []
    n_threads = 4
    barrier = threading.Barrier(n_threads)

    def writer(part):
        barrier.wait()
        for key in part:
            try:
                store.put(key, json.dumps({"key": key}).encode())
            except Exception as exc:  # collected for the assert below
                errors.append(exc)

    threads = [
        threading.Thread(target=writer, args=(keys[i::n_threads],)) for i in range(n_threads)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    for key in keys:
        assert json.loads(store.get(key)) == {"key": key}
    assert not planted.exists()
    assert not list(shard.glob("*.tmp-*"))


def test_corrupt_entry_quarantined_as_miss(store):
    path = store.root / KEY_A[:2] / f"{KEY_A}.json"
    path.parent.mkdir(parents=True)
    path.write_bytes(b"{not json")
    assert store.get(KEY_A) is None
    assert not path.exists()
    quarantined = store.root / "quarantine" / f"{KEY_A}.json"
    assert quarantined.exists()
    stats = store.stats()
    assert stats["quarantined"] == 1 and stats["misses"] == 1
    # The slot is reusable immediately.
    store.put(KEY_A, b'{"v": 3}')
    assert store.get(KEY_A) == b'{"v": 3}'


def test_corrupt_entry_recomputes_via_cached_unit(tmp_path):
    store = CacheStore(tmp_path / "cache")
    store.ensure_writable()
    request = UnitRequest(experiment="fig22", scale=0.1)
    key, body, hit = cached_unit(store, request)
    assert not hit and json.loads(body)["result"]["status"] == "ok"
    # Corrupt the committed entry in place: next read must recompute
    # the identical bytes, not fail.
    store.path_for(key).write_bytes(b"garbage")
    key2, body2, hit2 = cached_unit(store, request)
    assert key2 == key and not hit2 and body2 == body
    assert store.quarantined == 1
    _, body3, hit3 = cached_unit(store, request)
    assert hit3 and body3 == body


def test_lru_eviction_respects_max_bytes(tmp_path):
    body = b'{"pad": "' + b"x" * 100 + b'"}'
    store = CacheStore(tmp_path / "cache", max_bytes=2 * len(body))
    store.ensure_writable()
    store.put(KEY_A, body)
    store.put(KEY_B, body)
    assert store.entry_count() == 2
    # Touch A so B becomes the LRU victim.
    os.utime(store.path_for(KEY_B), (1, 1))
    assert store.get(KEY_A) == body
    store.put(KEY_C, body)
    assert store.get(KEY_B) is None, "LRU entry should have been evicted"
    assert store.get(KEY_A) == body
    assert store.get(KEY_C) == body
    assert store.evictions == 1
    assert store.total_bytes() <= 2 * len(body)


def test_max_bytes_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "12345")
    assert CacheStore(tmp_path).max_bytes == 12345
    monkeypatch.delenv("REPRO_CACHE_MAX_BYTES")
    assert CacheStore(tmp_path).max_bytes == 0


def test_ensure_writable_rejects_file_parent(tmp_path):
    blocker = tmp_path / "a-file"
    blocker.write_text("not a directory")
    store = CacheStore(blocker / "cache")
    with pytest.raises(CacheStoreError, match="not a writable directory"):
        store.ensure_writable()


def test_unbounded_store_never_evicts(store):
    assert store.max_bytes == 0
    store.put(KEY_A, b'{"v": 1}')
    assert store.evict() == 0
    assert store.entry_count() == 1


# ---------------------------------------------------------------------------
# In-flight dedup (server-side, against a slow fake compute)
# ---------------------------------------------------------------------------


def test_concurrent_identical_requests_share_one_compute(tmp_path):
    release = threading.Event()
    calls = []

    def slow_compute(request):
        calls.append(request.experiment)
        assert release.wait(timeout=30), "test deadlock"
        return json.dumps({"result": {"status": "ok"}}).encode(), True

    store = CacheStore(tmp_path / "cache")
    store.ensure_writable()
    with start_background(store, compute=slow_compute) as server:
        client = ServiceClient(f"http://127.0.0.1:{server.port}")
        request = {"experiment": "fig22", "scale": 0.1}
        responses = []

        def post():
            responses.append(client.campaign(request))

        threads = [threading.Thread(target=post) for _ in range(6)]
        for t in threads:
            t.start()
        # Release the (blocked) leader only after every rider is
        # provably enqueued behind the in-flight future, so no request
        # can arrive late and be served as a plain cache hit.
        deadline = time.monotonic() + 30
        while server.server.dedup_waits < 5 and time.monotonic() < deadline:
            time.sleep(0.01)
        release.set()
        for t in threads:
            t.join(timeout=30)
        stats = server.server.stats()
    assert len(calls) == 1, "identical in-flight requests must share one compute"
    assert len(responses) == 6
    assert all(r.status == 200 and r.cache == "miss" for r in responses)
    bodies = {r.body for r in responses}
    assert len(bodies) == 1
    assert stats["engine_calls"] == 1
    assert stats["dedup_waits"] == 5
