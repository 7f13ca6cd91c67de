"""Content-addressable store: atomicity, eviction, quarantine, dedup.

The satellite contract for ``repro.service.store``: a crashed-mid-write
temp file can never corrupt a read, LRU eviction honours
``REPRO_CACHE_MAX_BYTES``, a corrupt entry is a miss that recomputes
(never a 500), and concurrent identical requests collapse onto exactly
one engine call (the in-flight dedup lives in the server; tested here
against a slow fake compute).  The incremental eviction index is held
to the full-walk eviction it replaced: same victims, same counts, under
interleavings of two stores on one root and of outside writers.
"""

import json
import os
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.service.cachekey import UnitRequest
from repro.service.client import ServiceClient
from repro.service.compute import cached_unit
from repro.service.store import (
    RACY_WINDOW_S,
    STALE_TMP_GRACE_S,
    CacheStore,
    CacheStoreError,
)
from background_server import start_background

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
# The eviction index against the full walk it replaced
# ---------------------------------------------------------------------------


def _full_walk_evict(root, max_bytes):
    """The full-walk ``CacheStore.evict`` before the index, frozen."""
    if max_bytes <= 0:
        return 0
    entries = []
    for path in Path(root).glob("??/*.json"):
        try:
            stat = path.stat()
        except OSError:
            continue
        entries.append((path, stat.st_size, stat.st_mtime))
    entries = sorted(entries, key=lambda e: (e[2], e[0].name))
    total = sum(size for _, size, _ in entries)
    dropped = 0
    while entries and total > max_bytes:
        path, size, _ = entries.pop(0)
        try:
            path.unlink()
        except OSError:
            continue
        total -= size
        dropped += 1
    return dropped


def _on_disk(root):
    """{entry name: size} by a fresh walk."""
    return {p.name: p.stat().st_size for p in Path(root).glob("??/*.json")}


def _check_against_full_walk(store, reference_root):
    """Make every ``store.evict`` (``put``'s too) prove itself.

    Before each eviction the tree is copied (mtimes included) and the
    frozen full walk runs on the copy; the index must evict as many
    entries and leave the same ones.
    """
    evict = store.evict

    def checked_evict():
        shutil.rmtree(reference_root, ignore_errors=True)
        shutil.copytree(store.root, reference_root)
        expected = _full_walk_evict(reference_root, store.max_bytes)
        evicted = evict()
        assert evicted == expected
        assert _on_disk(store.root).keys() == _on_disk(reference_root).keys()
        return evicted

    store.evict = checked_evict


def _body(pad):
    return b'{"p": "' + b"x" * pad + b'"}'


def _write_as_outsider(path, body):
    """An atomic write by some other process (no eviction follows)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp-outsider")
    tmp.write_bytes(body)
    os.replace(tmp, path)


# Twelve keys in three shards, so shards hold several entries each.
_KEYS = [f"{prefix}{i:062x}" for prefix in ("00", "7f", "fe") for i in range(4)]
_key = st.integers(0, len(_KEYS) - 1)
_pad = st.integers(0, 40)
_op = st.one_of(
    st.tuples(st.just("put"), st.integers(0, 1), _key, _pad),
    st.tuples(st.just("get"), st.integers(0, 1), _key),
    st.tuples(st.just("evict"), st.integers(0, 1)),
    st.tuples(st.just("touch"), _key, st.integers(1, 10**9)),
    st.tuples(st.just("unlink"), _key),
    st.tuples(st.just("same_tick"), _key, _pad, st.booleans()),
    st.tuples(st.just("age"), _key, st.integers(2, 100)),
)


def _same_tick_change(root, key, pad, write):
    """Change ``key``'s shard, then give the shard its old mtime back.

    Another process can write within the mtime tick the index last saw,
    which leaves the directory mtime unchanged.  That is only possible
    while the shard's mtime is within a tick of "now" (a tick of up to
    :data:`RACY_WINDOW_S` here); elsewhere the change keeps its new
    mtime.  "Now" is the wall clock, not the newest shard mtime: once
    every shard has been aged, the newest mtime lies in the past too,
    and restoring an aged shard's mtime would model a write the
    filesystem cannot produce.
    """
    shard = root / key[:2]
    if not shard.is_dir():
        return
    before = shard.stat()
    path = shard / f"{key}.json"
    if write:
        _write_as_outsider(path, _body(pad))
    elif path.exists():
        path.unlink()
    if time.time_ns() - before.st_mtime_ns < RACY_WINDOW_S * 1e9:
        os.utime(shard, ns=(before.st_atime_ns, before.st_mtime_ns))


@settings(max_examples=120, deadline=None)
@given(caps=st.tuples(st.integers(1, 500), st.integers(1, 500)), ops=st.lists(_op, max_size=40))
# Every shard aged, then a same-tick change: judged against the newest
# shard mtime instead of the wall clock, this restored an aged shard's
# mtime, a write no filesystem can produce.
@example(
    caps=(500, 500),
    ops=[
        ("put", 0, 0, 0),
        ("put", 0, 4, 0),
        ("age", 4, 2),
        ("evict", 0),
        ("age", 0, 2),
        ("same_tick", 4, 0, False),
    ],
)
def test_index_evicts_exactly_what_the_full_walk_evicts(caps, ops):
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch) / "cache"
        stores = [CacheStore(root, max_bytes=cap) for cap in caps]
        for store in stores:
            store.ensure_writable()
            _check_against_full_walk(store, Path(scratch) / "reference")
        for op, *args in ops:
            if op == "put":
                which, key, pad = args
                stores[which].put(_KEYS[key], _body(pad))
            elif op == "get":
                which, key = args
                stores[which].get(_KEYS[key])
            elif op == "evict":
                stores[args[0]].evict()
            elif op == "touch":  # a hit in another process: mtime moves forward
                key, step_ns = args
                path = stores[0].path_for(_KEYS[key])
                if path.exists():
                    stat = path.stat()
                    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + step_ns))
            elif op == "unlink":
                path = stores[0].path_for(_KEYS[args[0]])
                if path.exists():
                    path.unlink()
            elif op == "same_tick":
                key, pad, write = args
                _same_tick_change(root, _KEYS[key], pad, write)
            else:  # the shard was last changed long ago: it stops being racy
                key, seconds = args
                shard = root / _KEYS[key][:2]
                if shard.is_dir():
                    stat = shard.stat()
                    os.utime(shard, ns=(stat.st_atime_ns, stat.st_mtime_ns - seconds * 10**9))
        on_disk = _on_disk(root)
        for store in stores:
            assert store.entry_count() == len(on_disk)
            assert store.total_bytes() == sum(on_disk.values())


def test_hit_in_another_process_moves_its_entry_back_in_line(tmp_path):
    body = _body(20)
    root = tmp_path / "cache"
    other = CacheStore(root, max_bytes=0)
    for age, key in enumerate((KEY_A, KEY_B)):
        os.utime(other.put(key, body), (1000 + age, 1000 + age))
        # Last changed long ago: the index will not list the shard again.
        os.utime(root / key[:2], (1000, 1000))
    store = CacheStore(root, max_bytes=3 * len(body))
    _check_against_full_walk(store, tmp_path / "reference")
    store.put(KEY_C, body)  # indexes A at mtime 1000, B at 1001
    assert other.get(KEY_A) == body  # A's mtime moves to "now"
    store.put("d" * 64, body)
    assert store.get(KEY_A) == body
    assert store.get(KEY_B) is None
    assert store.evictions == 1


class _RacedStore(CacheStore):
    """A store whose next eviction races a rival's, mid-flight."""

    rival = None

    def _reconcile(self):
        super()._reconcile()
        if self.rival is not None:
            rival, self.rival = self.rival, None
            self.rival_evicted = rival.evict()


def test_entries_another_store_evicted_cost_no_live_entry(tmp_path):
    # Store B evicts entries that A's index already lists; A must drop
    # their bytes, not delete a live entry in place of each.
    body = _body(20)
    root = tmp_path / "cache"
    keys = [f"{i:02x}" + "0" * 62 for i in range(6)]
    for age, key in enumerate(keys):
        path = CacheStore(root, max_bytes=0).put(key, body)
        os.utime(path, (1000 + age, 1000 + age))  # keys[0] is the LRU
    a = _RacedStore(root, max_bytes=4 * len(body))
    a.rival = CacheStore(root, max_bytes=2 * len(body))
    assert a.evict() == 0
    assert a.rival_evicted == 4
    assert sorted(_on_disk(root)) == [f"{key}.json" for key in keys[4:]]
    assert a.total_bytes() == 2 * len(body)
    assert a.evictions == 0


def test_threads_putting_into_one_capped_store(tmp_path):
    body = _body(100)
    cap = 10 * len(body)
    store = CacheStore(tmp_path / "cache", max_bytes=cap)
    store.ensure_writable()
    errors = []
    n_threads = 8
    barrier = threading.Barrier(n_threads)

    def writer(t):
        barrier.wait()
        for i in range(25):
            try:
                store.put(f"{t:02x}{i:062x}", body)
            except Exception as exc:  # collected for the assert below
                errors.append(exc)

    threads = [threading.Thread(target=writer, args=(t,)) for t in range(n_threads)]
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
    assert sum(_on_disk(store.root).values()) <= cap
    assert store.total_bytes() == sum(_on_disk(store.root).values())
    assert store.evictions == 8 * 25 - store.entry_count()


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
