"""Capture/replay harness: trace format, percentiles, replay reports."""

import json

import pytest

from repro.service.client import ServiceClient
from repro.service.replay import (
    TraceEntry,
    TraceRecorder,
    load_trace,
    percentile,
    replay_trace,
)
from repro.service.store import CacheStore
from background_server import start_background


def test_percentile_nearest_rank():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 50) == 2.0
    assert percentile(values, 75) == 3.0
    assert percentile(values, 100) == 4.0
    assert percentile([5.0], 99) == 5.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_recorder_writes_relative_timestamps(tmp_path):
    path = tmp_path / "trace.jsonl"
    recorder = TraceRecorder(path)
    recorder.record("POST", "/campaign", {"experiment": "fig22"})
    recorder.record("GET", "/healthz")
    entries = load_trace(path)
    assert len(entries) == 2
    assert entries[0].t == 0.0
    assert entries[1].t >= 0.0
    assert entries[0].body == {"experiment": "fig22"}
    assert entries[1].body is None


def test_client_capture_integration(tmp_path):
    """A client with a recorder captures exactly what it issues."""
    store = CacheStore(tmp_path / "cache")
    store.ensure_writable()
    body = json.dumps({"result": {"status": "ok"}}).encode()
    with start_background(store, compute=lambda req: (body, True)) as server:
        recorder = TraceRecorder(tmp_path / "trace.jsonl")
        client = ServiceClient(
            f"http://127.0.0.1:{server.port}", recorder=recorder
        )
        request = {"experiment": "fig22", "scale": 0.1}
        client.campaign(request)
        client.campaign(request)
    entries = load_trace(tmp_path / "trace.jsonl")
    assert [e.path for e in entries] == ["/campaign", "/campaign"]
    assert all(e.method == "POST" and e.body == request for e in entries)


def test_load_trace_rejects_bad_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"method": "POST"}\n')
    with pytest.raises(ValueError, match="bad trace line"):
        load_trace(path)
    path.write_text("")
    with pytest.raises(ValueError, match="empty trace"):
        load_trace(path)


def test_replay_reports_hits_and_latency(tmp_path):
    store = CacheStore(tmp_path / "cache")
    store.ensure_writable()
    body = json.dumps({"result": {"status": "ok"}}).encode()
    computes = []

    def compute(request):
        computes.append(request.experiment)
        return body, True

    entries = [
        TraceEntry(t=0.0, method="POST", path="/campaign", body={"experiment": "fig22"}),
        TraceEntry(t=0.01, method="POST", path="/campaign", body={"experiment": "fig22"}),
    ]
    with start_background(store, compute=compute) as server:
        client = ServiceClient(f"http://127.0.0.1:{server.port}")
        report = replay_trace(client, entries, speed=10.0, repeat=2)
    assert report["requests"] == 4
    assert report["misses"] == 1, "only the first request computes"
    assert report["hits"] == 3
    assert report["hit_rate"] == 0.75
    assert report["errors"] == 0
    assert len(computes) == 1
    assert report["latency"]["p50_s"] > 0
    assert report["hit_latency"]["p50_s"] > 0
    assert report["miss_latency"]["p50_s"] > 0


def test_replay_validates_arguments(tmp_path):
    client = ServiceClient("http://127.0.0.1:1")
    entry = TraceEntry(t=0.0, method="GET", path="/healthz")
    with pytest.raises(ValueError, match="speed"):
        replay_trace(client, [entry], speed=0)
    with pytest.raises(ValueError, match="repeat"):
        replay_trace(client, [entry], repeat=0)


def test_replay_counts_errors(tmp_path):
    store = CacheStore(tmp_path / "cache")
    store.ensure_writable()
    with start_background(store) as server:
        client = ServiceClient(f"http://127.0.0.1:{server.port}")
        entries = [
            TraceEntry(
                t=0.0, method="POST", path="/campaign", body={"experiment": "nope"}
            )
        ]
        report = replay_trace(client, entries)
    assert report["errors"] == 1
    assert report["hits"] == 0
