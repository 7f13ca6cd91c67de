"""The asyncio serving tier: routes, cache semantics, determinism proof.

The acceptance contract (ISSUE 7): two freshly started servers backed
by the same cache root serve byte-identical bodies for the same
request; a warm hit never invokes the engine (pinned against
``engine.unit_call_count``); failures surface as 4xx/5xx JSON, never
cached.  Plus the satellite: ``engine.shutdown_pool()`` is idempotent
and safe from the server's shutdown path.
"""

import asyncio
import json
import os
import select
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments import engine
from repro.experiments.pool import WorkerPool
from repro.service.__main__ import main as service_main
from repro.service.client import ServiceClient
from repro.service.compute import encode_body
from repro.service.server import (
    MAX_BODY_BYTES,
    CampaignServer,
    _BadRequest,
)
from repro.service.store import CacheStore
from background_server import start_background

REQUEST = {"experiment": "fig22", "scale": 0.1, "backend": "batch"}

SRC = Path(__file__).resolve().parents[1] / "src"


def _client(server):
    return ServiceClient(f"http://127.0.0.1:{server.port}")


@pytest.fixture
def served(tmp_path):
    store = CacheStore(tmp_path / "cache")
    store.ensure_writable()
    with start_background(store) as server:
        yield server, _client(server)


# ---------------------------------------------------------------------------
# Routes
# ---------------------------------------------------------------------------


def test_healthz_and_stats(served):
    _, client = served
    assert client.healthz().json() == {"status": "ok"}
    stats = client.stats().json()
    assert stats["engine_calls"] == 0
    assert stats["store"]["entries"] == 0


def test_unknown_route_and_wrong_method(served):
    _, client = served
    assert client.request("GET", "/nope").status == 404
    assert client.request("GET", "/campaign").status == 405


def test_bad_request_bodies(served):
    _, client = served
    assert client.request("POST", "/campaign", {"experiment": "nope"}).status == 400
    assert client.request("POST", "/campaign", {}).status == 400
    response = client.request(
        "POST", "/campaign", {"experiment": "fig22", "bogus": 1}
    )
    assert response.status == 400
    assert "bogus" in response.json()["error"]
    response = client.request(
        "POST", "/campaign", {"experiment": "fig22", "base_seed": -1}
    )
    assert response.status == 400
    assert "base_seed" in response.json()["error"]
    response = client.request(
        "POST", "/campaign", {"experiment": "fig22", "precision": "float32"}
    )
    assert response.status == 400
    assert "'backend' field" in response.json()["error"]
    # The per-exchange reference is a test oracle, not a served backend.
    response = client.request(
        "POST", "/campaign", {"experiment": "fig22", "backend": "legacy"}
    )
    assert response.status == 400
    assert "unknown backend 'legacy' (choose from batch, fast)" in response.json()["error"]
    # Params are checked against the experiment's entry before compute:
    # a bad backend or precision in params, or a key the entry does not
    # take, is a client error, not a failed unit.
    calls = engine.unit_call_count()
    for params, message in (
        ({"backend": "turbo"}, "unknown backend 'turbo'"),
        ({"backend": "legacy"}, "unknown backend 'legacy'"),
        ({"precision": "float32"}, "backend 'batch' does not support precision"),
        ({"nonsense": 1}, "has no parameter 'nonsense'"),
    ):
        response = client.request(
            "POST", "/campaign", {"experiment": "fig22", "params": params}
        )
        assert response.status == 400, params
        assert message in response.json()["error"]
    assert engine.unit_call_count() == calls


def test_result_endpoint(served):
    _, client = served
    cold = client.campaign(REQUEST)
    key = cold.headers["x-cache-key"]
    fetched = client.result(key)
    assert fetched.status == 200 and fetched.body == cold.body
    assert client.result("f" * 64).status == 404
    assert client.result("not-a-key").status == 400


# ---------------------------------------------------------------------------
# Cache semantics + determinism proof
# ---------------------------------------------------------------------------


def test_cold_then_warm_hit_never_touches_engine(served):
    server, client = served
    cold = client.campaign(REQUEST)
    assert cold.status == 200 and cold.cache == "miss"
    assert json.loads(cold.body)["result"]["status"] == "ok"
    calls_after_cold = engine.unit_call_count()
    for _ in range(3):
        warm = client.campaign(REQUEST)
        assert warm.status == 200 and warm.cache == "hit"
        assert warm.body == cold.body
    assert engine.unit_call_count() == calls_after_cold, (
        "a warm hit must be served from the store without engine compute"
    )
    stats = server.server.stats()
    assert stats["engine_calls"] == 1 and stats["hits"] == 3


def test_two_fresh_servers_shared_root_serve_identical_bytes(tmp_path):
    """Determinism-as-cache: server 2 serves server 1's bytes as hits."""
    root = tmp_path / "shared-cache"
    with start_background(CacheStore(root)) as first:
        cold = _client(first).campaign(REQUEST)
        assert cold.cache == "miss"
    calls_before = engine.unit_call_count()
    with start_background(CacheStore(root)) as second:
        warm = _client(second).campaign(REQUEST)
    assert warm.cache == "hit"
    assert warm.body == cold.body
    assert engine.unit_call_count() == calls_before


def test_two_fresh_servers_separate_roots_byte_identical(tmp_path):
    """Stronger: independent computes of the same request agree bitwise."""
    bodies = []
    for root in ("cache-a", "cache-b"):
        with start_background(CacheStore(tmp_path / root)) as server:
            response = _client(server).campaign(REQUEST)
            assert response.status == 200 and response.cache == "miss"
            bodies.append(response.body)
    assert bodies[0] == bodies[1]


def test_compute_error_is_500_and_never_cached(tmp_path):
    calls = []

    def failing_compute(request):
        calls.append(1)
        raise RuntimeError("engine exploded")

    store = CacheStore(tmp_path / "cache")
    store.ensure_writable()
    with start_background(store, compute=failing_compute) as server:
        client = _client(server)
        for expected_calls in (1, 2):
            response = client.campaign(REQUEST)
            assert response.status == 500
            assert "engine exploded" in response.json()["error"]
            assert len(calls) == expected_calls, "errors must not be cached"
        assert server.server.stats()["store"]["entries"] == 0


def test_unit_status_error_is_500_not_cached(tmp_path):
    body = json.dumps({"result": {"status": "error", "error": "boom"}}).encode()
    store = CacheStore(tmp_path / "cache")
    store.ensure_writable()
    with start_background(store, compute=lambda req: (body, False)) as server:
        client = _client(server)
        response = client.campaign(REQUEST)
        assert response.status == 500 and response.body == body
        assert server.server.stats()["store"]["entries"] == 0


# ---------------------------------------------------------------------------
# run_unit (the cacheable entrypoint) matches campaign seeding
# ---------------------------------------------------------------------------


def test_run_unit_matches_campaign_job_bitwise():
    campaign = engine.run_campaign(["fig22"], scale=0.1, backend="batch")[0]
    unit = engine.run_unit("fig22", scale=0.1, backend="batch")
    assert unit.to_dict() == campaign.to_dict()


def test_run_unit_chunked_matches_campaign_chunked():
    campaign = engine.run_campaign(["fig14"], scale=0.05, trial_chunks=2)[0]
    unit = engine.run_unit("fig14", scale=0.05, trial_chunks=2)
    assert unit.to_dict() == campaign.to_dict()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "name, sweep, scale, trial_chunks",
    [
        ("fig18", None, 0.1, 1),  # declared variants
        ("fig18", {"site": ["dock", "boathouse"]}, 0.1, 1),  # sweep variants
        ("fig14", None, 0.05, 2),  # chunked
    ],
    ids=["declared", "sweep", "chunked"],
)
def test_run_unit_per_planned_unit_matches_campaign(name, sweep, scale, trial_chunks, workers):
    def as_bytes(result):
        unit = engine.unit_to_dict(result, scale=scale, trial_chunks=trial_chunks)
        return encode_body(unit)

    knobs = dict(scale=scale, trial_chunks=trial_chunks, workers=workers)
    units = engine.plan_units([name], sweep=sweep)
    try:
        campaign = engine.run_campaign([name], sweep=sweep, **knobs)
        # Declared variants by name alone: run_unit folds in their params.
        singles = [
            engine.run_unit(n, v, params if sweep else None, **knobs) for n, v, params in units
        ]
    finally:
        engine.shutdown_pool()
    assert [(r.experiment, r.variant) for r in campaign] == [(n, v) for n, v, _ in units]
    assert all(r.status == "ok" for r in campaign)
    assert [as_bytes(r) for r in singles] == [as_bytes(r) for r in campaign]


def test_run_unit_validates_input():
    with pytest.raises(KeyError):
        engine.run_unit("nope")
    with pytest.raises(ValueError):
        engine.run_unit("fig22", trial_chunks=0)
    with pytest.raises(ValueError):
        engine.run_unit("fig6", backend="fast")


def test_run_unit_increments_call_counter():
    before = engine.unit_call_count()
    engine.run_unit("fig22", scale=0.1)
    assert engine.unit_call_count() == before + 1


# ---------------------------------------------------------------------------
# Pool lifecycle (satellite): shutdown is idempotent everywhere
# ---------------------------------------------------------------------------


def test_shutdown_pool_idempotent_without_pool():
    engine.shutdown_pool()
    engine.shutdown_pool()  # second call must be a silent no-op


def test_shutdown_pool_idempotent_with_live_pool():
    # Spin the persistent pool up via a parallel chunked unit, then
    # shut it down twice — the server's shutdown path plus the
    # engine's own atexit hook do exactly this double-call.
    engine.run_unit("fig14", scale=0.05, trial_chunks=2, workers=2)
    engine.shutdown_pool()
    engine.shutdown_pool()


def test_worker_pool_shutdown_twice_and_reusable():
    pool = WorkerPool(2, _echo)
    assert pool.map([1, 2, 3]) == [2, 4, 6]
    pool.shutdown()
    pool.shutdown()  # double shutdown must not raise
    # A shut-down pool lazily respawns workers on the next map.
    assert pool.map([4]) == [8]
    pool.shutdown()


def _echo(x):
    return 2 * x


@pytest.mark.parametrize(
    "argv",
    [
        ["serve", "--engine-workers", "0"],
        ["serve", "--engine-workers", "-2"],
        ["warm", "fig22", "--workers", "0"],
        ["warm", "fig22", "--workers", "-2"],
    ],
    ids=["serve-0", "serve-negative", "warm-0", "warm-negative"],
)
def test_service_cli_rejects_worker_count_below_one(argv, tmp_path, capsys):
    calls = engine.unit_call_count()
    assert service_main([*argv, "--cache-dir", str(tmp_path / "cache")]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: 'workers' must be >= 1, got {argv[-1]}"]
    assert engine.unit_call_count() == calls


# ---------------------------------------------------------------------------
# The request surface under arbitrary bytes
# ---------------------------------------------------------------------------

_request_json = st.fixed_dictionaries(
    {"experiment": st.sampled_from(["fig16", "tables", "nope"])},
    optional={
        "scale": st.floats() | st.text(max_size=4),
        "base_seed": st.integers() | st.floats(),
        "params": st.dictionaries(st.text(max_size=4), st.floats() | st.text(max_size=4)),
        "backend": st.sampled_from(["fast", "legacy"]) | st.lists(st.integers(), max_size=2),
    },
)
_bodies = st.binary(max_size=64) | _request_json.map(lambda v: json.dumps(v).encode())


@st.composite
def _raw_requests(draw):
    """Bytes a client could send: noise, a campaign post, or a broken head."""
    mode = draw(st.sampled_from(["noise", "campaign", "head"]))
    if mode == "noise":
        return draw(st.binary(max_size=200))
    if mode == "campaign":
        body = draw(_bodies)
        return b"POST /campaign HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
    method = draw(st.sampled_from(["GET", "POST", "PUT"]) | st.text(max_size=5))
    path = draw(
        st.sampled_from(["/healthz", "/stats", "/campaign", "/result/" + "a" * 64, "/result/x"])
        | st.text(max_size=12).map(lambda t: "/" + t)
    )
    version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.0", ""]))
    body = draw(_bodies)
    length = st.just(str(len(body))) | st.integers(-5, 2 * MAX_BODY_BYTES).map(str)
    headers = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["Content-Length", "content-length ", "Host", "X"]),
                length | st.text(max_size=8),
            ),
            max_size=3,
        )
    )
    head = f"{method} {path} {version}\r\n"
    head += "".join(f"{name}:{value}\r\n" for name, value in headers) + "\r\n"
    return head.encode("utf-8") + body


class _Sink:
    """Stands in for the connection's StreamWriter."""

    def __init__(self):
        self.data = bytearray()

    def write(self, data):
        self.data += data

    async def drain(self):
        pass

    def close(self):
        pass

    async def wait_closed(self):
        pass


def _fed(raw):
    reader = asyncio.StreamReader()
    reader.feed_data(raw)
    reader.feed_eof()
    return reader


@settings(max_examples=300, deadline=None)
@given(raw=_raw_requests())
def test_head_parser_yields_a_request_or_a_4xx(raw):
    server = CampaignServer(store=None)

    async def parse():
        return await server._read_request(_fed(raw))

    try:
        method, path, body = asyncio.run(parse())
    except _BadRequest as exc:
        assert 400 <= exc.status < 500
    else:
        assert isinstance(method, str) and isinstance(path, str)
        assert len(body) <= MAX_BODY_BYTES


@pytest.fixture(scope="module")
def fuzz_server(tmp_path_factory):
    def compute(request):
        return json.dumps({"result": {"status": "ok"}}).encode(), True

    store = CacheStore(tmp_path_factory.mktemp("fuzz") / "cache", max_bytes=4096)
    store.ensure_writable()
    server = CampaignServer(store, compute=compute)
    yield server
    server._executor.shutdown(wait=True)


@settings(max_examples=200, deadline=None)
@given(raw=_raw_requests())
def test_any_request_bytes_are_answered_without_a_500(fuzz_server, raw):
    sink = _Sink()

    async def handle():
        await fuzz_server._handle(_fed(raw), sink)

    asyncio.run(handle())
    status = int(bytes(sink.data[9:12]))
    assert sink.data.startswith(b"HTTP/1.1 ") and status != 500
    assert status == 200 or 400 <= status < 500


# ---------------------------------------------------------------------------
# Multi-process stress: two servers and a cached runner on one capped root
# ---------------------------------------------------------------------------


def _spawn_server(root, max_bytes, env):
    """``python -m repro.service serve`` on an ephemeral port; (proc, url)."""
    cmd = [sys.executable, "-m", "repro.service", "serve", "--port", "0"]
    cmd += ["--cache-dir", str(root), "--max-bytes", str(max_bytes)]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    ready, _, _ = select.select([proc.stdout], [], [], 60)
    line = proc.stdout.readline().decode() if ready else ""
    if " on http://" not in line:
        proc.kill()
        raise RuntimeError(f"server did not start: {line!r}")
    # "serving campaigns on http://127.0.0.1:PORT (cache ...)"
    return proc, line.split(" on ", 1)[1].split()[0]


def _stop(proc):
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:  # pragma: no cover
            proc.kill()
            proc.wait(timeout=30)
    proc.stdout.close()


@pytest.mark.slow
def test_two_servers_and_a_runner_share_one_capped_root(tmp_path):
    root = tmp_path / "cache"
    cap = 6000  # about four entries: nearly every write evicts
    env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_CACHE_MAX_BYTES=str(cap))
    servers = [_spawn_server(root, cap, env) for _ in range(2)]
    try:
        cmd = [sys.executable, "-m", "repro.experiments.runner", "tables", "fig16"]
        cmd += ["--scale", "0.1", "--seed", "3", "--cache-dir", str(root)]
        runner = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        clients = [ServiceClient(url, timeout=60) for _, url in servers]
        requests = [
            {"experiment": experiment, "scale": 0.1, "base_seed": seed}
            for experiment in ("tables", "fig16")
            for seed in range(8)
        ]
        bodies, failures = {}, []
        lock = threading.Lock()

        def client_loop(worker):
            i = 0
            while i < 30 or runner.poll() is None:  # overlap the runner's writes
                i += 1
                response = clients[(worker + i) % 2].campaign(
                    requests[(7 * worker + 5 * i) % len(requests)]
                )
                with lock:
                    if response.status != 200:
                        failures.append((response.status, response.body[:200]))
                        continue
                    key = response.headers["x-cache-key"]
                    bodies.setdefault(key, set()).add(response.body)

        threads = [threading.Thread(target=client_loop, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        _, runner_err = runner.communicate(timeout=120)
        assert runner.returncode == 0, runner_err.decode()[-2000:]
        assert not any(t.is_alive() for t in threads)
        assert failures == []
        assert len(bodies) == len(requests)
        assert all(len(seen) == 1 for seen in bodies.values())
        evictions = sum(
            ServiceClient(url).stats().json()["store"]["evictions"] for _, url in servers
        )
        assert evictions > 0
    finally:
        for proc, _ in servers:
            _stop(proc)
    survivors = {p.stem: p.read_bytes() for p in root.glob("??/*.json")}
    assert 0 < sum(len(body) for body in survivors.values()) <= cap
    # Whoever wrote a surviving entry (either server or the runner), it
    # holds the bytes every server answered for that key.
    assert all(bodies[key] == {body} for key, body in survivors.items())
