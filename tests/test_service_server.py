"""The asyncio serving tier: routes, cache semantics, determinism proof.

The acceptance contract (ISSUE 7): two freshly started servers backed
by the same cache root serve byte-identical bodies for the same
request; a warm hit never invokes the engine (pinned against
``engine.unit_call_count``); failures surface as 4xx/5xx JSON, never
cached.  Plus the satellite: ``engine.shutdown_pool()`` is idempotent
and safe from the server's shutdown path.
"""

import json

import pytest

from repro.experiments import engine
from repro.experiments.pool import WorkerPool
from repro.service.client import ServiceClient
from repro.service.server import start_background
from repro.service.store import CacheStore

REQUEST = {"experiment": "fig22", "scale": 0.1, "backend": "batch"}


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
