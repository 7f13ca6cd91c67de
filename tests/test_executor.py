"""Pipelined flush executor + persistent worker pool (PR 6).

Three contracts under test:

* **Pipeline parity** — flushing Phase B on a background thread at any
  depth produces bit-identical measurements and RNG states to fully
  synchronous flushing, for both the parity ``batch`` backend and the
  substream-driven ``fast`` backend.
* **Campaign byte-identity** — the JSON artifact of a chunked campaign
  is byte-identical across pipeline depths {off, 1, 2} (set only by
  ``REPRO_PIPELINE_DEPTH``) and worker counts {1, 4}; pool results
  cross the worker pipe pickled, arrays intact.
* **Failure semantics** — a worker death (SIGKILL) or stray
  ``SystemExit`` yields ``status="error"`` for the affected job only;
  the campaign completes and surviving jobs succeed on replacement
  workers.
"""

import inspect
import os
import signal
import warnings

import numpy as np
import pytest

from repro.channel.environment import DOCK
from repro.experiments import engine
from repro.experiments.pool import WorkerCrash, WorkerPool
from repro.signals.batchcorr import env_int, fft_workers
from repro.signals.preamble import make_preamble
from repro.simulate.batch_exchange import (
    BatchOneWay,
    pipeline_depth,
)
from repro.simulate.waveform_sim import ExchangeConfig

CHUNKED = ["fig11"]


# ---------------------------------------------------------------------------
# Pipelined flushing
# ---------------------------------------------------------------------------


def _run_one_way(backend, pipeline, trials=8, chunk=3, seed=1234):
    """A small sweep through BatchOneWay; returns results + RNG state."""
    rng = np.random.default_rng(seed)
    preamble = make_preamble()
    config = ExchangeConfig(environment=DOCK)
    sim = BatchOneWay(preamble, chunk=chunk, backend=backend, pipeline=pipeline)
    for i in range(trials):
        sim.add((0.0, 0.0, 2.0), (10.0 + i, 0.0, 2.0), config, rng)
    results = sim.run()
    return results, rng.bit_generator.state["state"]["state"]


@pytest.mark.parametrize("backend", ["batch", "fast"])
def test_pipeline_depths_bit_identical(backend):
    """Depths 0 (sync), 1 and 2 agree measurement-for-measurement."""
    base, base_state = _run_one_way(backend, pipeline=0)
    assert len(base) == 8
    for depth in (1, 2):
        got, state = _run_one_way(backend, pipeline=depth)
        assert state == base_state, f"RNG state diverged at depth {depth}"
        for a, b in zip(base, got):
            assert a.true_distance_m == b.true_distance_m
            assert a.detected == b.detected
            assert np.array_equal(
                a.estimated_distance_m, b.estimated_distance_m, equal_nan=True
            )


def test_pipeline_partial_chunk_flush():
    """Trial counts that don't divide the chunk size still all render."""
    results, _ = _run_one_way("batch", pipeline=2, trials=7, chunk=3)
    assert len(results) == 7


def test_pipeline_reusable_after_run():
    """A drained BatchOneWay accepts new trials (flusher restarts)."""
    rng = np.random.default_rng(7)
    preamble = make_preamble()
    config = ExchangeConfig(environment=DOCK)
    sim = BatchOneWay(preamble, chunk=2, backend="batch", pipeline=1)
    for _ in range(3):
        sim.add((0.0, 0.0, 2.0), (12.0, 0.0, 2.0), config, rng)
    assert len(sim.run()) == 3
    for _ in range(2):
        sim.add((0.0, 0.0, 2.0), (12.0, 0.0, 2.0), config, rng)
    assert len(sim.run()) == 2


def test_pipeline_depth_env_knob(monkeypatch):
    monkeypatch.delenv("REPRO_PIPELINE_DEPTH", raising=False)
    assert pipeline_depth() == 1
    monkeypatch.setenv("REPRO_PIPELINE_DEPTH", "3")
    assert pipeline_depth() == 3
    for off in ("off", "none", "FALSE", "0"):
        monkeypatch.setenv("REPRO_PIPELINE_DEPTH", off)
        assert pipeline_depth() == 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        monkeypatch.setenv("REPRO_PIPELINE_DEPTH", "banana")
        assert pipeline_depth() == 1  # junk falls back to the default


# ---------------------------------------------------------------------------
# Defensive env parsing (satellite bugfix)
# ---------------------------------------------------------------------------


def test_env_int_defensive(monkeypatch):
    monkeypatch.setenv("REPRO_TEST_KNOB", "12")
    assert env_int("REPRO_TEST_KNOB", 5) == 12
    monkeypatch.setenv("REPRO_TEST_KNOB", "  ")
    assert env_int("REPRO_TEST_KNOB", 5) == 5
    monkeypatch.setenv("REPRO_TEST_KNOB", "-3")
    assert env_int("REPRO_TEST_KNOB", 5, minimum=1) == 1


def test_fft_workers_auto_warns_once_and_falls_back(monkeypatch):
    from repro.signals.batchcorr import _ENV_WARNED

    _ENV_WARNED.discard(("REPRO_FFT_WORKERS", "auto"))
    monkeypatch.setenv("REPRO_FFT_WORKERS", "auto")
    with pytest.warns(RuntimeWarning, match="REPRO_FFT_WORKERS"):
        assert fft_workers() >= 1  # default, not a crash
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # second call must stay silent
        assert fft_workers() >= 1


def test_fft_workers_valid_env(monkeypatch):
    monkeypatch.setenv("REPRO_FFT_WORKERS", "2")
    assert fft_workers() == 2


# ---------------------------------------------------------------------------
# Worker pool
# ---------------------------------------------------------------------------


def _nested_arrays():
    """A result nesting a 1 MiB float64, a float32 and an int32 array."""
    rng = np.random.default_rng(11)
    return {
        "big": rng.standard_normal(1 << 17),
        "rows": [(rng.standard_normal((3, 5)).astype(np.float32), "label")],
        "ids": (np.arange(-4, 4, dtype=np.int32), 7),
    }


def _pool_runner(payload):
    """Module-level so forked/spawned workers can resolve it."""
    kind, value = payload
    if kind == "square":
        return value * value
    if kind == "arrays":
        return _nested_arrays()
    if kind == "sigkill":
        os.kill(os.getpid(), signal.SIGKILL)
    if kind == "exit":
        raise SystemExit(int(value))
    raise ValueError(f"bad payload {payload!r}")


def test_worker_pool_preserves_order_and_persists():
    pool = WorkerPool(2, _pool_runner)
    try:
        out = pool.map([("square", i) for i in range(7)])
        assert out == [i * i for i in range(7)]
        # Same workers serve a second map (persistent pool).
        pids = {w.proc.pid for w in pool._workers}
        assert pool.map([("square", 9)]) == [81]
        assert {w.proc.pid for w in pool._workers} == pids
    finally:
        pool.shutdown()


def test_worker_pool_returns_nested_arrays_intact():
    """Arrays nested in dicts, lists and tuples cross the pipe bit-exact."""
    want = _nested_arrays()
    assert want["big"].nbytes >= 1 << 20
    pool = WorkerPool(2, _pool_runner)
    try:
        (got,) = pool.map([("arrays", None)])
    finally:
        pool.shutdown()
    assert set(got) == set(want)
    assert isinstance(got["rows"], list) and isinstance(got["rows"][0], tuple)
    assert isinstance(got["ids"], tuple) and got["ids"][1] == 7
    assert got["rows"][0][1] == "label"
    pairs = [
        (got["big"], want["big"]),
        (got["rows"][0][0], want["rows"][0][0]),
        (got["ids"][0], want["ids"][0]),
    ]
    for have, expect in pairs:
        assert have.dtype == expect.dtype and have.shape == expect.shape
        assert have.tobytes() == expect.tobytes()


def test_worker_pool_sigkill_attribution():
    """A killed worker fails exactly its own job; the rest complete."""
    pool = WorkerPool(2, _pool_runner)
    try:
        jobs = [("square", 1), ("sigkill", 0)] + [("square", i) for i in range(2, 6)]
        out = pool.map(jobs)
        assert out[0] == 1
        assert isinstance(out[1], WorkerCrash)
        assert "died" in out[1].message
        assert out[2:] == [4, 9, 16, 25]
    finally:
        pool.shutdown()


def test_worker_pool_systemexit_keeps_worker():
    pool = WorkerPool(1, _pool_runner)
    try:
        out = pool.map([("square", 2), ("exit", 3), ("square", 4)])
        assert out[0] == 4
        assert isinstance(out[1], WorkerCrash)
        assert "SystemExit" in out[1].message
        assert out[2] == 16
        assert len(pool._workers) == 1  # same worker survived the SystemExit
    finally:
        pool.shutdown()


def test_worker_pool_budget_exhaustion_drains_as_errors():
    """Deaths past the respawn budget fail remaining jobs, never hang."""
    pool = WorkerPool(1, _pool_runner)
    try:
        out = pool.map([("sigkill", 0), ("sigkill", 0), ("square", 3), ("square", 4)])
        crashes = [o for o in out if isinstance(o, WorkerCrash)]
        # Budget of one respawn: two deaths exhaust the pool, and the
        # jobs that never ran drain as crashes instead of blocking.
        assert len(crashes) >= 2
        assert all(isinstance(o, (int, WorkerCrash)) for o in out)
    finally:
        pool.shutdown()


# ---------------------------------------------------------------------------
# Campaign integration
# ---------------------------------------------------------------------------


def _campaign_json(**kw):
    merged = dict(names=CHUNKED, base_seed=7, scale=0.1, trial_chunks=2, backend="fast")
    merged.update(kw)
    results = engine.run_campaign(
        merged.pop("names"),
        **{k: v for k, v in merged.items() if k != "names"},
    )
    return engine.campaign_to_json(
        results,
        base_seed=merged["base_seed"],
        trial_chunks=merged["trial_chunks"],
        backend=merged["backend"],
    )


@pytest.mark.slow
def test_campaign_byte_identical_across_executors(monkeypatch):
    """Serial == pipelined == parallel, bit for bit.

    Pool workers fork once and keep the environment they forked with,
    so every pool-backed case starts a fresh pool after setting depth.
    """

    def at_depth(depth, workers):
        if depth is None:
            monkeypatch.delenv("REPRO_PIPELINE_DEPTH", raising=False)
        else:
            monkeypatch.setenv("REPRO_PIPELINE_DEPTH", str(depth))
        if workers > 1:
            engine.shutdown_pool()
        return _campaign_json(workers=workers)

    try:
        baseline = at_depth(0, workers=1)
        assert at_depth(1, workers=1) == baseline
        assert at_depth(2, workers=1) == baseline
        assert at_depth(None, workers=4) == baseline
        assert at_depth(2, workers=4) == baseline
    finally:
        engine.shutdown_pool()


def test_no_entry_point_takes_a_pipeline_depth():
    """Flush depth is decided inside ``batch_exchange`` alone: no
    registered entry, engine entrypoint or service call can set it."""
    from repro.service.compute import cached_unit, compute_unit

    calls = [engine.run_unit, engine.run_campaign, compute_unit, cached_unit]
    calls += [spec.resolve_entry() for spec in engine.registry().values()]
    takers = [
        f"{f.__module__}.{f.__qualname__}"
        for f in calls
        if "pipeline" in inspect.signature(f).parameters
    ]
    assert not takers


def _crash_entry(rng, scale=1.0, mode="ok", **kwargs):
    if mode == "sigkill":
        os.kill(os.getpid(), signal.SIGKILL)
    if mode == "systemexit":
        raise SystemExit(3)
    return engine.ExperimentOutput(
        measured={"draw": float(rng.random())},
        report="ok",
        raw={"trials": np.arange(40_000, dtype=float)},
    )


@pytest.fixture
def crash_registry():
    """Register a synthetic experiment with killable variants."""
    engine.load_registry()
    spec = engine.ExperimentSpec(
        name="crashme",
        title="executor crash probe",
        paper_ref="-",
        module="test_executor",
        entry="_crash_entry",
        variants=(
            engine.Variant("ok"),
            engine.Variant("kill", {"mode": "sigkill"}),
            engine.Variant("exit", {"mode": "systemexit"}),
            engine.Variant("ok2"),
        ),
    )
    engine._REGISTRY["crashme"] = spec
    engine.shutdown_pool()  # force a fork that sees the patched registry
    yield spec
    engine._REGISTRY.pop("crashme", None)
    engine.shutdown_pool()


@pytest.mark.slow
def test_campaign_survives_worker_death(crash_registry):
    """SIGKILL and SystemExit error their own job; campaign completes."""
    results = engine.run_campaign(["crashme"], workers=2, base_seed=5)
    by_variant = {r.variant: r for r in results}
    assert by_variant["ok"].status == "ok"
    assert by_variant["ok2"].status == "ok"
    assert by_variant["kill"].status == "error"
    assert "died" in by_variant["kill"].error
    assert by_variant["exit"].status == "error"
    assert "SystemExit" in by_variant["exit"].error
    # Surviving results carry their arrays back over the worker pipe.
    trials = by_variant["ok"].raw["trials"]
    assert isinstance(trials, np.ndarray) and trials.shape == (40_000,)


@pytest.mark.slow
def test_failure_results_serialize_and_match_serial_seeding(crash_registry):
    """Error results carry the serial path's spawn keys and stay JSON-clean."""
    parallel = engine.run_campaign(["crashme"], workers=2, base_seed=5)
    by_variant = {r.variant: r for r in parallel}
    for variant in ("ok", "kill", "exit", "ok2"):
        # A worker-death result must use the exact spawn key _execute
        # would have recorded, so artifacts stay comparable to serial
        # runs of the surviving subset.
        expected = engine.variant_seed_sequence("crashme", variant, 5)
        assert by_variant[variant].spawn_key == tuple(
            int(k) for k in expected.spawn_key
        )
    doc = engine.campaign_to_dict(parallel, base_seed=5)
    statuses = {e["variant"]: e["status"] for e in doc["experiments"]}
    assert statuses == {"ok": "ok", "kill": "error", "exit": "error", "ok2": "ok"}
