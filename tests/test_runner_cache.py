"""Runner ``--cache-dir``: cache-through CLI campaigns + clean failures.

The offline runner and the HTTP service share one store format and one
key scheme, so a campaign warmed by either is a hit for the other.
The bugfix satellite: an unusable ``--cache-dir`` exits non-zero with
an actionable message *before* any compute starts, instead of crashing
mid-campaign.
"""

import json
import re

from repro.experiments import engine, fig22_snr, runner
from repro.service.cachekey import UnitRequest
from repro.service.compute import cached_unit
from repro.service.store import CacheStore

ARGS = ["fig22", "--scale", "0.1", "--backend", "batch"]


def test_unwritable_cache_dir_exits_cleanly(tmp_path, capsys):
    blocker = tmp_path / "a-file"
    blocker.write_text("not a directory")
    code = runner.main(ARGS + ["--cache-dir", str(blocker / "cache")])
    captured = capsys.readouterr()
    assert code == 2
    assert "not a writable directory" in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_cached_run_writes_then_hits(tmp_path, capsys):
    cache = tmp_path / "cache"
    first_json = tmp_path / "first.json"
    second_json = tmp_path / "second.json"

    assert runner.main(ARGS + ["--cache-dir", str(cache), "--json", str(first_json)]) == 0
    assert "done from cache" not in capsys.readouterr().out
    calls_after_first = engine.unit_call_count()

    assert runner.main(ARGS + ["--cache-dir", str(cache), "--json", str(second_json)]) == 0
    assert "done from cache" in capsys.readouterr().out
    assert engine.unit_call_count() == calls_after_first, (
        "second run must be served entirely from the cache"
    )
    assert first_json.read_bytes() == second_json.read_bytes()


def test_cached_artifact_matches_uncached_artifact(tmp_path, capsys):
    # fig16 (not fig22): its measured output contains integral floats
    # like 5.0, which the *key* canonicalization collapses to 5 — the
    # regression this test pins is that body encoding must NOT, or the
    # cache-served artifact flips float fields to ints.
    args = ["fig16", "--scale", "0.1"]
    cached_json = tmp_path / "cached.json"
    plain_json = tmp_path / "plain.json"
    assert runner.main(
        args + ["--cache-dir", str(tmp_path / "cache"), "--json", str(cached_json)]
    ) == 0
    assert runner.main(args + ["--json", str(plain_json)]) == 0
    capsys.readouterr()
    assert re.search(rb"\d\.0[,\s\]}]", plain_json.read_bytes()), (
        "fig16 must keep exercising the integral-float case"
    )
    assert cached_json.read_bytes() == plain_json.read_bytes()


def test_runner_cache_shared_with_service_store(tmp_path, capsys):
    """A unit warmed via the service API is a hit for the CLI (and back)."""
    cache = tmp_path / "cache"
    store = CacheStore(cache)
    store.ensure_writable()
    request = UnitRequest(
        experiment="fig22", scale=0.1, backend="batch"
    )
    _, _, hit = cached_unit(store, request)
    assert not hit
    calls = engine.unit_call_count()
    assert runner.main(ARGS + ["--cache-dir", str(cache)]) == 0
    capsys.readouterr()
    assert engine.unit_call_count() == calls


def test_cached_run_with_sweep_addresses_units(tmp_path, capsys):
    cache = tmp_path / "cache"
    sweep_args = [
        "fig22",
        "--scale",
        "0.1",
        "--sweep",
        "num_symbols=2,3",
        "--cache-dir",
        str(cache),
    ]
    assert runner.main(sweep_args) == 0
    store = CacheStore(cache)
    assert store.entry_count() == 2, "each sweep point is its own cache unit"
    calls = engine.unit_call_count()
    assert runner.main(sweep_args) == 0
    capsys.readouterr()
    assert engine.unit_call_count() == calls


def test_failed_unit_not_cached(tmp_path, monkeypatch):
    store = CacheStore(tmp_path / "cache")
    store.ensure_writable()
    # An entry that raises makes the unit complete with status="error"
    # (the engine catches the exception); that body must be served but
    # never stored.
    def exploding(*args, **kwargs):
        raise RuntimeError("kernel exploded")

    monkeypatch.setattr(fig22_snr, "run_snr_measurement", exploding)
    request = UnitRequest(experiment="fig22", scale=0.1)
    key, body, hit = cached_unit(store, request)
    assert not hit
    assert json.loads(body)["result"]["status"] == "error"
    assert store.get(key) is None, "error units must not be cached"
    assert store.entry_count() == 0
