"""The benchmark runner must fail loudly when a timed campaign raises.

Before PR 4, a figure whose campaign raised was silently missing from
the ``--json`` artifact, so the CI perf gate compared against an
incomplete file and could mask a broken backend.  Now the error lands
*in* the artifact and the process exits non-zero.
"""

import importlib.util
import json
import pathlib
import sys

import pytest

_ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench_module():
    spec = importlib.util.spec_from_file_location(
        "run_benchmarks", _ROOT / "benchmarks" / "run_benchmarks.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("run_benchmarks", module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def check_module():
    spec = importlib.util.spec_from_file_location(
        "check_regression", _ROOT / "benchmarks" / "check_regression.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_regression", module)
    spec.loader.exec_module(module)
    return module


def test_failing_figure_recorded_and_exit_nonzero(
    bench_module, tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(
        bench_module,
        "bench_figure",
        lambda name, scale: {"error": "backend 'fast' raised:\nboom"},
    )
    path = tmp_path / "bench.json"
    code = bench_module.main(
        [
            "--figures",
            "fig11",
            "--skip-kernels",
            "--skip-service",
            "--skip-fleet",
            "--json",
            str(path),
        ]
    )
    assert code == 1
    assert "FAILED figures: fig11" in capsys.readouterr().out
    doc = json.loads(path.read_text())
    assert "error" in doc["figures"]["fig11"]


def test_bench_figure_captures_backend_exception(bench_module, monkeypatch):
    from repro.experiments import engine

    real_spec = engine.get_spec("fig11")

    def entry(rng, scale, backend):
        raise RuntimeError("kernel exploded")

    monkeypatch.setattr(
        type(real_spec), "resolve_entry", lambda self: entry, raising=True
    )
    timings = bench_module.bench_figure("fig11", 0.1)
    assert "kernel exploded" in timings["error"]
    assert "speedup" not in timings


def test_healthy_figure_times_all_backends_and_precisions(bench_module):
    timings = bench_module.bench_figure("fig22", 0.5)
    assert set(timings) == {
        "legacy",
        "batch",
        "fast",
        "fast_float32",
        "batch_sequential",
        "speedup",
        "speedup_fast",
        "speedup_float32",
        "speedup_pipeline",
        "contract_float32",
    }
    assert timings["speedup"] > 0 and timings["speedup_fast"] > 0
    assert timings["speedup_pipeline"] > 0 and timings["speedup_float32"] > 0
    # The float32 run is gated against this run's own batch metrics.
    assert timings["contract_float32"] == []


def test_regression_gate_flags_errored_figure(check_module):
    baseline = {"figures": {"fig11": {"legacy": 1.0, "batch": 0.6, "speedup": 1.7}}}
    current = {"figures": {"fig11": {"error": "boom"}}}
    violations = check_module.check(baseline, current)
    assert violations and "errored" in violations[0]


def test_regression_gate_floors_and_baseline_ratio(check_module):
    baseline = {"figures": {"fig11": {"legacy": 1.0, "batch": 0.6, "speedup": 1.7}}}
    ok = {
        "figures": {
            "fig11": {"legacy": 1.0, "batch": 0.7, "speedup": 1.45, "speedup_fast": 2.1}
        }
    }
    assert check_module.check(baseline, ok) == []
    slow = {"figures": {"fig11": {"legacy": 1.0, "batch": 1.2, "speedup": 0.83}}}
    violations = check_module.check(baseline, slow)
    assert any("below" in v for v in violations)
    regressed = {"figures": {"fig11": {"legacy": 1.0, "batch": 0.9, "speedup": 1.1}}}
    violations = check_module.check(baseline, regressed)
    assert any("regressed" in v for v in violations)
    missing = {"figures": {}}
    assert any("missing" in v for v in check_module.check(baseline, missing))


def test_regression_gate_pipeline_floor(check_module):
    """The executor A/B has its own (looser) floor: a single-core host
    pays real thread contention, so ~1x is healthy, but a grossly
    regressed pipeline must fail."""
    baseline = {"figures": {"fig11": {"legacy": 1.0, "batch": 0.6, "speedup": 1.7}}}
    healthy = {
        "figures": {
            "fig11": {
                "legacy": 1.0,
                "batch": 0.7,
                "speedup": 1.45,
                "speedup_pipeline": 0.9,
            }
        }
    }
    assert check_module.check(baseline, healthy) == []
    bad = {
        "figures": {
            "fig11": {
                "legacy": 1.0,
                "batch": 0.7,
                "speedup": 1.45,
                "speedup_pipeline": 0.5,
            }
        }
    }
    violations = check_module.check(baseline, bad)
    assert any("pipeline" in v and "below" in v for v in violations)
    # A baseline that recorded the column also ratio-gates it.
    base2 = {
        "figures": {
            "fig11": {"legacy": 1.0, "batch": 0.6, "speedup": 1.7, "speedup_pipeline": 1.3}
        }
    }
    regressed = {
        "figures": {
            "fig11": {
                "legacy": 1.0,
                "batch": 0.7,
                "speedup": 1.45,
                "speedup_pipeline": 0.9,
            }
        }
    }
    violations = check_module.check(base2, regressed)
    assert any("pipeline" in v and "regressed" in v for v in violations)


def test_regression_gate_skips_timer_noise_figures(check_module):
    baseline = {"figures": {"fig22": {"legacy": 0.005, "batch": 0.004, "speedup": 1.4}}}
    tiny = {"figures": {"fig22": {"legacy": 0.004, "batch": 0.01, "speedup": 0.4}}}
    assert check_module.check(baseline, tiny, min_seconds=0.05) == []


def test_regression_gate_fails_on_ungated_new_figure(check_module):
    """Satellite: a figure only the current artifact knows about used to
    slip past the gate entirely (the loop iterated baseline figures)."""
    baseline = {"figures": {"fig11": {"legacy": 1.0, "batch": 0.6, "speedup": 1.7}}}
    current = {
        "figures": {
            "fig11": {"legacy": 1.0, "batch": 0.7, "speedup": 1.45},
            "fig99": {"legacy": 2.0, "batch": 0.2, "speedup": 10.0},
        }
    }
    violations = check_module.check(baseline, current)
    assert any("fig99" in v and "missing from the baseline" in v for v in violations)
    # Even a *slow* new figure is only reported, never speed-gated,
    # which is exactly why its absence from the baseline must fail.
    assert not any("fig99" in v and "below" in v for v in violations)
    assert check_module.check(baseline, current, allow_new_figures=True) == []
    # An *errored* new figure fails even on the introducing run.
    current["figures"]["fig99"] = {"error": "boom"}
    violations = check_module.check(baseline, current, allow_new_figures=True)
    assert any("fig99" in v and "errored" in v for v in violations)


def _float32_figures(speedups):
    return {
        "figures": {
            name: {
                "legacy": 1.0,
                "batch": 0.6,
                "speedup": 1.7,
                "speedup_float32": s,
            }
            for name, s in speedups.items()
        }
    }


def test_regression_gate_float32_counts_heavy_figures(check_module):
    baseline = _float32_figures({})
    healthy = _float32_figures(
        {"fig11": 1.5, "fig12": 1.4, "fig13": 1.35, "fig14": 1.2, "fig15": 1.45}
    )
    assert check_module.check(baseline, healthy, allow_new_figures=True) == []
    # Only two of five clear the floor: the tier regressed.
    slow = _float32_figures(
        {"fig11": 1.5, "fig12": 1.1, "fig13": 1.0, "fig14": 1.2, "fig15": 1.45}
    )
    violations = check_module.check(baseline, slow, allow_new_figures=True)
    assert any("float32" in v and "need 3" in v for v in violations)
    # Artifacts that predate the precision column are not float32-gated.
    old = {"figures": {"fig11": {"legacy": 1.0, "batch": 0.6, "speedup": 1.7}}}
    assert check_module.check(baseline, old, allow_new_figures=True) == []


def test_contract_violations_fail_even_with_skip_env(
    check_module, tmp_path, capsys, monkeypatch
):
    """A float32 statistical-contract break is a correctness failure:
    BENCH_REGRESSION_SKIP=1 silences perf noise, never wrong metrics."""
    doc = _float32_figures(
        {"fig11": 1.5, "fig12": 1.4, "fig13": 1.35, "fig14": 1.2, "fig15": 1.45}
    )
    baseline = tmp_path / "base.json"
    current = tmp_path / "cur.json"
    baseline.write_text(json.dumps(doc))
    doc["figures"]["fig11"]["contract_float32"] = [
        "fig11.median_by_distance.10: |0.4 - 9.8| = 9.4 > 0.75"
    ]
    current.write_text(json.dumps(doc))
    argv = ["--baseline", str(baseline), "--current", str(current)]
    monkeypatch.setenv("BENCH_REGRESSION_SKIP", "1")
    assert check_module.main(argv) == 1
    out = capsys.readouterr().out
    assert "correctness" in out
    # Without the contract rows the same env var downgrades the gate.
    doc["figures"]["fig11"]["contract_float32"] = []
    doc["figures"]["fig12"]["speedup_float32"] = 0.5
    doc["figures"]["fig13"]["speedup_float32"] = 0.5
    doc["figures"]["fig14"]["speedup_float32"] = 0.5
    current.write_text(json.dumps(doc))
    assert check_module.main(argv) == 0
    assert "reporting only" in capsys.readouterr().out


def test_regression_gate_allow_new_figures_cli_flag(check_module, tmp_path, capsys):
    baseline = tmp_path / "base.json"
    current = tmp_path / "cur.json"
    baseline.write_text(json.dumps({"figures": {}}))
    current.write_text(
        json.dumps({"figures": {"fig99": {"legacy": 2.0, "batch": 1.0, "speedup": 2.0}}})
    )
    argv = ["--baseline", str(baseline), "--current", str(current)]
    assert check_module.main(argv) == 1
    assert "missing from the baseline" in capsys.readouterr().out
    assert check_module.main(argv + ["--allow-new-figures"]) == 0
    assert "new figure" in capsys.readouterr().out
