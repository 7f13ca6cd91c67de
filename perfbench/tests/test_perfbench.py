"""Tests for the benchmark itself (not part of the repo's tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, hostspeed, run, trace, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- same seed, same inputs --------------------------------------------------


def test_service_trace_and_fillers_are_seeded():
    assert workloads.service_trace(7, 300) == workloads.service_trace(7, 300)
    assert workloads.service_trace(7, 300) != workloads.service_trace(8, 300)
    assert workloads.filler_entries(7, 50) == workloads.filler_entries(7, 50)
    assert workloads.filler_entries(7, 50) != workloads.filler_entries(8, 50)


def test_service_trace_has_a_seed_independent_zipf_shape():
    shapes = []
    for seed in (3, 4):
        trace = workloads.service_trace(seed, 600)
        keys = [json.dumps(r, sort_keys=True) for r in trace]
        counts = sorted((keys.count(k) for k in set(keys)), reverse=True)
        assert len(trace) == 600 and len(counts) == 100
        assert counts[0] > 10 * counts[len(counts) // 2]  # a hot head
        shapes.append((counts, sorted(r["experiment"] for r in trace)))
    assert shapes[0] == shapes[1]
    warm = {r["base_seed"] for r in workloads.warm_up_requests()}
    assert not warm & {r["base_seed"] for r in trace}


def test_pass_seeds_come_from_the_run_seed():
    seeds = workloads.FleetWorkload(7).pass_seeds
    assert seeds == workloads.FleetWorkload(7).pass_seeds
    assert seeds != workloads.FleetWorkload(8).pass_seeds
    assert len(set(seeds)) == len(seeds) == workloads.FleetWorkload.passes


def test_localization_replays_one_corpus_in_a_seeded_order():
    corpus = set(checks.load_reference()["localization"])
    orders = {tuple(workloads.LocalizationWorkload(seed).pass_seeds) for seed in range(1, 9)}
    assert all({str(s) for s in order} == corpus for order in orders)
    assert len(orders) > 1
    assert workloads.LocalizationWorkload(7).pass_seeds == workloads.LocalizationWorkload(7).pass_seeds


def test_committed_digests_are_those_of_the_default_run():
    reference = checks.load_reference()
    for name in ("localization", "fleet"):
        pass_seeds = workloads.CAMPAIGN_WORKLOADS[name](1).pass_seeds
        assert set(reference[name]) == {str(s) for s in pass_seeds}


# -- span arithmetic -----------------------------------------------------------


def test_self_times_on_synthetic_nested_spans_across_two_threads():
    a, b = 1, 2
    spans = [
        (1, 0, "root", a, 0.0, 10.0, None),
        (2, 1, "child", a, 1.0, 3.0, None),
        (3, 1, "child", a, 4.0, 8.0, None),
        (4, 3, "grandchild", a, 5.0, 6.0, None),
        (5, 0, "root", b, 2.0, 9.0, None),
        (6, 5, "child", b, 3.0, 4.0, None),
    ]
    own = trace.self_times(spans)
    assert own == {1: 4.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 6.0, 6: 1.0}
    # Overlap across threads never subtracts: thread b's root keeps 6 s.
    assert trace.root_time(spans, a, 0.0, 10.0) == 10.0
    assert trace.root_time(spans, b, 0.0, 5.0) == 3.0


def test_recorder_parents_follow_threads():
    recorder = trace.Recorder()
    inner = recorder.wrap("inner", lambda: time.sleep(0.01))
    outer = recorder.wrap("outer", lambda: inner())
    worker = threading.Thread(target=outer)
    worker.start()
    outer()
    worker.join(timeout=10)
    assert not worker.is_alive()
    spans = recorder.spans
    assert sorted(s[2] for s in spans) == ["inner", "inner", "outer", "outer"]
    by_id = {s[0]: s for s in spans}
    for span in spans:
        if span[2] == "inner":
            parent = by_id[span[1]]
            assert parent[2] == "outer" and parent[3] == span[3]
    metrics = {k: v for k, v in trace.self_times(spans).items()}
    outer_self = [metrics[s[0]] for s in spans if s[2] == "outer"]
    assert all(0 <= s < 0.01 for s in outer_self)


def test_install_rebinds_from_imports_and_undoes():
    import importlib

    # The package re-exports the function under the submodule's name.
    outliers = importlib.import_module("repro.localization.outliers")
    smacof_module = importlib.import_module("repro.localization.smacof")
    original = smacof_module.smacof
    recorder = trace.Recorder()
    undo = recorder.install([t for t in trace.TARGETS if t[0].startswith("localization.smacof")])
    try:
        assert outliers.smacof is smacof_module.smacof is not original
    finally:
        undo()
    assert outliers.smacof is smacof_module.smacof is original


# -- host-speed scaling ------------------------------------------------------------


def test_sampler_factor_uses_the_samples_inside_the_interval(tmp_path):
    ref = hostspeed.REFERENCE_KERNEL_S
    slow = 0.5**hostspeed.SENSITIVITY
    sampler = object.__new__(hostspeed.Sampler)  # no child process
    sampler.path = tmp_path / "samples.txt"
    # The kernel takes twice its reference time from t = 10 on.
    sampler.path.write_text("".join(f"{t} {ref * (2 if t >= 10 else 1)}\n" for t in range(20)))
    assert sampler.factor(0.0, 9.5) == pytest.approx(1.0)
    assert sampler.factor(10.0, 19.0) == pytest.approx(slow)
    assert slow < sampler.factor(5.0, 15.0) < 1.0


def test_sampler_child_writes_samples_and_stops(tmp_path):
    sampler = hostspeed.Sampler(tmp_path / "samples.txt")
    try:
        time.sleep(1.0)
    finally:
        sampler.stop()
    assert sampler.proc.returncode is not None
    rows = sampler.samples()
    assert len(rows) >= 5 and all(cpu > 0 for _, cpu in rows)


# -- output checks reject perturbed outputs ------------------------------------


def _ranging_measured():
    from repro.experiments.fast_contract import TOLERANCES

    return {
        figure: {key: {"ours": 1.0, "other": 2.0} for key in keys}
        for figure, keys in TOLERANCES["float64"].items()
    }


def test_ranging_check_rejects_a_drifted_leaf():
    reference = _ranging_measured()
    assert checks.check_ranging(reference, copy.deepcopy(reference)) == []
    drifted = copy.deepcopy(reference)
    drifted["fig11"]["median_by_distance"]["ours"] += 5.0
    assert any("fig11.median_by_distance" in v for v in checks.check_ranging(reference, drifted))
    missing = copy.deepcopy(reference)
    del missing["fig22"]
    assert checks.check_ranging(reference, missing)


GOOD_LOCALIZATION = {
    "fig6": {
        "fig6a": {"0": 1.0, "1": 2.0, "2": 3.0},
        "fig6b": {"3": 2.0, "8": 1.5},
        "fig6c": {"0": 2.0, "20": 4.0},
        "fig6d": {"0": 1.5, "3": 5.0},
    },
    "fig18/dock": {
        "median": 0.8, "p95": 3.0,
        "by_bucket": {"0-10": {"median": 0.5}, "15-25": {"median": 1.0}},
    },
    "fig18/boathouse": {"median": 1.4, "p95": 4.0},
    "fig19": {
        "removal": {
            "fully_connected": {"median": 0.5, "p95": 2.5},
            "link_dropped": {"median": 0.7, "p95": 2.6},
            "node_dropped": {"median": 0.5, "p95": 2.0},
        },
        "occlusion": {
            "detection_drop_rate": 0.3,
            "with_detection": {"median": 1.0, "p95": 3.0},
            "without_detection": {"median": 1.0, "p95": 3.5},
        },
    },
    "fig20/device1": {"moving_device": 1, "moving_median_m": {"1": 0.4}, "static_median_m": {"1": 0.3}},
    "fig20/device2": {"moving_device": 2, "moving_median_m": {"2": 0.9}, "static_median_m": {"2": 0.5}},
}


@pytest.mark.parametrize(
    "path, value",
    [
        (("fig6", "fig6a", "2"), 0.5),
        (("fig6", "fig6d", "3"), float("nan")),
        (("fig18/dock", "median"), 2.5),
        (("fig18/boathouse", "median"), 3.7),
        (("fig18/dock", "p95"), 0.1),
        (("fig19", "removal", "node_dropped", "median"), 2.1),
        (("fig19", "occlusion", "with_detection", "p95"), 250.0),
        (("fig19", "occlusion", "detection_drop_rate"), 1.5),
        (("fig19", "removal", "fully_connected", "median"), float("nan")),
        (("fig20/device2", "moving_median_m", "2"), float("nan")),
        (("fig20/device1", "static_median_m", "1"), -0.5),
    ],
)
def test_localization_check_rejects_a_perturbed_output(path, value):
    from repro.experiments.fig18_localization import PAPER_FIG18

    assert checks.check_localization(GOOD_LOCALIZATION, PAPER_FIG18) == []
    bad = copy.deepcopy(GOOD_LOCALIZATION)
    node = bad
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    assert checks.check_localization(bad, PAPER_FIG18)


def test_localization_check_accepts_an_unlocalized_link_drop():
    from repro.experiments.fig18_localization import PAPER_FIG18

    unlocalized = copy.deepcopy(GOOD_LOCALIZATION)
    unlocalized["fig19"]["removal"]["link_dropped"] = {"median": None, "p95": None}
    assert checks.check_localization(unlocalized, PAPER_FIG18) == []
    unlocalized["fig19"]["removal"]["link_dropped"]["p95"] = 2.0
    assert checks.check_localization(unlocalized, PAPER_FIG18)


GOOD_FLEET = {
    "num_devices": 4000, "rounds": 2, "mean_active": 3896.5, "mean_coverage": 0.35,
    "mean_direct_reports": 358.0, "mean_relayed_reports": 1018.0, "mean_unreachable": 2519.5,
    "total_collisions": 16294, "total_tx_attempts": 7793, "churn_leaves": 207, "churn_joins": 0,
    "mean_energy_j_per_round": 1746.4, "max_energy_j_per_round": 1757.6,
}


@pytest.mark.parametrize(
    "key, value",
    [("rounds", 1), ("mean_coverage", 1.2), ("mean_relayed_reports", 1019.0), ("total_tx_attempts", 0)],
)
def test_fleet_check_rejects_a_perturbed_summary(key, value):
    assert checks.check_fleet(GOOD_FLEET, 4000, 2) == []
    assert checks.check_fleet({**GOOD_FLEET, key: value}, 4000, 2)


def test_digest_check_rejects_changed_bytes(monkeypatch):
    bodies = [b'{"a":1}', b'{"b":2}']
    monkeypatch.setattr(checks, "load_reference", lambda: {"fleet": {"1": checks.digest(bodies)}})
    assert checks.check_digest("fleet", 1, bodies) == []
    assert checks.check_digest("fleet", 1, [b'{"a":1}', b'{"b":3}'])
    assert checks.check_digest("fleet", 2, [b"anything"]) == []  # no reference for seed 2


def test_service_check_rejects_bad_replies():
    ok = SimpleNamespace(key="k1", status=200, body=b"x")
    assert checks.check_service([ok, ok]) == []
    assert len(checks.check_service([ok, SimpleNamespace(key="k1", status=200, body=b"y")])) == 1
    assert len(checks.check_service([ok, SimpleNamespace(key="k2", status=500, body=b"x")])) == 1
    assert len(checks.check_service([ok, None])) == 1


# -- metric names ----------------------------------------------------------------


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == ["ranging", "localization", "fleet", "service"]
    names = [m["name"] for kind in ("workloads", "end_to_end", "per_layer") for m in SPEC[kind]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"} and 0 < metric["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in SPEC["end_to_end"]
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


def test_metric_names_match_benchmark_json():
    e2e = run.end_to_end([1.0, 2.0, 1.5], [3.0, 5.0], 4, 100.0)
    assert list(e2e) == [m["name"] for m in SPEC["end_to_end"]]
    layers = trace.layer_metrics([])
    assert {m["name"] for m in SPEC["per_layer"]} <= set(layers)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ranging", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env=env,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout

