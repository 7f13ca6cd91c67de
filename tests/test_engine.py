"""Tests for the campaign engine: registry, seeding, parallelism, artifacts."""

import json

import numpy as np
import pytest

from repro.experiments import engine
from repro.experiments.engine import (
    CANONICAL_ORDER,
    campaign_to_dict,
    campaign_to_json,
    experiment_rng,
    experiment_seed_sequence,
    get_spec,
    jsonify,
    registry,
    run_campaign,
    sweep_variants,
    variant_seed_sequence,
)
from repro.experiments.runner import main

#: Cheap subset used wherever a real campaign must run.
CHEAP = ["fig16", "fig22", "tables"]


class TestRegistry:
    def test_all_canonical_experiments_registered(self):
        specs = registry()
        assert list(specs) == list(CANONICAL_ORDER)
        for spec in specs.values():
            assert spec.title and spec.paper_ref
            assert spec.cost in {"cheap", "moderate", "heavy"}
            assert spec.paper, f"{spec.name} has no paper reference numbers"

    def test_entry_points_resolve(self):
        for spec in registry().values():
            assert callable(spec.resolve_entry())

    def test_declared_variants(self):
        assert [v.name for v in get_spec("fig18").variants] == ["dock", "boathouse"]
        assert [v.name for v in get_spec("fig20").variants] == ["device1", "device2"]


class TestSeeding:
    def test_substreams_differ_between_experiments(self):
        a = experiment_rng("fig16", base_seed=7).random(4)
        b = experiment_rng("fig22", base_seed=7).random(4)
        assert not np.allclose(a, b)

    def test_substream_depends_only_on_name_and_seed(self):
        first = experiment_seed_sequence("fig18", base_seed=11)
        again = experiment_seed_sequence("fig18", base_seed=11)
        assert first.spawn_key == again.spawn_key
        assert np.array_equal(
            first.generate_state(4), again.generate_state(4)
        )

    def test_variant_substreams_differ(self):
        dock = variant_seed_sequence("fig18", "dock")
        boat = variant_seed_sequence("fig18", "boathouse")
        assert dock.spawn_key != boat.spawn_key
        assert not np.array_equal(dock.generate_state(4), boat.generate_state(4))

    def test_adhoc_variant_seed_is_stable(self):
        one = variant_seed_sequence("fig18", "site=lake")
        two = variant_seed_sequence("fig18", "site=lake")
        assert one.spawn_key == two.spawn_key


class TestSweepVariants:
    def test_cartesian_product(self):
        variants = sweep_variants({"site": ["dock", "boathouse"], "n": [4, 5]})
        assert [v.name for v in variants] == [
            "site=dock,n=4",
            "site=dock,n=5",
            "site=boathouse,n=4",
            "site=boathouse,n=5",
        ]
        assert dict(variants[-1].params) == {"site": "boathouse", "n": 5}

    def test_empty_grid_is_default(self):
        assert [v.name for v in sweep_variants({})] == ["default"]


class TestCampaign:
    def test_serial_matches_parallel_byte_identical(self):
        serial = run_campaign(CHEAP, base_seed=5, scale=0.1)
        parallel = run_campaign(CHEAP, base_seed=5, scale=0.1, workers=4)
        assert campaign_to_json(serial, base_seed=5) == campaign_to_json(
            parallel, base_seed=5
        )

    def test_subset_independent_of_other_experiments(self):
        full = run_campaign(CHEAP, base_seed=9, scale=0.1)
        alone = run_campaign(["fig22"], base_seed=9, scale=0.1)
        full_fig22 = next(r for r in full if r.experiment == "fig22")
        assert alone[0].to_dict() == full_fig22.to_dict()

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError, match="not_a_figure"):
            run_campaign(["not_a_figure"])

    def test_variants_expand_into_jobs(self):
        results = run_campaign(["fig20"], scale=0.05)
        assert [r.label for r in results] == ["fig20/device1", "fig20/device2"]
        assert results[0].params == {"moving_device": 1}

    def test_sweep_overrides_declared_variants(self):
        results = run_campaign(
            ["fig16"], scale=0.2, sweep={"trials_per_point": [2, 4]}
        )
        assert [r.variant for r in results] == [
            "trials_per_point=2",
            "trials_per_point=4",
        ]
        per_a, per_b = (r.measured["per_user_distance_deg"] for r in results)
        assert per_a != per_b

    def test_failing_experiment_reports_error(self, monkeypatch):
        spec = get_spec("fig16")
        monkeypatch.setitem(
            engine._REGISTRY,
            "fig16",
            engine.ExperimentSpec(
                name="fig16",
                title=spec.title,
                paper_ref=spec.paper_ref,
                paper=spec.paper,
                module=spec.module,
                entry="no_such_entry",
            ),
        )
        result = run_campaign(["fig16"])[0]
        assert result.status == "error"
        assert "no_such_entry" in result.error


class TestArtifacts:
    def test_jsonify_cleans_numpy_and_nan(self):
        raw = {
            np.float64(10.0): np.arange(3),
            "bad": float("nan"),
            "tuple": (1, np.int64(2)),
        }
        assert jsonify(raw) == {
            "10": [0, 1, 2],
            "bad": None,
            "tuple": [1, 2],
        }

    def test_artifact_has_paper_vs_measured_for_all(self):
        results = run_campaign(CHEAP, base_seed=3, scale=0.1)
        doc = campaign_to_dict(results, base_seed=3)
        assert doc["schema"] == "repro-campaign/2"
        assert doc["base_seed"] == 3
        assert doc["provenance"] == {
            "trial_chunks": 1,
            "backend": None,
            "precision": None,
        }
        assert [e["experiment"] for e in doc["experiments"]] == CHEAP
        for entry in doc["experiments"]:
            assert entry["status"] == "ok"
            assert entry["measured"] and entry["paper"]
            assert "wall_time_s" not in entry
            json.dumps(entry)  # strict-JSON clean

    def test_timing_is_opt_in(self):
        results = run_campaign(["fig16"], scale=0.2)
        timed = campaign_to_dict(results, include_timing=True)
        assert "wall_time_s" in timed["experiments"][0]


class TestRunnerCli:
    def test_unknown_experiment_exits_2(self, capsys):
        assert main(["not_a_figure"]) == 2
        assert "unknown experiment" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--trial-chunks", "0"], "'trial_chunks' must be >= 1"),
            (["--seed", "-5"], "'base_seed' must be non-negative"),
            (["--scale", "0"], "'scale' must be positive and finite"),
            (["--scale", "-1"], "'scale' must be positive and finite"),
            (["--scale", "inf"], "'scale' must be positive and finite"),
        ],
        ids=["trial-chunks-0", "seed-negative", "scale-0", "scale-negative", "scale-inf"],
    )
    def test_out_of_range_request_exits_2(self, flags, message, capsys):
        assert main(["tables", *flags]) == 2
        out = capsys.readouterr().out
        assert message in out and "Traceback" not in out

    def test_bad_sweep_exits_2(self, capsys):
        assert main(["fig16", "--sweep", "nonsense"]) == 2

    def test_list_registry(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in CANONICAL_ORDER:
            assert name in out

    def test_json_artifact_and_worker_equivalence(self, tmp_path, capsys):
        serial_path = tmp_path / "serial.json"
        parallel_path = tmp_path / "parallel.json"
        args = ["fig16", "fig22", "--scale", "0.2", "--seed", "17"]
        assert main(args + ["--json", str(serial_path)]) == 0
        assert main(args + ["--json", str(parallel_path), "--workers", "4"]) == 0
        assert serial_path.read_bytes() == parallel_path.read_bytes()
        doc = json.loads(serial_path.read_text())
        assert {e["experiment"] for e in doc["experiments"]} == {"fig16", "fig22"}
        for entry in doc["experiments"]:
            assert entry["paper"] and entry["measured"]
