"""Tests for the campaign engine: registry, seeding, parallelism, artifacts."""

import json
import warnings

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
from repro.experiments.runner import _parse_sweep, main

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

    @pytest.mark.parametrize("workers", [0, -2])
    def test_worker_count_below_one_raises(self, workers):
        calls = engine.unit_call_count()
        with pytest.raises(ValueError, match="'workers' must be >= 1"):
            run_campaign(["tables"], workers=workers)
        with pytest.raises(ValueError, match="'workers' must be >= 1"):
            engine.run_unit("tables", workers=workers)
        assert engine.unit_call_count() == calls  # rejected before dispatch

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
            assert "peak_rss_mb" not in entry
            json.dumps(entry)  # strict-JSON clean

    def test_timing_is_opt_in(self):
        results = run_campaign(["fig16"], scale=0.2)
        timed = campaign_to_dict(results, include_timing=True)
        assert "wall_time_s" in timed["experiments"][0]
        assert timed["experiments"][0]["peak_rss_mb"] > 0
        assert "peak_rss_mb" not in json.dumps(engine.unit_to_dict(results[0]))

    def test_merged_peak_rss_is_the_max_over_chunks(self, monkeypatch):
        # In process, each chunk reads the peak once, when it ends.
        peaks = iter([3.0, 1.0])
        monkeypatch.setattr(engine, "peak_rss_mb", lambda: next(peaks))
        (result,) = run_campaign(["fig14"], scale=0.05, trial_chunks=2)
        assert result.peak_rss_mb == 3.0


class TestTrialChunks:
    CHUNKED = ["fig11", "fig12", "fig13", "fig14", "fig15"]

    def test_chunks_without_trials_run_clean(self):
        # At scale 0.02 every study has 1-4 trials, so most of the five
        # chunks hold none; an empty chunk is never summarised alone.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            results = run_campaign(self.CHUNKED, scale=0.02, trial_chunks=5, backend="fast")
        assert [(r.experiment, r.status, r.error) for r in results] == [
            (name, "ok", None) for name in self.CHUNKED
        ]

    def test_merge_raw_rule(self):
        raws = [
            {"d": [(10.0, np.array([[1.0], [2.0]]))], "n": 2, "flag": True, "th": (3.0,)},
            {"d": [(10.0, np.array([[3.0, 4.0], [5.0, 6.0]]))], "n": 5, "flag": True, "th": (3.0,)},
        ]
        merged = engine.merge_raw(raws)
        assert merged["d"][0][0] == 10.0
        np.testing.assert_array_equal(merged["d"][0][1], [[1.0, 3.0, 4.0], [2.0, 5.0, 6.0]])
        assert merged["n"] == 7 and merged["flag"] is True and merged["th"] == (3.0,)
        assert isinstance(merged["d"][0], tuple) and isinstance(merged["th"], tuple)

    @pytest.mark.parametrize(
        "first, second, match",
        [
            ({"a": 1}, {"a": 1, "b": 2}, "keys"),
            ([1], [1, 2], "length"),
            ((10.0,), (20.0,), "disagree on 10.0"),
            ([False], [True], "disagree on False"),
            ([1], [1.5], "mix types"),
        ],
    )
    def test_merge_raw_rejects_misaligned_chunks(self, first, second, match):
        with pytest.raises(ValueError, match=match):
            engine.merge_raw([first, second])

    def test_misaligned_chunks_become_an_error_unit(self, monkeypatch):
        spec = engine.ExperimentSpec(
            name="probe",
            title="chunk label probe",
            paper_ref="-",
            module=__name__,
            entry="_label_by_chunk",
            summarize=lambda raw: engine.ExperimentOutput(measured=raw),
        )
        monkeypatch.setitem(engine._REGISTRY, "probe", spec)
        (result,) = run_campaign(["probe"], trial_chunks=2)
        assert result.status == "error" and "disagree on 'chunk 0'" in result.error
        (whole,) = run_campaign(["probe"])
        assert (whole.status, whole.measured) == ("ok", {"label": "whole"})


def _label_by_chunk(rng, *, scale=1.0, chunk=None):
    """A raw whose label differs per chunk, so chunks never merge."""
    return {"label": "whole" if chunk is None else f"chunk {chunk[0]}"}


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
            (["--workers", "0"], "'workers' must be >= 1"),
            (["--workers", "-2"], "'workers' must be >= 1"),
        ],
        ids=[
            "trial-chunks-0",
            "seed-negative",
            "scale-0",
            "scale-negative",
            "scale-inf",
            "workers-0",
            "workers-negative",
        ],
    )
    def test_out_of_range_request_exits_2(self, flags, message, capsys):
        assert main(["tables", *flags]) == 2
        out = capsys.readouterr().out
        assert message in out and "Traceback" not in out

    @pytest.mark.parametrize("where", ["missing-parent", "directory"])
    def test_unwritable_json_exits_2_before_compute(self, where, tmp_path, monkeypatch, capsys):
        import repro.experiments.runner as runner

        def no_compute(*args, **kwargs):
            raise AssertionError("the campaign ran before --json was checked")

        monkeypatch.setattr(runner, "run_campaign", no_compute)
        path = tmp_path / "missing" / "out.json" if where == "missing-parent" else tmp_path
        assert main(["tables", "--json", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error: --json" in err and "Traceback" not in err
        assert not (tmp_path / "missing").exists()

    def test_timing_records_peak_rss_with_workers(self, tmp_path):
        path = tmp_path / "timed.json"
        args = ["fig14", "--scale", "0.05", "--seed", "5", "--trial-chunks", "2"]
        assert main(args + ["--workers", "2", "--timing", "--json", str(path)]) == 0
        (entry,) = json.loads(path.read_text())["experiments"]
        assert entry["status"] == "ok"
        assert entry["wall_time_s"] > 0 and entry["peak_rss_mb"] > 0

    def test_bad_sweep_exits_2(self, capsys):
        assert main(["fig16", "--sweep", "nonsense"]) == 2

    def test_parse_sweep_casts_values(self):
        assert _parse_sweep(None) == {}
        assert _parse_sweep(["site=dock,boathouse", "n=4,5", "eps=0.5"]) == {
            "site": ["dock", "boathouse"],
            "n": [4, 5],
            "eps": [0.5],
        }

    @pytest.mark.parametrize(
        "entries, message",
        [
            (["site=dock", "site=boathouse"], "given twice"),
            (["=1"], "expects key=v1,v2"),
            (["site="], "expects key=v1,v2"),
        ],
    )
    def test_parse_sweep_rejects_repeated_and_empty_keys(self, entries, message):
        with pytest.raises(ValueError, match=message):
            _parse_sweep(entries)

    @pytest.mark.parametrize(
        "sweep_args",
        [
            ["--sweep", "site=dock", "--sweep", "site=boathouse"],
            ["--sweep", "=1"],
        ],
    )
    def test_bad_sweep_key_exits_2_before_compute(self, sweep_args, monkeypatch, capsys):
        import repro.experiments.runner as runner

        def no_compute(*args, **kwargs):
            raise AssertionError("the campaign ran before --sweep was checked")

        monkeypatch.setattr(runner, "run_campaign", no_compute)
        assert main(["fig18", *sweep_args]) == 2
        assert "--sweep" in capsys.readouterr().out

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
