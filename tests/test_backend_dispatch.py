"""Backend dispatch: capability flags, CLI errors, artifact provenance.

The waveform-backend registry (``engine.WAVEFORM_BACKENDS``) is the
dispatch surface every engine plugs into; these tests pin its failure
modes: unknown backend names, fast/batch flags on experiments that do
not support a waveform backend (fig6, the tables), and the provenance
block that ties a campaign artifact to its backend and trial-chunk
count (a chunked run is a different, equally valid seeding scheme, so
the chunk count must be pinned in the artifact).
"""

import json

import pytest

from repro.experiments import engine
from repro.experiments.runner import main
from repro.signals.preamble import make_preamble
from repro.signals.xp import PRECISIONS
from repro.simulate.batch_exchange import BatchOneWay


class TestCheckBackend:
    def test_known_backends_pass(self):
        for backend in engine.WAVEFORM_BACKENDS:
            assert engine.check_backend(backend) == backend

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            engine.check_backend("turbo")

    def test_registry_is_batch_and_fast(self):
        # The per-exchange reference lives in tests/legacy_oracles.py,
        # not in the registry.
        assert tuple(engine.WAVEFORM_BACKENDS) == ("batch", "fast")
        for backend in ("legacy", ["batch"]):
            with pytest.raises(ValueError, match="unknown backend"):
                engine.check_backend(backend, precision="float64")

    def test_capability_flags_enforced(self):
        assert engine.check_backend("fast", "fig11") == "fast"
        for name in ("fig6", "tables", "fig18"):
            with pytest.raises(ValueError, match="does not support"):
                engine.check_backend("fast", name)

    def test_waveform_figures_declare_all_backends(self):
        for name in ("fig11", "fig12", "fig13", "fig14", "fig15", "fig22"):
            assert engine.get_spec(name).backends == tuple(engine.WAVEFORM_BACKENDS)

    def test_precision_pairs_validated(self):
        assert engine.check_backend("fast", precision="float32") == "fast"
        assert engine.check_backend("batch", precision="float64") == "batch"
        with pytest.raises(ValueError, match="does not support precision"):
            engine.check_backend("batch", precision="float32")
        with pytest.raises(ValueError, match="unknown precision"):
            engine.check_backend("fast", precision="float16")

    def test_register_rejects_unknown_capability(self):
        with pytest.raises(ValueError, match="unknown backend capability"):
            engine.register(
                name="bogus", title="x", paper_ref="x", backends=("warp",)
            )(lambda rng, scale: None)

    def test_run_campaign_rejects_unsupported_backend(self):
        with pytest.raises(ValueError, match="does not support"):
            engine.run_campaign(["fig6"], backend="fast", scale=0.05)


class TestRunnerCliBackend:
    def test_unknown_backend_exits_2(self, capsys):
        assert main(["fig11", "--backend", "turbo"]) == 2
        assert "unknown backend" in capsys.readouterr().out

    def test_legacy_backend_exits_2_naming_the_backends(self, capsys):
        calls = engine.unit_call_count()
        assert main(["fig11", "--backend", "legacy"]) == 2
        out = capsys.readouterr().out
        assert "unknown backend 'legacy'" in out and "batch, fast" in out
        assert engine.unit_call_count() == calls

    @pytest.mark.parametrize("values", ["legacy", "turbo,batch", "batch,legacy"])
    def test_bad_swept_backend_exits_2_before_any_unit(self, values, capsys):
        calls = engine.unit_call_count()
        assert main(["fig22", "--scale", "0.05", "--sweep", f"backend={values}"]) == 2
        assert "unknown backend" in capsys.readouterr().out
        assert engine.unit_call_count() == calls

    def test_swept_backend_checked_against_campaign_precision(self, capsys):
        # --precision float32 folds into every unit; the swept batch
        # point cannot carry it.
        argv = ["fig22", "--backend", "fast", "--precision", "float32"]
        assert main([*argv, "--sweep", "backend=fast,batch"]) == 2
        assert "does not support precision" in capsys.readouterr().out

    def test_fast_on_unsupporting_spec_exits_2(self, capsys):
        assert main(["fig6", "--backend", "fast"]) == 2
        out = capsys.readouterr().out
        assert "does not support" in out and "fig6" in out

    def test_fast_on_tables_exits_2(self, capsys):
        assert main(["tables", "--backend", "batch"]) == 2
        assert "does not support" in capsys.readouterr().out

    def test_mixed_selection_fails_before_running(self, capsys):
        # fig11 supports fast but the tables do not: the campaign must
        # be rejected up front rather than half-executed.
        assert main(["fig11", "tables", "--backend", "fast"]) == 2

    def test_float32_on_batch_backend_exits_2(self, capsys):
        assert main(["fig11", "--backend", "batch", "--precision", "float32"]) == 2
        assert "does not support precision" in capsys.readouterr().out

    def test_precision_without_backend_exits_2(self, capsys):
        assert main(["fig11", "--precision", "float32"]) == 2
        assert "requires --backend" in capsys.readouterr().out

    def test_unknown_precision_exits_2(self, capsys):
        assert main(["fig11", "--backend", "fast", "--precision", "half"]) == 2
        assert "unknown precision" in capsys.readouterr().out


class TestArtifactProvenance:
    def test_fast_backend_recorded(self, tmp_path, capsys):
        path = tmp_path / "fast.json"
        code = main(
            ["fig22", "--backend", "fast", "--scale", "0.5", "--json", str(path)]
        )
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["schema"] == "repro-campaign/2"
        assert doc["provenance"]["backend"] == "fast"
        assert doc["provenance"]["trial_chunks"] == 1
        entry = doc["experiments"][0]
        assert entry["status"] == "ok"
        assert entry["params"]["backend"] == "fast"

    def test_trial_chunks_pinned_for_fast_artifacts(self, tmp_path):
        path = tmp_path / "chunked.json"
        code = main(
            [
                "fig14",
                "--backend",
                "fast",
                "--scale",
                "0.08",
                "--trial-chunks",
                "3",
                "--json",
                str(path),
            ]
        )
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["provenance"] == {
            "trial_chunks": 3,
            "backend": "fast",
            "precision": None,
        }
        assert doc["experiments"][0]["status"] == "ok"

    def test_default_provenance_is_unchunked_no_backend(self, tmp_path):
        path = tmp_path / "default.json"
        assert main(["fig22", "--scale", "0.5", "--json", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["provenance"] == {
            "trial_chunks": 1,
            "backend": None,
            "precision": None,
        }
        # No campaign-level backend: the entry ran on its own default.
        assert "backend" not in doc["experiments"][0]["params"]

    def test_float32_precision_recorded(self, tmp_path):
        path = tmp_path / "f32.json"
        code = main(
            [
                "fig22",
                "--backend",
                "fast",
                "--precision",
                "float32",
                "--scale",
                "0.5",
                "--json",
                str(path),
            ]
        )
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["schema"] == "repro-campaign/2"
        assert doc["provenance"]["backend"] == "fast"
        assert doc["provenance"]["precision"] == "float32"
        entry = doc["experiments"][0]
        assert entry["status"] == "ok"
        assert entry["params"]["precision"] == "float32"


def _verdict(check):
    try:
        check()
    except ValueError as exc:
        return str(exc)
    return "ok"


#: Every known (backend, precision) pair, plus an unknown backend, a
#: non-string backend and an unknown precision.
_PAIRS = [(b, p) for b in engine.WAVEFORM_BACKENDS for p in PRECISIONS] + [
    ("turbo", "float64"),
    (["batch"], "float64"),
    ("fast", "float16"),
]


class TestBatchOneWayDispatch:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend 'legacy'"):
            BatchOneWay(make_preamble(), backend="legacy")

    @pytest.mark.parametrize("backend, precision", _PAIRS)
    def test_agrees_with_engine_check_backend(self, backend, precision):
        # One backend/precision table: the batched exchange and the
        # campaign engine accept and reject alike, with one message.
        preamble = make_preamble()
        by_engine = _verdict(lambda: engine.check_backend(backend, precision=precision))
        by_exchange = _verdict(
            lambda: BatchOneWay(preamble, backend=backend, pipeline=0, precision=precision)
        )
        assert by_exchange == by_engine
        known = backend in ("batch", "fast") and precision in PRECISIONS
        assert (by_engine == "ok") == (known and (backend, precision) != ("batch", "float32"))

    def test_float32_requires_fast_backend(self):
        with pytest.raises(ValueError, match="does not support precision"):
            BatchOneWay(make_preamble(), backend="batch", precision="float32")
        with pytest.raises(ValueError, match="unknown precision"):
            BatchOneWay(make_preamble(), backend="fast", precision="half")

    def test_swept_unknown_backend_rejected_before_any_unit(self):
        # A swept backend is validated with the rest of the plan, so a
        # bad sweep point fails the campaign up front instead of
        # running the good points and erroring the bad one.
        calls = engine.unit_call_count()
        with pytest.raises(ValueError, match="unknown backend 'warp'"):
            engine.run_campaign(
                ["fig22"], scale=0.5, sweep={"backend": ["batch", "warp"]}
            )
        with pytest.raises(ValueError, match="unknown backend 'warp'"):
            engine.plan_units(["fig22"], sweep={"backend": ["warp"]})
        assert engine.unit_call_count() == calls

    @pytest.mark.parametrize(
        "params, message",
        [
            ({"backend": "turbo"}, "unknown backend 'turbo'"),
            ({"precision": "float32"}, "backend 'batch' does not support precision"),
            ({"nonsense": 1}, "has no parameter 'nonsense'"),
            ({"pipeline": 0}, "has no parameter 'pipeline'"),
        ],
    )
    def test_run_unit_validates_explicit_params(self, params, message):
        calls = engine.unit_call_count()
        with pytest.raises(ValueError, match=message):
            engine.run_unit("fig22", params=params, scale=0.5)
        assert engine.unit_call_count() == calls

    def test_explicit_precision_with_explicit_fast_backend_passes(self):
        engine.check_units(
            [("fig22", "default", {"backend": "fast", "precision": "float32"})]
        )
        engine.check_units([("fig18", "dock", {"num_layouts": 2})])
