"""Smoke tests for the heavier experiment harnesses (tiny sample sizes)."""

import numpy as np


class TestFig11Smoke:
    def test_sweep_returns_all_distances(self):
        from repro.experiments.fig11_ranging import DISTANCES_M, campaign

        rng = np.random.default_rng(0)
        raw = campaign(rng, num_exchanges=3, ablation_exchanges=1)
        assert [d for d, _ in raw["sweep"]] == list(DISTANCES_M)
        for _, errors in raw["sweep"]:
            assert errors.shape == (3,)

    def test_mic_ablation_rows(self):
        from repro.experiments.fig11_ranging import campaign

        rng = np.random.default_rng(1)
        raw = campaign(rng, num_exchanges=1, ablation_exchanges=3)
        for _, errs in raw["ablation"]:
            assert {k: v.shape for k, v in errs.items()} == {
                "both": (3,),
                "bottom": (3,),
                "top": (3,),
            }
        text = campaign.spec.summarize(raw).report
        assert "45 m -> " in text.split("Fig. 11b")[1]


class TestFig12Smoke:
    def test_detection_rates_bounded(self):
        from repro.experiments.fig12_baselines import campaign

        rng = np.random.default_rng(2)
        raw = campaign(rng, num_trials=4, num_exchanges=1)
        detection = campaign.spec.summarize(raw).measured["detection"]
        assert {key.split("@")[0] for key in detection} == {"ours", "fmcw"}
        for rates in detection.values():
            assert 0.0 <= rates["false_positive"] <= 1.0
            assert 0.0 <= rates["false_negative"] <= 1.0

    def test_baseline_ranging_all_algorithms(self):
        from repro.experiments.fig12_baselines import campaign

        rng = np.random.default_rng(3)
        raw = campaign(rng, num_trials=1, num_exchanges=2)
        measured = campaign.spec.summarize(raw).measured
        assert set(measured["mean_error_m"]) == {"ours", "beepbeep", "cat"}


class TestFig15Smoke:
    def test_track_follows_truth(self):
        from repro.experiments.fig15_motion import campaign

        rng = np.random.default_rng(4)
        raw = campaign(rng, duration_s=8.0)
        for _speed, times, true_d, _est_d in raw["tracks"]:
            assert times.shape == true_d.shape == (8,)
            assert np.all(true_d > 0)


class TestFig18Smoke:
    def test_study_buckets(self):
        from repro.experiments.fig18_localization import (
            format_localization,
            run_localization_study,
        )

        rng = np.random.default_rng(5)
        result = run_localization_study(
            rng, site="dock", num_layouts=2, rounds_per_layout=2
        )
        assert result.overall.count > 0
        text = format_localization(result)
        assert "dock" in text and "median" in text


class TestFig19Smoke:
    def test_removal_study_fields(self):
        from repro.experiments.fig19_robustness import (
            format_removal,
            run_removal_study,
        )

        rng = np.random.default_rng(6)
        result = run_removal_study(rng, num_layouts=2, rounds_per_layout=2)
        text = format_removal(result)
        assert "fully connected" in text
        assert result.node_dropped.count > 0


class TestFig20Smoke:
    def test_mobility_summaries_present(self):
        from repro.experiments.fig20_mobility import run_mobility_study

        rng = np.random.default_rng(7)
        result = run_mobility_study(rng, moving_device=1, num_rounds=3)
        assert 1 in result.moving_summaries
        assert result.moving_summaries[1].count > 0


class TestRunnerRegistry:
    def test_all_experiments_registered(self):
        from repro.experiments import engine

        expected = {
            "fig6",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "fig15",
            "fig16",
            "fig18",
            "fig19",
            "fig20",
            "fig22",
            "tables",
            # Beyond-paper extension: large-fleet DES campaigns.
            "fleet",
        }
        assert set(engine.registry()) == expected

    def test_unknown_experiment_rejected(self):
        from repro.experiments.runner import main

        assert main(["not_a_figure"]) == 2

    def test_runner_executes_cheap_experiment(self, capsys):
        from repro.experiments.runner import main

        assert main(["fig16"]) == 0
        out = capsys.readouterr().out
        assert "paper 5.0" in out
