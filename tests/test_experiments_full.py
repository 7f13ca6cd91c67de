"""Smoke tests for the heavier experiment harnesses (tiny sample sizes)."""

import numpy as np


class TestFig11Smoke:
    def test_sweep_returns_all_distances(self):
        from repro.experiments.fig11_ranging import run_ranging_sweep

        rng = np.random.default_rng(0)
        results = run_ranging_sweep(rng, distances_m=(10.0, 20.0), num_exchanges=3)
        assert [r.distance_m for r in results] == [10.0, 20.0]
        for r in results:
            assert r.errors_m.shape == (3,)

    def test_mic_ablation_rows(self):
        from repro.experiments.fig11_ranging import (
            format_mic_ablation,
            run_mic_ablation,
        )

        rng = np.random.default_rng(1)
        results = run_mic_ablation(rng, distances_m=(15.0,), num_exchanges=3)
        text = format_mic_ablation(results)
        assert "15 m" in text


class TestFig12Smoke:
    def test_detection_rates_bounded(self):
        from repro.experiments.fig12_baselines import run_detection_comparison

        rng = np.random.default_rng(2)
        results = run_detection_comparison(
            rng, thresholds_db=(6.0,), num_trials=4, distance_m=15.0
        )
        assert {r.detector for r in results} == {"ours", "fmcw"}
        for r in results:
            assert 0.0 <= r.false_positive <= 1.0
            assert 0.0 <= r.false_negative <= 1.0

    def test_baseline_ranging_all_algorithms(self):
        from repro.experiments.fig12_baselines import run_baseline_ranging

        rng = np.random.default_rng(3)
        results = run_baseline_ranging(rng, distances_m=(12.0,), num_exchanges=2)
        assert {r.algorithm for r in results} == {"ours", "beepbeep", "cat"}


class TestFig15Smoke:
    def test_track_follows_truth(self):
        from repro.experiments.fig15_motion import run_motion_tracking

        rng = np.random.default_rng(4)
        results = run_motion_tracking(rng, speeds_mps=(0.32,), duration_s=8.0)
        r = results[0]
        assert r.times_s.shape == r.true_distances_m.shape
        assert np.all(r.true_distances_m > 0)


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
