"""Smoke + shape tests for the experiment harness (small sample sizes)."""

import numpy as np
import pytest

from repro.experiments.metrics import percentile_band, summarize_errors


class TestMetrics:
    def test_summary_statistics(self):
        s = summarize_errors([0.1, -0.2, 0.3, np.nan])
        assert s.count == 3
        assert s.median == pytest.approx(0.2)
        assert s.failure_rate == pytest.approx(0.25)

    def test_all_nan(self):
        s = summarize_errors([np.nan, np.nan])
        assert s.count == 0
        assert s.failure_rate == 1.0
        assert np.isnan(s.median)

    def test_median_and_p95(self):
        s = summarize_errors(np.linspace(0, 1, 101))
        assert s.median == pytest.approx(0.5)
        assert s.p95 == pytest.approx(0.95)

    def test_percentile_band(self):
        band = percentile_band(np.arange(100.0), 90, 100)
        assert band.min() >= 89.0
        assert band.max() == 99.0

    def test_percentile_band_sorted_finite_magnitudes(self):
        band = percentile_band([3.0, np.nan, -1.0, 2.0, 0.5], 0, 100)
        assert np.array_equal(band, [0.5, 1.0, 2.0, 3.0])

    def test_summary_is_sign_blind(self):
        rng = np.random.default_rng(0)
        errors = rng.normal(0.0, 1.0, 200)
        assert summarize_errors(errors) == summarize_errors(-errors)

    def test_str_format(self):
        s = summarize_errors([1.0, 2.0])
        assert "median" in str(s)


class TestFig6:
    def test_error_grows_with_ranging_noise(self):
        from repro.experiments.fig06_analytical import run_fig6a

        rng = np.random.default_rng(0)
        points = run_fig6a(rng, eps_1d_values=(0.0, 1.5), num_samples=25)
        assert points[0].mean_error_m < points[1].mean_error_m

    def test_error_grows_with_pointing_error(self):
        from repro.experiments.fig06_analytical import run_fig6c

        rng = np.random.default_rng(1)
        points = run_fig6c(rng, theta_values_deg=(0.0, 20.0), num_samples=25)
        assert points[0].mean_error_m < points[1].mean_error_m

    def test_format_sweep(self):
        from repro.experiments.fig06_analytical import (
            PAPER_FIG6A,
            format_sweep,
            run_fig6a,
        )

        rng = np.random.default_rng(2)
        points = run_fig6a(rng, eps_1d_values=(0.5,), num_samples=5)
        text = format_sweep("a", points, PAPER_FIG6A)
        assert "0.55" in text  # the paper reference value appears


class TestFig13Sensors:
    def test_watch_beats_phone(self):
        from repro.experiments.fig13_depth import run_depth_sensor_accuracy

        rng = np.random.default_rng(3)
        results = run_depth_sensor_accuracy(rng, readings_per_depth=20)
        by_name = {r.sensor: r for r in results}
        assert (
            by_name["smartwatch_depth_gauge"].mean_abs_error_m
            < by_name["phone_pressure_sensor"].mean_abs_error_m
        )

    def test_accuracy_near_paper(self):
        from repro.experiments.fig13_depth import run_depth_sensor_accuracy

        rng = np.random.default_rng(4)
        results = run_depth_sensor_accuracy(rng, readings_per_depth=40)
        by_name = {r.sensor: r for r in results}
        assert by_name["smartwatch_depth_gauge"].mean_abs_error_m == pytest.approx(
            0.15, abs=0.1
        )
        assert by_name["phone_pressure_sensor"].mean_abs_error_m == pytest.approx(
            0.42, abs=0.2
        )


class TestFig16:
    def test_mean_pointing_error_near_five_degrees(self):
        from repro.experiments.fig16_pointing import overall_mean_deg, run_pointing_study

        rng = np.random.default_rng(5)
        results = run_pointing_study(rng, trials_per_point=30)
        assert overall_mean_deg(results) == pytest.approx(5.0, abs=2.0)


class TestTables:
    def test_round_times_match_schedule(self):
        from repro.experiments.tables import run_round_times

        rng = np.random.default_rng(6)
        results = run_round_times(rng, device_counts=(3, 5), rounds_per_count=2)
        for r in results:
            assert r.measured_mean_s == pytest.approx(r.schedule_bound_s, abs=0.3)

    def test_round_times_increase_with_n(self):
        from repro.experiments.tables import run_round_times

        rng = np.random.default_rng(7)
        results = run_round_times(rng, device_counts=(3, 6), rounds_per_count=2)
        assert results[1].measured_mean_s > results[0].measured_mean_s

    def test_comm_latency_paper_row(self):
        from repro.experiments.tables import run_comm_latency

        latencies = run_comm_latency()
        assert latencies[6] == pytest.approx(0.87, abs=0.03)
        assert latencies[8] > latencies[6]

    def test_battery_watch_drains_faster(self):
        from repro.experiments.tables import run_battery_model

        results = run_battery_model()
        by_model = {r.model: r.battery_drop_fraction for r in results}
        assert by_model["apple_watch_ultra"] > by_model["samsung_s9"]
        assert by_model["apple_watch_ultra"] == pytest.approx(0.90, abs=0.1)
        assert by_model["samsung_s9"] == pytest.approx(0.63, abs=0.12)

    def test_flipping_more_voters_not_worse(self):
        from repro.experiments.tables import run_flipping_accuracy

        rng = np.random.default_rng(8)
        results = run_flipping_accuracy(rng, voter_counts=(1, 3), num_rounds=15)
        by_voters = {r.num_voters: r.accuracy for r in results}
        assert by_voters[3] >= by_voters[1] - 0.15
        assert by_voters[3] > 0.7


class TestFig22:
    def test_snr_decreases_with_distance(self):
        from repro.experiments.fig22_snr import run_snr_measurement

        rng = np.random.default_rng(9)
        profiles = run_snr_measurement(rng)
        medians = [p.median_snr_db for p in profiles]
        assert medians[0] > medians[-1]

    def test_profile_covers_band(self):
        from repro.experiments.fig22_snr import run_snr_measurement

        rng = np.random.default_rng(10)
        profiles = run_snr_measurement(rng, distances_m=(10.0,))
        freqs = profiles[0].frequencies_hz
        assert freqs.min() >= 1_000.0
        assert freqs.max() <= 5_000.0


class TestFig19Helpers:
    def test_subscenario_renumbers(self):
        from repro.experiments.fig19_robustness import _subscenario
        from repro.simulate.scenario import testbed_scenario

        rng = np.random.default_rng(11)
        scenario = testbed_scenario("dock", num_devices=5, rng=rng)
        sub = _subscenario(scenario, [0, 1, 3, 4])
        assert sub.num_devices == 4
        assert [d.device_id for d in sub.devices] == [0, 1, 2, 3]
        assert np.allclose(sub.devices[2].position, scenario.devices[3].position)
