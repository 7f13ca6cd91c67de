"""Fig. 12: detection robustness and ranging vs BeepBeep / CAT."""

import numpy as np
import pytest

from repro.experiments.fig12_baselines import campaign


@pytest.fixture(scope="module")
def output():
    """The registered entry, run once for both studies."""
    raw = campaign(np.random.default_rng(2023), num_trials=30, num_exchanges=20)
    return campaign.spec.summarize(raw)


def test_fig12a_detection(output, report):
    report(output.report)
    detection = output.measured["detection"]
    ours = detection["ours@3dB"]
    fmcw = [rates for key, rates in detection.items() if key.startswith("fmcw@")]

    # Our detector: low FP and FN simultaneously. The power-threshold
    # baseline cannot achieve both anywhere on its threshold sweep
    # (paper Fig. 12a).
    assert ours["false_positive"] <= 0.1
    assert ours["false_negative"] <= 0.2
    assert all(r["false_positive"] > 0.2 or r["false_negative"] > 0.2 for r in fmcw)


def test_fig12b_baseline_ranging(output):
    by_algo = {
        algorithm: list(by_distance.values())
        for algorithm, by_distance in output.measured["mean_error_m"].items()
    }

    # Who wins: ours beats both baselines on average (paper Fig. 12b).
    assert np.nanmean(by_algo["ours"]) < np.nanmean(by_algo["beepbeep"])
    assert np.nanmean(by_algo["ours"]) < np.nanmean(by_algo["cat"])
