"""Fig. 11: 1D ranging accuracy vs separation + dual-mic ablation."""

import numpy as np
import pytest

from repro.experiments.fig11_ranging import campaign


@pytest.fixture(scope="module")
def output():
    """The registered entry, run once for both studies."""
    return campaign.spec.summarize(campaign(np.random.default_rng(2023)))


def test_fig11a_ranging_cdf(output, report):
    report(output.report)
    medians = output.measured["median_by_distance"]
    # Shape: error grows with separation (paper: 0.48 -> 0.86 m).
    assert medians[45] > medians[10]


def test_fig11b_mic_ablation(output):
    # The joint estimator never loses badly to single mics, and at the
    # longest range it wins clearly (paper: up to 4.52 m at 45 m).
    last = output.measured["mic_p95"][45]
    assert last["both"] <= max(last["bottom"], last["top"])
