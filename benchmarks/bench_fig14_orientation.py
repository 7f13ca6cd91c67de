"""Fig. 14: phone orientation and mixed phone models."""

import numpy as np
import pytest

from repro.experiments.fig14_orientation import campaign


@pytest.fixture(scope="module")
def output():
    """The registered entry, run once for both studies."""
    return campaign.spec.summarize(campaign(np.random.default_rng(2023)))


def test_fig14a_orientation(output, report):
    report(output.report)
    by_label = output.measured["orientation_median_m"]

    # Paper: medians span 0.54-1.25 m with facing best, upward worst.
    # Our channel reproduces the modest spread and that facing the peer
    # is at least as good as facing away; the upward case's ranking
    # deviates (see EXPERIMENTS.md — at 20 m the surface-bounce
    # departure angle is nearly horizontal, so speaker directivity
    # cannot starve the direct path the way the real pouch does).
    assert by_label["facing (az 0)"] <= by_label["az 180"]
    assert max(by_label.values()) < 3.0


def test_fig14b_model_pairs(output):
    medians = output.measured["model_pair_median_m"]

    # All pairs work; medians stay within the same regime (paper
    # Fig. 14b shows no catastrophic model dependence).
    assert max(medians.values()) < 3.0
