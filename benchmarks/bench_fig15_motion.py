"""Fig. 15: 1D ranging of a continuously moving device."""

import numpy as np

from repro.experiments.fig15_motion import campaign


def test_fig15_motion_tracking(report):
    raw = campaign(np.random.default_rng(2023), duration_s=40.0)
    output = campaign.spec.summarize(raw)
    report(output.report)
    combined = output.measured["combined"]

    # Paper: 0.51 m median / 1.17 m p95 over both speeds — motion does
    # not break ranging. Allow generous slack; the shape claim is that
    # the error stays well under a metre at the median.
    assert combined["median"] < 1.0
    assert combined["p95"] < 3.0

    # Estimated track follows the true track.
    for _speed, _times, true_d, est_d in raw["tracks"]:
        mask = np.isfinite(est_d)
        corr = np.corrcoef(true_d[mask], est_d[mask])[0, 1]
        assert corr > 0.9
