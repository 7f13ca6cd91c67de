"""Fig. 16: human leader-orientation accuracy."""

from repro.experiments.fig16_pointing import (
    PAPER_MEAN_POINTING_DEG,
    format_pointing,
    overall_mean_deg,
    run_pointing_study,
)


def test_fig16_pointing(rng, report):
    results = run_pointing_study(rng, trials_per_point=30)
    report(format_pointing(results))
    mean = overall_mean_deg(results)

    # Paper: 5.0 degrees across users and distances.
    assert abs(mean - PAPER_MEAN_POINTING_DEG) < 2.0
