"""Fig. 20: 2D localization with a moving device."""

from repro.experiments.fig20_mobility import format_mobility, run_mobility_study


def test_fig20_mobility(rng, report):
    result1 = run_mobility_study(rng, moving_device=1, num_rounds=20)
    result2 = run_mobility_study(rng, moving_device=2, num_rounds=20)
    report(format_mobility(result1))
    report(format_mobility(result2))

    for result in (result1, result2):
        mover = result.moving_device
        static_median = result.static_summaries[mover].median
        moving_median = result.moving_summaries[mover].median
        # Paper: motion increases the mover's error only modestly
        # (0.2 -> 0.3 m for user 1; 0.4 -> 0.8 m for user 2).
        assert moving_median < static_median + 1.5
