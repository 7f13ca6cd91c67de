"""Fig. 18: 2D localization accuracy at the dock and boathouse."""

from repro.experiments.fig18_localization import (
    PAPER_FIG18,
    format_localization,
    run_localization_study,
)


def test_fig18_dock(rng, report):
    result = run_localization_study(rng, site="dock", num_layouts=8, rounds_per_layout=6)
    report(format_localization(result))

    # Paper: 0.9 m median / 3.2 m p95 at the dock.
    paper_median, paper_p95 = PAPER_FIG18["dock"]
    assert abs(result.overall.median - paper_median) < 0.6
    assert result.overall.p95 < 2.5 * paper_p95

    # Error grows with link distance to the leader.
    buckets = sorted(result.by_bucket.items())
    if len(buckets) >= 2:
        assert buckets[-1][1].median >= buckets[0][1].median - 0.3


def test_fig18_boathouse(rng, report):
    result = run_localization_study(
        rng, site="boathouse", num_layouts=8, rounds_per_layout=6
    )
    report(format_localization(result))

    # Paper: 1.6 m median / 4.9 m p95 — clearly worse than the dock.
    paper_median, _paper_p95 = PAPER_FIG18["boathouse"]
    assert abs(result.overall.median - paper_median) < 1.0
