"""Fig. 19: erroneous links (occlusion) and link/node removal."""

from repro.experiments.fig19_robustness import (
    format_occlusion,
    format_removal,
    run_occlusion_study,
    run_removal_study,
)


def test_fig19a_occlusion(rng, report):
    result = run_occlusion_study(rng, num_layouts=8, rounds_per_layout=5)
    report(format_occlusion(result))

    # Paper: outlier detection trims the 90-100th percentile tail.
    assert result.tail_with.max() <= result.tail_without.max() + 0.5
    assert result.with_detection.p95 <= result.without_detection.p95 + 0.5
    # Algorithm 1 actually fires under occlusion.
    assert result.detection_drop_rate > 0.2


def test_fig19b_removal(rng, report):
    result = run_removal_study(rng, num_layouts=8, rounds_per_layout=5)
    report(format_removal(result))

    # Paper: medians stay comparable (0.9 vs 1.0 vs 0.8 m) while the
    # link-dropped tail grows (3.2 -> 6.2 m p95).
    assert abs(result.link_dropped.median - result.fully_connected.median) < 1.0
    assert abs(result.node_dropped.median - result.fully_connected.median) < 1.0
    assert result.link_dropped.p95 >= result.fully_connected.p95 - 0.5
