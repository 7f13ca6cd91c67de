"""Fig. 6: analytical evaluation of topology-based localization.

Regenerates all four sweeps (error vs ranging error / #users /
pointing error / dropped links).
"""

from repro.experiments.fig06_analytical import (
    PAPER_FIG6A,
    PAPER_FIG6B,
    PAPER_FIG6C,
    PAPER_FIG6D,
    format_sweep,
    run_fig6a,
    run_fig6b,
    run_fig6c,
    run_fig6d,
)

SAMPLES = 60  # paper: 200; reduced for bench runtime, same shape


def test_fig6_sweeps(rng, report):
    a = run_fig6a(rng, num_samples=SAMPLES)
    b = run_fig6b(rng, num_samples=SAMPLES)
    c = run_fig6c(rng, num_samples=SAMPLES)
    d = run_fig6d(rng, num_samples=SAMPLES)
    report(
        "\n".join(
            [
                format_sweep("a", a, PAPER_FIG6A),
                format_sweep("b", b, PAPER_FIG6B),
                format_sweep("c", c, PAPER_FIG6C),
                format_sweep("d", d, PAPER_FIG6D),
            ]
        )
    )

    # Shape assertions: monotone trends as in the paper.
    assert a[-1].mean_error_m > a[0].mean_error_m
    assert c[-1].mean_error_m > c[0].mean_error_m
