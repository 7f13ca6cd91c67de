"""Fig. 22 (appendix): per-subcarrier SNR at 10/20/28 m."""

from repro.experiments.fig22_snr import format_snr, run_snr_measurement


def test_fig22_snr(rng, report):
    profiles = run_snr_measurement(rng)
    report(format_snr(profiles))
    medians = {int(p.distance_m): p.median_snr_db for p in profiles}

    # Shape: SNR decreases with distance; usable SNR (> 0 dB median)
    # at every evaluated range (paper Fig. 22).
    assert medians[10] > medians[28]
    assert medians[28] > 0.0
