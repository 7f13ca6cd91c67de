"""Fig. 13: device-depth effect on ranging + depth-sensor accuracy."""

import numpy as np
import pytest

from repro.experiments.fig13_depth import campaign


@pytest.fixture(scope="module")
def output():
    """The registered entry, run once for both studies."""
    return campaign.spec.summarize(
        campaign(np.random.default_rng(2023), readings_per_depth=40)
    )


def test_fig13a_depth_sweep(output, report):
    report(output.report)
    by_depth = {
        depth: r["median"] for depth, r in output.measured["ranging_by_depth"].items()
    }

    # Paper: mid-column (5 m in a 9 m dock) is the cleanest depth —
    # multipath is strongest near the surface and the bottom.
    assert by_depth[5] <= min(by_depth[2], by_depth[8]) + 0.3


def test_fig13b_depth_sensors(output):
    sensors = output.measured["sensors"]

    # Paper: 0.15 +/- 0.11 m (watch) vs 0.42 +/- 0.18 m (phone).
    watch = sensors["smartwatch_depth_gauge"]["mean_abs_m"]
    phone = sensors["phone_pressure_sensor"]["mean_abs_m"]
    assert abs(watch - 0.15) < 0.1
    assert abs(phone - 0.42) < 0.2
    assert phone > watch
