"""Shared fixtures of the paper-vs-measured benches.

Each ``bench_*`` module regenerates one table/figure of the paper: it
runs the experiment once, prints a paper-vs-measured comparison to the
terminal and asserts the paper's shape claims on the measured numbers.
Figs. 11-15 run their registered campaign entry. Timing lives in
``perfbench/``, not here.
"""

import numpy as np
import pytest


@pytest.fixture()
def rng():
    """Deterministic per-test randomness for reproducible benches."""
    return np.random.default_rng(2023)


@pytest.fixture()
def report(capsys):
    """Print experiment output even under pytest's capture."""

    def _report(text: str) -> None:
        with capsys.disabled():
            print("\n" + text)

    return _report
