"""Waveform working-set gate: the traced peak of fast fig12 at scale 1.

Runs one fast fig12 unit in this process under :mod:`tracemalloc` and
fails when its traced peak exceeds 80 MB (10**6 bytes).  numpy reports
every array allocation to tracemalloc, so the peak is the unit's array
working set and is reproducible for a given numpy/scipy build; the
waveform stack is imported before tracing starts, so module imports do
not count.

fig12's BeepBeep detection batch (about 120 streams of 26,460 samples)
was the largest single working set of the waveform tier: about 130 MB
traced while the stacked FFT kernels held whole-batch arrays, about
58 MB once they run in row blocks under ``repro.signals.xp.BLOCK_BYTES``
(numpy 2.4, scipy 1.17).  A kernel that stacks a whole batch again
pushes the peak past the limit.
"""

import tracemalloc

from repro.experiments import engine
from repro.signals.xp import get_context

LIMIT_MB = 80.0


def test_fast_fig12_traced_peak_under_limit():
    engine.load_registry()
    get_context("float64")
    tracemalloc.start()
    try:
        result = engine.run_unit("fig12", scale=1.0, backend="fast")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.status == "ok", result.error
    assert peak / 1e6 <= LIMIT_MB, f"fast fig12 traced peak {peak / 1e6:.1f} MB > {LIMIT_MB:g} MB"
