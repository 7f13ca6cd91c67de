"""Fleet working-set gate: the traced peak of one fleet1k round.

Runs the ``fleet1k`` registry variant (1000 nodes with churn, mobility
and oscillator wander) at scale 0.5, which is one round, in this process
under :mod:`tracemalloc`, and fails when its traced peak exceeds 16 MB
(10**6 bytes).  The fleet stack is imported before tracing starts, so
module imports do not count.

A round's accepted receptions dominate the working set (about 180 k of
them here).  Kept as boxed Python ints and floats, first in per-round
lists and then in one ``{sender: local time}`` dict per node, they
pushed the peak to about 34 MB; held as unboxed columns and sorted into
one shared reception table (DESIGN.md §10) the peak is about 11 MB
(numpy 2.4, CPython 3.11).  A round that boxes its receptions again
crosses the limit.
"""

import tracemalloc

from repro.experiments import engine

LIMIT_MB = 16.0


def test_fleet1k_round_traced_peak_under_limit():
    engine.load_registry()
    tracemalloc.start()
    try:
        result = engine.run_unit("fleet", "fleet1k", scale=0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.status == "ok", result.error
    assert result.measured["rounds"] == 1
    assert peak / 1e6 <= LIMIT_MB, (
        f"fleet1k round traced peak {peak / 1e6:.1f} MB > {LIMIT_MB:g} MB"
    )
