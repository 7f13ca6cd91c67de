"""Experiment harness: one module per paper figure/table.

Every module registers a campaign entry with ``engine`` and records
what the paper reported in ``PAPER_*`` constants, so the runner and the
``benchmarks/`` shape checks can print paper-vs-measured rows. Figs.
11-15 are reached only through that entry; the other modules also
expose ``run_*`` functions returning plain result objects. See
DESIGN.md section 4 for the full experiment index.
"""

from repro.experiments.metrics import summarize_errors, ErrorSummary

__all__ = [
    "summarize_errors",
    "ErrorSummary",
]
