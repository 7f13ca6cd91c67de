"""Experiment harness: one module per paper figure/table.

Every module exposes ``run_*`` functions returning plain result objects
plus ``PAPER_*`` constants recording what the paper reported, so the
benchmark harness can print paper-vs-measured rows. See DESIGN.md
section 4 for the full experiment index.
"""

from repro.experiments.metrics import summarize_errors, ErrorSummary

__all__ = [
    "summarize_errors",
    "ErrorSummary",
]
