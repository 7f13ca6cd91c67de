"""Determinism invariant analyzer: the repo's contracts as static analysis.

The reproduction's headline property — byte-identical artifacts across
serial / parallel / pipelined / cached execution — rests on a handful of
hand-maintained conventions:

* all randomness flows from ``SeedSequence`` substreams in a pinned draw
  order (DESIGN.md §6/§8),
* FFT bindings route through the :mod:`repro.signals.xp` facade (§11),
* kernel dtypes come from an ``ArrayContext`` so the float32 tier is
  never silently upcast (§11),
* cache-keyed compute never reads execution knobs or wall clocks (§9).

Nothing in Python stops a new call site from violating any of these; the
failure only surfaces (if at all) as a parity-test mismatch far from the
offending line.  This package turns the contracts into an AST lint
engine (stdlib ``ast``, no new dependencies) with a rule registry,
inline suppression pragmas (``# repro: allow[RULE] reason``) as the one
way to excuse a finding, and a CLI whose exit status is the verdict::

    PYTHONPATH=src python -m repro.analysis

Rule catalog (see DESIGN.md §12 for the full contract rationale):

========  ===========================================================
XP001     direct ``scipy.fft`` / ``np.fft`` use outside the facade
RNG001    legacy ``np.random.*`` API / seedless ``default_rng()``
RNG002    RNG draws outside Phase-A sites in pipelined modules
DET001    wall-clock / entropy sources in artifact-producing paths
ENV001    ``os.environ`` reads outside the sanctioned knob helpers
DTYPE001  dtype literals / upcasts in float32-tier kernel modules
========  ===========================================================
"""

from repro.analysis.core import (
    Finding,
    ModuleContext,
    Rule,
    all_rules,
    get_rule,
    register_rule,
)
from repro.analysis.engine import AnalysisReport, analyze_paths

__all__ = [
    "Finding",
    "ModuleContext",
    "Rule",
    "AnalysisReport",
    "all_rules",
    "analyze_paths",
    "get_rule",
    "register_rule",
]
