"""DET001 / ENV001 — nondeterminism and execution-knob isolation.

DET001: modules reachable from artifact-producing paths (the campaign
engine, figure entry points, the DES, service compute) must not consult
wall clocks, OS entropy, or interpreter identity — any of those makes
two runs of the same seed disagree, which breaks both the
serial-vs-parallel byte-parity contract and the content-addressable
cache (a key would no longer determine its bytes).  ``time.perf_counter``
/ ``time.monotonic`` are deliberately *not* flagged: they feed
diagnostic wall-time fields that are excluded from parity comparisons.

ENV001: execution knobs (worker counts, pipeline depth, FFT threading)
must never influence cache-keyed bytes (DESIGN.md §9: the cache key
deliberately excludes them).  The mechanical enforcement is choke-point
based: only the sanctioned knob-parsing helpers may read ``os.environ``
at all — everything else takes knob values as arguments, so a reviewer
can audit knob influence by reading two modules.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from repro.analysis.core import Finding, ModuleContext, Rule, register_rule

#: Canonical callables whose results differ run-to-run.
_NONDET_CALLS = {
    "time.time": "wall clock",
    "time.time_ns": "wall clock",
    "datetime.datetime.now": "wall clock",
    "datetime.datetime.utcnow": "wall clock",
    "datetime.datetime.today": "wall clock",
    "datetime.date.today": "wall clock",
    "os.urandom": "OS entropy",
    "uuid.uuid1": "host/time-derived UUID",
    "uuid.uuid4": "OS entropy",
    "secrets.token_bytes": "OS entropy",
    "secrets.token_hex": "OS entropy",
    "secrets.randbits": "OS entropy",
}

#: The stdlib ``random`` module is globally-seeded wall-clock-default
#: randomness; any call into it is flagged wholesale.
_STDLIB_RANDOM_PREFIX = "random."

#: Modules outside the artifact-producing cone: the serving front end,
#: load harness, and CLI measure latency (``time.monotonic``) and log
#: timestamps by design — their output is operational, not artifact
#: bytes.  The analyzer itself is tooling.
_DET_EXEMPT_PREFIXES = (
    "repro.service.server",
    "repro.service.replay",
    "repro.service.client",
    "repro.service.__main__",
    "repro.analysis",
)

#: The sanctioned ``os.environ`` choke points (ENV001): the defensive
#: knob parsers in batchcorr and the cache store's eviction budget.
_ENV_SANCTIONED_MODULES = {
    "repro.signals.batchcorr",
    "repro.service.store",
}


def _module_exempt(module: str, prefixes) -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".") for prefix in prefixes
    )


@register_rule
class NondeterminismRule(Rule):
    id = "DET001"
    contract = (
        "Artifact-producing paths are pure functions of their seeds: no wall "
        "clocks, OS entropy, or id()-keyed containers (DESIGN.md §6/§9)."
    )
    hint = (
        "thread the value in from the caller (seeded rng / explicit timestamp "
        "argument) or keep it in diagnostic-only fields"
    )

    def applies_to(self, ctx: ModuleContext) -> bool:
        return not _module_exempt(ctx.module, _DET_EXEMPT_PREFIXES)

    def check(self, ctx: ModuleContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                reason = self._call_reason(ctx, node)
                if reason is not None:
                    findings.append(ctx.finding(self, node, reason))
            elif isinstance(node, ast.Dict):
                for key in node.keys:
                    if key is not None and _is_id_call(key):
                        findings.append(
                            ctx.finding(
                                self,
                                key,
                                "id()-keyed dict: interpreter addresses vary per run",
                            )
                        )
            elif isinstance(node, ast.DictComp) and _is_id_call(node.key):
                findings.append(
                    ctx.finding(
                        self,
                        node.key,
                        "id()-keyed dict: interpreter addresses vary per run",
                    )
                )
            elif isinstance(node, ast.Subscript) and _is_id_call(node.slice):
                findings.append(
                    ctx.finding(
                        self,
                        node.slice,
                        "id()-keyed subscript: interpreter addresses vary per run",
                    )
                )
        return findings

    def _call_reason(self, ctx: ModuleContext, node: ast.Call) -> Optional[str]:
        dotted = ctx.imports.resolve(node.func)
        if dotted is None:
            return None
        if dotted in _NONDET_CALLS:
            return f"{dotted}() is {_NONDET_CALLS[dotted]} — nondeterministic"
        if dotted.startswith(_STDLIB_RANDOM_PREFIX) or dotted == "random":
            return f"stdlib {dotted}() uses the global entropy-seeded stream"
        return None


def _is_id_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "id"
    )


@register_rule
class EnvironReadRule(Rule):
    id = "ENV001"
    contract = (
        "os.environ is read only by the sanctioned knob helpers (batchcorr, "
        "store); knobs never shape cache-keyed bytes (DESIGN.md §9)."
    )
    hint = (
        "parse the knob through repro.signals.batchcorr.env_int/env_str (or "
        "take the value as a function argument)"
    )

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.module not in _ENV_SANCTIONED_MODULES and not ctx.module.startswith(
            "repro.analysis"
        )

    def check(self, ctx: ModuleContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                dotted = ctx.imports.resolve(node.func)
                if dotted == "os.getenv":
                    findings.append(
                        ctx.finding(self, node, "os.getenv() outside the knob helpers")
                    )
                    continue
            if isinstance(node, (ast.Attribute, ast.Name)):
                dotted = ctx.imports.resolve(node)
            else:
                dotted = None
            if dotted == "os.environ":
                findings.append(
                    ctx.finding(self, node, "os.environ access outside the knob helpers")
                )
        return findings
