"""Core types of the invariant analyzer: findings, rules, module context.

A :class:`Rule` inspects one parsed module at a time through a
:class:`ModuleContext` — the AST plus everything a repo-specific check
needs to decide whether its contract even applies here: the dotted
module name (``repro.signals.ofdm``), the repo-relative path, the raw
source lines (for snippets and pragma scanning), and a lazily built
import-alias resolver (:mod:`repro.analysis.names`).

Rules register themselves into a process-wide registry at import time;
:func:`all_rules` returns them sorted by rule id so report ordering is
deterministic.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Tuple, Type

from repro.analysis.names import ImportMap

#: ``# repro: allow[XP001] reason`` / ``# repro: allow[XP001,RNG001] reason``.
#: The reason is mandatory: a suppression that cannot say why it exists
#: is indistinguishable from a silenced bug, so reasonless pragmas are
#: ignored (the finding stands) and reported as such.
PRAGMA_RE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_,\s]+)\]\s*(.*)$")


@dataclass(frozen=True)
class Finding:
    """One contract violation at one source location."""

    rule: str
    path: str  # repo-relative, forward slashes
    line: int  # 1-indexed
    message: str
    hint: str
    snippet: str = ""
    suppressed: bool = False
    suppression_reason: str = ""

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}"

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "hint": self.hint,
            "snippet": self.snippet,
        }
        if self.suppressed:
            out["suppressed"] = True
            out["suppression_reason"] = self.suppression_reason
        return out


@dataclass
class Pragma:
    """One parsed suppression comment."""

    line: int
    rules: Tuple[str, ...]
    reason: str

    def covers(self, rule_id: str) -> bool:
        return bool(self.reason.strip()) and rule_id in self.rules


def parse_pragmas(source_lines: Iterable[str]) -> Dict[int, Pragma]:
    """Extract ``# repro: allow[...]`` pragmas keyed by 1-indexed line."""
    pragmas: Dict[int, Pragma] = {}
    for lineno, text in enumerate(source_lines, start=1):
        match = PRAGMA_RE.search(text)
        if not match:
            continue
        rules = tuple(
            token.strip().upper() for token in match.group(1).split(",") if token.strip()
        )
        pragmas[lineno] = Pragma(line=lineno, rules=rules, reason=match.group(2).strip())
    return pragmas


@dataclass
class ModuleContext:
    """Everything a rule may consult about the module under analysis."""

    path: str  # repo-relative posix path, e.g. "src/repro/signals/ofdm.py"
    module: str  # dotted module name, e.g. "repro.signals.ofdm"
    tree: ast.Module
    source_lines: List[str] = field(default_factory=list)
    pragmas: Dict[int, Pragma] = field(default_factory=dict)

    @cached_property
    def imports(self) -> ImportMap:
        """Alias → canonical dotted-path resolver for this module."""
        return ImportMap.from_tree(self.tree)

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.source_lines):
            return self.source_lines[line - 1].strip()
        return ""

    def finding(self, rule: "Rule", node: ast.AST, message: str) -> Finding:
        """Build a finding for ``node``, applying any pragma on its line."""
        line = int(getattr(node, "lineno", 1))
        pragma = self.pragmas.get(line)
        suppressed = bool(pragma and pragma.covers(rule.id))
        return Finding(
            rule=rule.id,
            path=self.path,
            line=line,
            message=message,
            hint=rule.hint,
            snippet=self.snippet(line),
            suppressed=suppressed,
            suppression_reason=pragma.reason if suppressed and pragma else "",
        )


class Rule:
    """Base class: one contract, one id, one ``check`` over a module."""

    #: Stable identifier, e.g. ``"XP001"``.  Findings, pragmas and
    #: ``--rules`` all refer to rules by this id.
    id: str = ""
    #: One-line statement of the contract the rule protects.
    contract: str = ""
    #: One-line fix hint attached to every finding.
    hint: str = ""

    def applies_to(self, ctx: ModuleContext) -> bool:
        """Whether this rule's contract covers ``ctx`` at all."""
        return True

    def check(self, ctx: ModuleContext) -> List[Finding]:
        raise NotImplementedError

    def run(self, ctx: ModuleContext) -> List[Finding]:
        if not self.applies_to(ctx):
            return []
        return self.check(ctx)


_REGISTRY: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if cls.id in _REGISTRY and _REGISTRY[cls.id] is not cls:
        raise ValueError(f"duplicate rule id {cls.id!r}")
    _REGISTRY[cls.id] = cls
    return cls


def get_rule(rule_id: str) -> Rule:
    try:
        return _REGISTRY[rule_id.upper()]()
    except KeyError:
        raise KeyError(
            f"unknown rule {rule_id!r} (known: {', '.join(sorted(_REGISTRY))})"
        ) from None


def all_rules(only: Optional[Iterable[str]] = None) -> List[Rule]:
    """Instantiate the registered rules, sorted by id.

    ``only`` restricts to a subset of rule ids; unknown ids raise
    ``KeyError`` (the CLI maps that to a usage error, exit code 2).
    """
    # Importing the rule modules is what populates the registry.
    import repro.analysis.rules_det  # noqa: F401
    import repro.analysis.rules_dtype  # noqa: F401
    import repro.analysis.rules_fft  # noqa: F401
    import repro.analysis.rules_rng  # noqa: F401

    if only is None:
        ids = sorted(_REGISTRY)
    else:
        ids = [rule_id.upper() for rule_id in only]
    return [get_rule(rule_id) for rule_id in ids]


def qualname_stack(tree: ast.Module) -> Dict[ast.AST, str]:
    """Map every function/class def node to its dotted qualname.

    ``BatchExchangeRenderer.add`` style — enough to express the
    "sanctioned draw sites" lists of the RNG draw-order contract.
    """
    out: Dict[ast.AST, str] = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qual = f"{prefix}.{child.name}" if prefix else child.name
                out[child] = qual
                visit(child, qual)
            else:
                visit(child, prefix)

    visit(tree, "")
    return out
