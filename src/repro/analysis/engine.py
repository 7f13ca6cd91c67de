"""Analysis driver: walk files, parse once, run every applicable rule.

Rules never read the filesystem themselves: this module builds one
:class:`~repro.analysis.core.ModuleContext` per file (AST + source
lines + pragmas + import map) and hands it to each registered rule.
Findings whose line carries a covering pragma are split out as
*suppressed* — still visible in reports (with their reasons) but not
gate failures.

Paths are reported repo-root-relative with forward slashes so reports
are stable across checkouts and platforms.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from repro.analysis.core import Finding, ModuleContext, Rule, all_rules, parse_pragmas

#: Directory names never descended into.
_SKIP_DIRS = {"__pycache__", ".git"}


def module_name_for(path: Path) -> str:
    """Dotted module name for ``path`` (``.../src/repro/a/b.py`` → ``repro.a.b``).

    Falls back to the stem for paths outside a ``src`` layout (synthetic
    test files), so rules scoped by module name simply do not fire there
    unless the test names the module explicitly.
    """
    parts = list(path.with_suffix("").parts)
    if "src" in parts:
        parts = parts[parts.index("src") + 1 :]
    elif "repro" in parts:
        parts = parts[parts.index("repro") :]
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def build_context(
    source: str, *, path: str, module: Optional[str] = None
) -> ModuleContext:
    tree = ast.parse(source, filename=path)
    lines = source.splitlines()
    return ModuleContext(
        path=path,
        module=module if module is not None else module_name_for(Path(path)),
        tree=tree,
        source_lines=lines,
        pragmas=parse_pragmas(lines),
    )


@dataclass
class AnalysisReport:
    """Everything one analysis run produced."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    parse_errors: List[str] = field(default_factory=list)
    rules: List[str] = field(default_factory=list)

    def counts_by_rule(self) -> Dict[str, int]:
        out: Dict[str, int] = {rule: 0 for rule in self.rules}
        for finding in self.findings:
            out[finding.rule] = out.get(finding.rule, 0) + 1
        return out

    def suppressed_by_rule(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for finding in self.suppressed:
            out[finding.rule] = out.get(finding.rule, 0) + 1
        return out


def iter_python_files(paths: Iterable[Path]) -> List[Path]:
    files: List[Path] = []
    for path in paths:
        if path.is_file() and path.suffix == ".py":
            files.append(path)
        elif path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    files.append(candidate)
    return files


def analyze_paths(
    paths: Sequence[Path],
    *,
    root: Path,
    rules: Optional[Sequence[Rule]] = None,
) -> AnalysisReport:
    """Analyze every ``.py`` file under ``paths``; report root-relative."""
    active = list(rules) if rules is not None else all_rules()
    report = AnalysisReport(rules=[rule.id for rule in active])
    root = root.resolve()
    for file_path in iter_python_files(paths):
        resolved = file_path.resolve()
        try:
            rel = resolved.relative_to(root).as_posix()
        except ValueError:
            rel = resolved.as_posix()
        try:
            source = resolved.read_text()
            ctx = build_context(source, path=rel)
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            report.parse_errors.append(f"{rel}: {exc}")
            continue
        _run_rules(active, ctx, report)
        report.files_scanned += 1
    return report


def _run_rules(rules: Sequence[Rule], ctx: ModuleContext, report: AnalysisReport) -> None:
    for rule in rules:
        for finding in rule.run(ctx):
            if finding.suppressed:
                report.suppressed.append(finding)
            else:
                report.findings.append(finding)
    report.findings.sort(key=lambda f: (f.path, f.line, f.rule))
    report.suppressed.sort(key=lambda f: (f.path, f.line, f.rule))
