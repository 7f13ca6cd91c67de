"""CLI for the determinism invariant analyzer.

Usage::

    PYTHONPATH=src python -m repro.analysis [paths...]
        [--format text|json] [--rules XP001,RNG001] [--root DIR]
        [--list-rules]

Exit codes (pinned by tests/test_analysis.py) are the only verdict:

* ``0`` — clean: no findings outside a reasoned pragma,
* ``1`` — violations: findings or parse errors,
* ``2`` — usage error: unknown option or rule id, missing path.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.core import all_rules
from repro.analysis.engine import AnalysisReport, analyze_paths

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def _default_root() -> Path:
    """The repo root: three levels above this package in a src layout."""
    candidate = Path(__file__).resolve().parents[3]
    if (candidate / "src" / "repro").is_dir():
        return candidate
    return Path.cwd()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Statically enforce the repo's determinism contracts "
        "(RNG provenance/draw order, FFT facade, dtype hygiene, cache purity).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to analyze (default: <root>/src/repro)",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="repo root for relative reporting (default: auto-detected)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _print_text(report: AnalysisReport) -> None:
    for finding in report.findings:
        print(f"{finding.location}: {finding.rule} {finding.message}")
        print(f"    {finding.snippet}")
        print(f"    hint: {finding.hint}")
    counts = report.counts_by_rule()
    summary = ", ".join(f"{rule}={n}" for rule, n in sorted(counts.items()))
    print(
        f"{len(report.findings)} finding(s) across {report.files_scanned} file(s) "
        f"[{summary}]"
    )
    if report.suppressed:
        by_rule = report.suppressed_by_rule()
        detail = ", ".join(f"{rule}={n}" for rule, n in sorted(by_rule.items()))
        print(f"{len(report.suppressed)} suppressed by pragma [{detail}]")
    for error in report.parse_errors:
        print(f"parse error: {error}", file=sys.stderr)


def _as_json(report: AnalysisReport) -> dict:
    return {
        "schema": "repro-analysis-report/2",
        "files_scanned": report.files_scanned,
        "rules": report.rules,
        "counts": report.counts_by_rule(),
        "findings": [f.to_dict() for f in report.findings],
        "suppressed": [f.to_dict() for f in report.suppressed],
        "parse_errors": report.parse_errors,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        rule_ids = (
            [token.strip() for token in args.rules.split(",") if token.strip()]
            if args.rules
            else None
        )
        rules = all_rules(rule_ids)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE

    if args.list_rules:
        for rule in rules:
            print(f"{rule.id}: {rule.contract}")
        return EXIT_CLEAN

    root = (args.root or _default_root()).resolve()
    paths = [p if p.is_absolute() else root / p for p in args.paths]
    if not paths:
        paths = [root / "src" / "repro"]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return EXIT_USAGE

    report = analyze_paths(paths, root=root, rules=rules)
    if args.format == "json":
        print(json.dumps(_as_json(report), indent=2, sort_keys=True))
    else:
        _print_text(report)
    return EXIT_FINDINGS if report.findings or report.parse_errors else EXIT_CLEAN


if __name__ == "__main__":
    sys.exit(main())
