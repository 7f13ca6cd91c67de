"""CI step-summary renderer for the invariant analyzer's JSON report.

Usage::

    status=0
    PYTHONPATH=src python -m repro.analysis --format json \
        > analysis.json || status=$?
    python benchmarks/check_analysis.py --input analysis.json \
        [--summary "$GITHUB_STEP_SUMMARY"]
    exit "$status"

Renders a per-rule markdown table (scanned files, new findings, pragma
suppressions) and lists the findings and parse errors.  It holds no
pass/fail rule of its own: the analyzer's exit status is the verdict,
and the headline only restates what the report carries.  Exit 0 once
the table is rendered, 2 on an unreadable or foreign-schema report.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from typing import Dict, List

def _count_by_rule(rows: List[Dict]) -> Counter:
    return Counter(str(row.get("rule", "?")) for row in rows)


def summarize(report: Dict) -> str:
    """Markdown summary of one ``repro-analysis-report/2`` document."""
    findings = report.get("findings", [])
    suppressed = report.get("suppressed", [])
    parse_errors = report.get("parse_errors", [])

    new_by_rule = _count_by_rule(findings)
    supp_by_rule = _count_by_rule(suppressed)
    rules = sorted(set(report.get("rules", [])) | set(new_by_rule) | set(supp_by_rule))

    lines = ["## Invariant lint", ""]
    verdict = "clean" if not (findings or parse_errors) else "FAILING"
    lines.append(
        f"**{verdict}** — {report.get('files_scanned', '?')} files, "
        f"{len(findings)} new finding(s), {len(suppressed)} pragma-suppressed."
    )
    lines.append("")
    lines.append("| rule | new | suppressed |")
    lines.append("| --- | ---: | ---: |")
    for rule in rules:
        lines.append(f"| {rule} | {new_by_rule.get(rule, 0)} | {supp_by_rule.get(rule, 0)} |")
    if findings:
        lines.append("")
        lines.append("### New findings")
        for row in findings:
            lines.append(
                f"- `{row.get('path')}:{row.get('line')}` **{row.get('rule')}** "
                f"{row.get('message')}"
            )
    if parse_errors:
        lines.append("")
        lines.append("### Parse errors")
        for err in parse_errors:
            lines.append(f"- {err}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--input", required=True, help="analyzer --format json output")
    parser.add_argument(
        "--summary",
        default=None,
        help="file to append the markdown summary to (e.g. $GITHUB_STEP_SUMMARY)",
    )
    args = parser.parse_args(argv)

    with open(args.input, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    schema = report.get("schema")
    if schema != "repro-analysis-report/2":
        print(f"error: unexpected report schema {schema!r}", file=sys.stderr)
        return 2

    text = summarize(report)
    print(text)
    if args.summary:
        with open(args.summary, "a", encoding="utf-8") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
