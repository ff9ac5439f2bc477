"""Human and JSON rendering of a :class:`~repro.lint.core.LintResult`.

The human form is what ``make lint`` prints; the JSON form is the CI
artifact (``benchmarks/results/LINT_report.json``), shaped like the
bench JSONs: a self-describing document a dashboard can diff across
commits without re-running anything.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

from repro.lint.core import LintResult


def format_human(result: LintResult) -> str:
    """Grep-able one-line-per-finding report plus a verdict line."""
    lines: List[str] = []
    for finding in result.findings:
        lines.append(str(finding))
    tail = []
    if result.suppressed:
        tail.append(f"{len(result.suppressed)} suppressed inline")
    suffix = f" ({', '.join(tail)})" if tail else ""
    if result.findings:
        lines.append(
            f"repro.lint: {len(result.findings)} finding(s) in "
            f"{result.checked_files} file(s){suffix}"
        )
    else:
        lines.append(
            f"repro.lint: clean -- {result.checked_files} file(s), "
            f"{len(result.rules)} rule(s){suffix}"
        )
    return "\n".join(lines)


def to_json_dict(result: LintResult) -> Dict:
    """The machine-readable report (schema version 1)."""
    return {
        "schema": "repro.lint/1",
        "ok": result.ok,
        "checked_files": result.checked_files,
        "rules": [
            {
                "id": rule.id,
                "title": rule.title,
                "invariant_origin": rule.invariant_origin,
            }
            for rule in result.rules
        ],
        "findings": [
            {
                "rule": f.rule,
                "path": f.path,
                "line": f.line,
                "symbol": f.symbol,
                "message": f.message,
            }
            for f in result.findings
        ],
        "suppressed": len(result.suppressed),
    }


def write_json(result: LintResult, path: str) -> None:
    """Write the JSON report, creating parent directories as needed."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(to_json_dict(result), handle, indent=2, sort_keys=False)
        handle.write("\n")
