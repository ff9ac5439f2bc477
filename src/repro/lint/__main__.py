"""CLI: ``python -m repro.lint [paths...]``.

Exit status: 0 when every finding is suppressed inline (or none
exist), 1 when unsuppressed findings remain, 2 on usage errors.
``make lint`` and the CI ``lint`` job both run::

    python -m repro.lint src --json benchmarks/results/LINT_report.json
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.lint.core import default_rules, lint_paths
from repro.lint.reporters import format_human, write_json


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="AST-based static invariant analysis for this repo.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="also write a machine-readable report (CI artifact)",
    )
    parser.add_argument(
        "--rules",
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    rules = default_rules()
    if args.list_rules:
        for rule in rules:
            origin = f" [{rule.invariant_origin}]" if rule.invariant_origin else ""
            print(f"{rule.id}: {rule.title}{origin}")
        return 0
    if args.rules:
        wanted = {token.strip() for token in args.rules.split(",") if token.strip()}
        unknown = wanted - {rule.id for rule in rules}
        if unknown:
            print(
                f"unknown rule id(s): {', '.join(sorted(unknown))}",
                file=sys.stderr,
            )
            return 2
        rules = [rule for rule in rules if rule.id in wanted]
    try:
        result = lint_paths(args.paths, rules=rules)
    except (FileNotFoundError, ValueError) as exc:
        print(f"repro.lint: {exc}", file=sys.stderr)
        return 2
    print(format_human(result))
    if args.json:
        write_json(result, args.json)
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
