"""``repro.lint`` -- AST-based static invariant analysis for this repo.

Each rule encodes one load-bearing invariant of an earlier PR as a check
over the source ASTs, so the moment a new call site violates one, CI
fails with a finding that names the file, line and rule -- no test has
to happen to cover it.

* :mod:`repro.lint.core` -- source loading, the :class:`~repro.lint.core.Rule`
  contract, inline suppressions and the :func:`~repro.lint.core.run_lint` driver;
* :mod:`repro.lint.rules` -- the seven shipped rules (R1 residency, R2
  backend conformance, R3 serving determinism, R4 wire discipline, R5
  exception discipline, R6 planner discipline, R7 serving accounting);
* :mod:`repro.lint.reporters` -- human-readable and JSON output;
* ``python -m repro.lint src`` -- the CLI (:mod:`repro.lint.__main__`),
  wired into ``make lint`` and the CI ``lint`` job.

A deliberate exception is suppressed *at the line* by a comment naming
the rule (``all`` names every rule)::

    rows = backend.to_rows(handle)  # lint: disable=R1 -- snapshot for golden vectors

There is no other escape hatch, and a marker that suppresses nothing is
itself a finding (``E1``).
"""

from repro.lint.core import (
    Finding,
    LintResult,
    Rule,
    SourceModule,
    collect_sources,
    default_rules,
    lint_paths,
    module_matches,
    module_name_for,
    run_lint,
    source_from_text,
)
from repro.lint.reporters import format_human, to_json_dict, write_json

__all__ = [
    "Finding",
    "LintResult",
    "Rule",
    "SourceModule",
    "collect_sources",
    "default_rules",
    "format_human",
    "lint_paths",
    "module_matches",
    "module_name_for",
    "run_lint",
    "source_from_text",
    "to_json_dict",
    "write_json",
]
