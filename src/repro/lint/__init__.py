"""``repro.lint`` -- AST-based static invariant analysis for this repo.

Five PRs of hot-path work created load-bearing invariants that, until
now, only held because the tests that would catch a regression happened
to exercise it: zero-materialization residency (PR 5), injectable-clock
serving determinism (PR 6), exact-length wire hardening (PR 3/7), the
backend conformance contract (PR 1/4), and the serving layer's
"never swallow a request" exception discipline (PR 3/6).  In the spirit
of machine-checked invariant specifications for architecturally-defined
mechanisms, this package encodes each invariant as a rule over the
source ASTs, so the moment a new call site violates one, CI fails with
a finding that names the file, line and rule -- no test has to happen
to cover it.

The pieces:

* :mod:`repro.lint.core` -- source loading, the :class:`~repro.lint.core.Rule`
  contract and registry, inline suppressions, and the
  :func:`~repro.lint.core.run_lint` driver;
* :mod:`repro.lint.rules` -- the shipped rules (R1 residency, R2
  backend conformance, R3 serving determinism, R4 wire discipline,
  R5 exception discipline);
* :mod:`repro.lint.reporters` -- human-readable and JSON output;
* ``python -m repro.lint src`` -- the CLI (see :mod:`repro.lint.__main__`),
  wired into ``make lint`` and the CI ``lint`` job.

Suppressing a finding
---------------------
A deliberate exception (e.g. a whitelisted residency snapshot site) is
suppressed *at the line* with an inline marker naming the rule::

    rows = backend.to_rows(handle)  # lint: disable=R1 -- snapshot for golden vectors

``# lint: disable=all`` suppresses every rule on that line.  There is no
other escape hatch: a finding is fixed or suppressed where it occurs.
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
