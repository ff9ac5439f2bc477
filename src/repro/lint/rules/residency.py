"""R1 -- zero-materialization residency in the hot path.

PR 5 made residue storage backend-native end to end: an
:class:`~repro.ckks.poly.RnsPolynomial` holds an opaque ``(L, n)``
handle, and the hot path (the evaluator, its lane container, keys, the
whole serving stack) chains ``*_rows`` kernels on handles without ever
lowering to canonical Python lists.  The residency benchmark proves the warmed
mult->relin->rescale->rotate chain performs **zero** lift/lower
conversions -- but nothing stopped a new call site from sneaking a
``.residues`` read or a ``to_rows()`` materialization into a hot
module and silently re-introducing the per-call boundary cost.

This rule statically bans both spellings of materialization in the
hot-path modules.  Snapshot sites that *must* materialize (golden
vector dumps, debugging helpers) opt out per line with
``# lint: disable=R1 -- <why>``, which keeps the exception visible at
the call site.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from repro.lint.core import (
    Finding,
    Rule,
    SourceModule,
    SymbolTrackingVisitor,
    module_matches,
)

#: Dotted-module prefixes whose code must stay handle-resident.
HOT_PATH_MODULES = (
    "repro.ckks.evaluator",
    "repro.ckks.batch",
    "repro.ckks.keys",
    "repro.serving",
)

#: Attribute spellings that materialize canonical residue lists.
MATERIALIZING_ATTRS = ("residues", "to_rows")


class _ResidencyVisitor(SymbolTrackingVisitor):
    def __init__(self, rule: "ResidencyRule", module: SourceModule):
        super().__init__()
        self.rule = rule
        self.module = module
        self.findings: List[Finding] = []

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr in MATERIALIZING_ATTRS:
            spelling = (
                f".{node.attr}()" if node.attr == "to_rows" else f".{node.attr}"
            )
            self.findings.append(
                self.rule.finding(
                    self.module,
                    node,
                    self.symbol,
                    f"{spelling} materializes canonical residue lists in a "
                    "hot-path module; chain backend-native *_rows kernels "
                    "instead (PR 5 residency invariant), or whitelist a "
                    "snapshot site with '# lint: disable=R1 -- <why>'",
                )
            )
        self.generic_visit(node)


class ResidencyRule(Rule):
    """No ``.residues`` / ``to_rows()`` materialization in hot modules."""

    id = "R1"
    title = "zero-materialization residency in hot-path modules"
    invariant_origin = "PR 5 (backend-native resident residue matrices)"

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        if not module_matches(module.module, HOT_PATH_MODULES):
            return ()
        visitor = _ResidencyVisitor(self, module)
        visitor.visit(module.tree)
        return visitor.findings
