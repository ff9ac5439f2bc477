"""R7 -- ``repro.serving`` keeps no books beside its event log.

Every serving report is a fold over a :class:`repro.obs.EventLog`, so a
counter or a list grown in place on a ``report`` or ``stats`` object is
a second ledger that can disagree with the first.  Anywhere under
``repro.serving`` (the clock module included) the rule flags an
augmented assignment (``+=`` and the like) onto an attribute of such an
object, an ``append`` / ``extend`` / ``insert`` onto one, and any
``time.perf_counter``: a timed span is an event to log (ROADMAP 2(b)).
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from repro.lint.core import Finding, Rule, SourceModule, SymbolTrackingVisitor, module_matches
from repro.lint.rules.determinism import SERVING_MODULES


def _on_ledger(target: ast.expr) -> bool:
    """``self.report.latencies`` or ``stats.served``, not ``self.moved``."""
    owners = []
    while isinstance(target, ast.Attribute):
        target = target.value
        owners.append(getattr(target, "attr", getattr(target, "id", "")))
    return any(owner in ("report", "stats") for owner in owners)


class _AccountingVisitor(SymbolTrackingVisitor):
    def __init__(self, rule: "AccountingRule", module: SourceModule):
        super().__init__()
        self.rule, self.module = rule, module
        self.findings: List[Finding] = []

    def _flag(self, node: ast.AST, what: str) -> None:
        message = f"{what}; emit an event to the log instead"
        self.findings.append(self.rule.finding(self.module, node, self.symbol, message))

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if _on_ledger(node.target):
            self._flag(node, f"{ast.unparse(node.target)} counted in place")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        grower = getattr(node.func, "attr", "") in ("append", "extend", "insert")
        if grower and _on_ledger(node.func.value):
            self._flag(node, f"{ast.unparse(node.func.value)} grown in place")
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr == "perf_counter" and getattr(node.value, "id", "") == "time":
            self._flag(node, "time.perf_counter times a span beside the event log")
        self.generic_visit(node)


class AccountingRule(Rule):
    """Every serving report is a fold over its event log."""

    id = "R7"
    title = "repro.serving keeps no books beside its event log"
    invariant_origin = "PR 44 (one event log; every report is a fold over it)"

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        if not module_matches(module.module, SERVING_MODULES):
            return ()
        visitor = _AccountingVisitor(self, module)
        visitor.visit(module.tree)
        return visitor.findings
