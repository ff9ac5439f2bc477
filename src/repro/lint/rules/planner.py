"""R6 -- the plan is the only door from workload/serving modules to the
evaluator: no per-step rotation loops, no evaluator imports.

PR 10 added the workload planner: rotation sweeps declared in a
:class:`~repro.plan.PlanGraph` are fused through **one** hoisted
key-switch decomposition by the plan executor, and the hoisting
benchmark holds a >= 2x gate over the rotate-per-step baseline.  The
regression this rule guards against is the obvious one: a new serving
or workload call site writing ``for step in steps: ct = ev.rotate(...)``
-- each iteration pays a full decomposition the planner would have paid
once.

The rule statically flags ``.rotate(...)`` calls lexically inside a
``for``/``while`` body in the scoped modules.  Loops that *build plan
nodes* rather than execute rotations (the graph is the fix, not the
bug) opt out per line with
``# lint: disable=R6 -- <why>``, which keeps the justification at the
call site.  A nested ``def`` resets the loop context: defining a
rotation helper inside a loop does not execute one per iteration.

PR 12 made :class:`~repro.plan.PlanExecutor` the single executor: every
serving flush and every workload batch is built as a ``PlanGraph`` and
run there.  The rule therefore also flags any import -- module level or
function local -- of :class:`~repro.ckks.evaluator.Evaluator` (the one
implementation of the CKKS operations, lane-wide) in the scoped modules,
so a second op -> evaluator-call dispatch table cannot grow back beside
the executor's, however the import is spelled.
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

#: Dotted-module prefixes where per-step rotation loops are banned.
PLANNED_MODULES = (
    "repro.system",
    "repro.serving",
)

#: Method spellings that execute one key-switch per call.
ROTATE_METHODS = ("rotate",)

#: The evaluator classes only ``repro.plan`` may drive.
EVALUATOR_CLASSES = ("Evaluator",)

#: Their home modules (``import repro.ckks.evaluator`` or ``from
#: repro.ckks import evaluator`` is the same door).
EVALUATOR_MODULES = ("repro.ckks.evaluator",)


class _RotateLoopVisitor(SymbolTrackingVisitor):
    def __init__(self, rule: "PlannerDisciplineRule", module: SourceModule):
        super().__init__()
        self.rule = rule
        self.module = module
        self.findings: List[Finding] = []
        self.loop_depth = 0

    def _visit_scope(self, node: ast.AST) -> None:
        # a def inside a loop defines, it does not execute per iteration
        saved, self.loop_depth = self.loop_depth, 0
        super()._visit_scope(node)
        self.loop_depth = saved

    def _visit_loop(self, node: ast.AST) -> None:
        self.loop_depth += 1
        self.generic_visit(node)
        self.loop_depth -= 1

    def visit_For(self, node: ast.For) -> None:
        self._visit_loop(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._visit_loop(node)

    def visit_While(self, node: ast.While) -> None:
        self._visit_loop(node)

    def _flag_import(self, node: ast.AST, what: str) -> None:
        self.findings.append(
            self.rule.finding(
                self.module,
                node,
                self.symbol,
                f"import of {what}: workload/serving modules reach the "
                "evaluator only through repro.plan (build a PlanGraph, run "
                "it on a PlanExecutor) -- PR 12 single-executor invariant",
            )
        )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and module_matches(node.module, ("repro.ckks",)):
            for alias in node.names:
                what = f"{node.module}.{alias.name}"
                if alias.name in EVALUATOR_CLASSES or what in EVALUATOR_MODULES:
                    self._flag_import(node, what)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name in EVALUATOR_MODULES:
                self._flag_import(node, alias.name)

    def visit_Call(self, node: ast.Call) -> None:
        if (
            self.loop_depth > 0
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ROTATE_METHODS
        ):
            self.findings.append(
                self.rule.finding(
                    self.module,
                    node,
                    self.symbol,
                    f".{node.func.attr}() inside a loop pays one key-switch "
                    "decomposition per iteration; declare the sweep in a "
                    "PlanGraph so the executor hoists the "
                    "decomposition once (PR 10 planner invariant), or mark "
                    "a plan-building loop with "
                    "'# lint: disable=R6 -- <why>'",
                )
            )
        self.generic_visit(node)


class PlannerDisciplineRule(Rule):
    """No per-step ``.rotate()`` loops and no evaluator imports in
    workload/serving modules."""

    id = "R6"
    title = "the plan is the only door to the evaluator in workload/serving modules"
    invariant_origin = (
        "PR 10 (op-graph planner: rotation-sweep fusion), "
        "PR 12 (single executor)"
    )

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        if not module_matches(module.module, PLANNED_MODULES):
            return ()
        visitor = _RotateLoopVisitor(self, module)
        visitor.visit(module.tree)
        return visitor.findings
