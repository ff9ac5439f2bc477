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

PR 23 made the *results* resident too: in the numpy backend, the wire
kernels of ``backend.base`` and ``serialization`` a result or staging
matrix is a view of a recycled slab
(:func:`repro.ckks.backend.resident.new`).  The second clause bans
``np.empty`` / ``np.zeros`` / ``np.empty_like`` there -- each puts a
flush back on the allocator, fresh pages faulted in and trimmed away
under every request; scratch kept for the thread's life opts out per
line, as above.  So are ``np.concatenate`` / ``np.stack`` without
``out=`` (a lane's staged codec bodies are a join).
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

#: Modules whose result and staging matrices come from the recycler.
RESIDENT_RESULT_MODULES = (
    "repro.ckks.backend.numpy_backend",
    "repro.ckks.backend.base",
    "repro.ckks.serialization",
)

#: numpy calls that ask the allocator for a fresh matrix (the two joins
#: only when not handed ``out=``).
ALLOCATING_CALLS = ("empty", "zeros", "empty_like", "concatenate", "stack")


class _ResidencyVisitor(SymbolTrackingVisitor):
    def __init__(self, rule: "ResidencyRule", module: SourceModule):
        super().__init__()
        self.rule = rule
        self.module = module
        self.findings: List[Finding] = []
        self.hot = module_matches(module.module, HOT_PATH_MODULES)
        self.resident = module_matches(module.module, RESIDENT_RESULT_MODULES)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            self.resident
            and isinstance(func, ast.Attribute)
            and func.attr in ALLOCATING_CALLS
            and isinstance(func.value, ast.Name)
            and func.value.id in ("np", "numpy")
            and not any(kw.arg == "out" for kw in node.keywords)
        ):
            self.findings.append(
                self.rule.finding(
                    self.module,
                    node,
                    self.symbol,
                    f"np.{func.attr}() allocates a fresh matrix where results "
                    "are resident; take it from repro.ckks.backend.resident.new "
                    "(PR 23; a join writes into it through out=), or whitelist "
                    "kept scratch with '# lint: disable=R1 -- <why>'",
                )
            )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if self.hot and node.attr in MATERIALIZING_ATTRS:
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
    """No ``.residues`` / ``to_rows()`` materialization in hot modules;
    no fresh ``np.empty`` matrices where results are resident."""

    id = "R1"
    title = "zero-materialization residency in hot-path modules"
    invariant_origin = "PR 5 (backend-native resident residue matrices)"

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        if not module_matches(module.module, HOT_PATH_MODULES + RESIDENT_RESULT_MODULES):
            return ()
        visitor = _ResidencyVisitor(self, module)
        visitor.visit(module.tree)
        return visitor.findings
