"""R3 -- injectable-clock determinism in the serving layer.

PR 6's fault-injection and differential layers only work because the
serving stack reads *injectable* time: a :class:`repro.serving.clock.ManualClock`
owns every deadline, so "a lane straddling its flush deadline during a
drain" is a reproducible state instead of a race.  That property is
global -- one call site reading ``time.monotonic()`` directly re-opens
the wall-clock hole for every test above it (exactly what happened to
the ``ProcessWorkerHandle`` poll/drain loops and the front door's
``_settle_client`` before this rule existed).

The rule bans, anywhere under ``repro.serving`` except the clock
module itself:

* any use of ``time.time`` / ``time.monotonic`` (and their ``_ns``
  variants), whether called or referenced -- defaults like
  ``clock=time.monotonic`` must come from
  :data:`repro.serving.clock.SYSTEM_CLOCK` instead, the single
  whitelisted wall-clock site;
* importing those names from :mod:`time` directly;
* module-level :mod:`random` functions (shared global RNG state);
  deterministic code wants an explicitly seeded ``random.Random``.

``time.perf_counter`` decides no deadline, so R3 leaves it alone; R7
keeps it out of ``repro.serving`` as a ledger beside the event log.
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

#: The serving namespace the invariant covers.
SERVING_MODULES = ("repro.serving",)

#: The one module allowed to touch the wall clock: the abstraction.
CLOCK_MODULES = ("repro.serving.clock",)

#: ``time`` attributes that read wall/monotonic clocks for control flow.
BANNED_TIME_ATTRS = ("time", "monotonic", "monotonic_ns", "time_ns")

#: The one ``random`` attribute that is fine: an owned, seedable RNG.
ALLOWED_RANDOM_ATTRS = ("Random", "SystemRandom")


class _DeterminismVisitor(SymbolTrackingVisitor):
    def __init__(self, rule: "ServingDeterminismRule", module: SourceModule):
        super().__init__()
        self.rule = rule
        self.module = module
        self.findings: List[Finding] = []

    def _flag(self, node: ast.AST, message: str) -> None:
        self.findings.append(
            self.rule.finding(self.module, node, self.symbol, message)
        )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.value, ast.Name):
            base = node.value.id
            if base == "time" and node.attr in BANNED_TIME_ATTRS:
                self._flag(
                    node,
                    f"time.{node.attr} bypasses the injectable Clock; route "
                    "timing through the clock parameter (default "
                    "repro.serving.clock.SYSTEM_CLOCK) so manual-clock "
                    "tests own every deadline (PR 6 determinism invariant)",
                )
            elif base == "random" and node.attr not in ALLOWED_RANDOM_ATTRS:
                self._flag(
                    node,
                    f"random.{node.attr} uses the shared module-level RNG; "
                    "serving code must draw from an explicitly seeded "
                    "random.Random instance (PR 6 determinism invariant)",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "time":
            for alias in node.names:
                if alias.name in BANNED_TIME_ATTRS:
                    self._flag(
                        node,
                        f"'from time import {alias.name}' bypasses the "
                        "injectable Clock; use "
                        "repro.serving.clock.SYSTEM_CLOCK",
                    )
        elif node.module == "random":
            for alias in node.names:
                if alias.name not in ALLOWED_RANDOM_ATTRS:
                    self._flag(
                        node,
                        f"'from random import {alias.name}' pulls shared "
                        "module-level RNG state into the serving layer; "
                        "seed a random.Random instance instead",
                    )
        self.generic_visit(node)


class ServingDeterminismRule(Rule):
    """All serving-layer timing flows through the injectable ``Clock``."""

    id = "R3"
    title = "injectable-clock determinism in repro.serving"
    invariant_origin = "PR 6 (manual-clock fault-injection/differential layers)"

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        if not module_matches(module.module, SERVING_MODULES):
            return ()
        if module_matches(module.module, CLOCK_MODULES):
            return ()  # the abstraction itself: the whitelisted site
        visitor = _DeterminismVisitor(self, module)
        visitor.visit(module.tree)
        return visitor.findings
