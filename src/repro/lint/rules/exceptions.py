"""R5 -- exception discipline in the serving layer.

The serving stack's accounting invariant (``completed + shed +
failed_over == submitted``, asserted by every fault-injection scenario)
holds only because **no request ever disappears silently**: every
failure path either answers the client with an ERROR frame or
re-raises for a caller that will.  A broad ``except`` that merely
``pass``-es (or logs and moves on) breaks the conservation law in a
way no conservation test can localize -- the count is just short.

This rule flags every *broad* handler -- bare ``except:``,
``except Exception``, ``except BaseException`` (alone or in a tuple)
-- inside ``repro.serving`` whose body neither

* re-raises (``raise`` anywhere in the handler body), nor
* emits an error response: a call to something whose name mentions
  ``error``/``reject`` (``_respond_error``, ``_reject``, ...) or an
  ``encode_frame``/``append`` call referencing ``framing.ERROR``, nor
* emits an event whose kind names ``error``/``miss``/``fail``
  (``log.emit(now, "probe_error", worker_id)``, ...).  Recovery
  machinery -- the heartbeat supervisor, retry paths -- legitimately
  absorbs failures *by design*: a probe that raises is a missed probe,
  and logging it is the accounting; the miss drives the very restart
  logic that answers the client.

Narrow handlers (``except ValueError``, ``except (BrokenPipeError,
OSError)``) are out of scope: catching a *named* failure and deciding
it is survivable is exactly what they are for.
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

SERVING_MODULES = ("repro.serving",)

#: Exception names whose handlers count as "broad".
BROAD_EXCEPTIONS = ("Exception", "BaseException")

#: Call-name substrings that mark a handler as answering the client.
ERROR_EMITTING_HINTS = ("error", "reject")

#: Event-kind substrings whose ``emit`` marks a handler as *recording*
#: the failure (the supervisor's ``log.emit(now, "probe_error", ...)``).
EVENT_RECORDING_HINTS = ("error", "miss", "fail")


def _exception_names(type_node) -> List[str]:
    """Exception class names a handler catches (tuple-flattened)."""
    if type_node is None:
        return []
    nodes = type_node.elts if isinstance(type_node, ast.Tuple) else [type_node]
    names = []
    for node in nodes:
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
    return names


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True  # bare except:
    return any(
        name in BROAD_EXCEPTIONS for name in _exception_names(handler.type)
    )


def _call_name(func) -> str:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _mentions_error_frame(node: ast.AST) -> bool:
    """True for expressions referencing the ERROR frame kind."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr == "ERROR":
            return True
        if isinstance(sub, ast.Name) and sub.id == "ERROR":
            return True
    return False


def _emits_failure(call: ast.Call) -> bool:
    """An ``emit`` whose kind, a string constant, names a failure."""
    return _call_name(call.func) == "emit" and any(
        isinstance(arg, ast.Constant)
        and isinstance(arg.value, str)
        and any(hint in arg.value for hint in EVENT_RECORDING_HINTS)
        for arg in call.args
    )


def _handler_is_accounted(handler: ast.ExceptHandler) -> bool:
    """Does the handler re-raise, answer with an ERROR, or log the failure?"""
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Return) and node.value is not None:
            # returning a value lets the caller account for the failure
            # (e.g. ``return buffered_responses``) -- only a bare
            # ``return`` silently drops the request on the floor
            return True
        if isinstance(node, ast.Call):
            # a failure logged is accounted (in the supervisor the event
            # drives the restart that answers the client) -- but only an
            # event *named* for failure; logging a cache hit is not
            if _emits_failure(node):
                return True
            name = _call_name(node.func).lower()
            if any(hint in name for hint in ERROR_EMITTING_HINTS):
                return True
            if _mentions_error_frame(node):
                return True
    return False


class _ExceptionVisitor(SymbolTrackingVisitor):
    def __init__(self, rule: "ExceptionDisciplineRule", module: SourceModule):
        super().__init__()
        self.rule = rule
        self.module = module
        self.findings: List[Finding] = []

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if _is_broad(node) and not _handler_is_accounted(node):
            caught = ", ".join(_exception_names(node.type)) or "everything"
            self.findings.append(
                self.rule.finding(
                    self.module,
                    node,
                    self.symbol,
                    f"broad 'except' catching {caught} swallows the failure "
                    "without an ERROR frame or re-raise; requests must "
                    "never disappear silently (serving conservation law)",
                )
            )
        self.generic_visit(node)


class ExceptionDisciplineRule(Rule):
    """No broad ``except`` in ``repro.serving`` may swallow a request."""

    id = "R5"
    title = "serving exception discipline (no silent request loss)"
    invariant_origin = "PR 3/6 (ERROR-frame backpressure, conservation law)"

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        if not module_matches(module.module, SERVING_MODULES):
            return ()
        visitor = _ExceptionVisitor(self, module)
        visitor.visit(module.tree)
        return visitor.findings
