"""The accounting ratchet: ``repro.serving`` keeps no books beside its event log.

Every report of the serving layer is a fold over a :class:`repro.obs.EventLog`
(``ServingReport.fold``, ``ClusterReport.fold``), so a counter or a list
grown in place on a report or stats object is a second ledger that can
disagree with the first.  This check reads ``src/repro/serving`` with
:mod:`ast` (nothing is imported) and refuses:

* an augmented assignment (``+=`` and the like) onto an attribute of a
  ``report`` or ``stats`` object;
* an ``append`` / ``extend`` / ``insert`` onto such an attribute;
* a ``perf_counter`` call outside the one timed span kept on purpose,
  listed below with its reason.

Run ``python tests/lint/test_accounting.py`` for the report (stdlib only).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from census import ROOT

#: the package whose books are its event logs
PACKAGE = Path("src") / "repro" / "serving"
#: objects that must not grow in place
LEDGERS = ("report", "stats")
#: (file, function) -> why its ``perf_counter`` pair stays
TIMED_SPANS: Dict[Tuple[str, str], str] = {
    ("src/repro/serving/server.py", "_run"): "the flush span: FlushRecord.seconds "
    "and ScheduledOp.compute_seconds; ROADMAP 2(b) makes it a span event",
}
GROWERS = ("append", "extend", "insert")


def _chain(node: ast.expr) -> List[str]:
    """``["self", "report", "latencies"]`` for ``self.report.latencies``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return parts[::-1]


def _on_ledger(target: ast.expr) -> bool:
    """An attribute of something named like a report or stats object."""
    return isinstance(target, ast.Attribute) and any(
        part in LEDGERS for part in _chain(target)[:-1]
    )


def findings(root: Path = ROOT) -> List[str]:
    """Every ledger write and untimed ``perf_counter`` under ``root``."""
    out = set()
    for path in sorted((root / PACKAGE).rglob("*.py")):
        where = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                at = (where, getattr(node, "lineno", 0))
                if isinstance(node, ast.AugAssign) and _on_ledger(node.target):
                    out.add((*at, f"{ast.unparse(node.target)} counted in place"))
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    if node.func.attr in GROWERS and _on_ledger(node.func.value):
                        out.add((*at, f"{ast.unparse(node.func.value)} grown in place"))
                    elif node.func.attr == "perf_counter" and (where, func.name) not in TIMED_SPANS:
                        out.add((*at, "perf_counter outside a listed span"))
    return [f"{where}:{line}: {what}" for where, line, what in sorted(out)]


def test_serving_keeps_no_books_beside_its_log():
    found = findings()
    assert not found, "emit an event instead:\n" + "\n".join(f"  {f}" for f in found)


def test_every_timed_span_is_still_there():
    """A listed span whose pair is gone, or moved, is removed from the list."""
    for where, name in TIMED_SPANS:
        tree = ast.parse((ROOT / where).read_text(encoding="utf-8"))
        calls = [
            node
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef) and func.name == name
            for node in ast.walk(func)
            if isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "perf_counter"
        ]
        assert len(calls) == 2, f"{where}:{name} holds {len(calls)} perf_counter calls"


def test_ratchet_refuses_a_reintroduced_counter():
    fixture = Path(__file__).resolve().parent / "fixtures" / "accounting"
    found = [f.split(": ", 1)[1] for f in findings(fixture)]
    assert found == [
        "self.report.submitted counted in place",
        "self.stats.latencies grown in place",
        "perf_counter outside a listed span",
        "perf_counter outside a listed span",
    ]


if __name__ == "__main__":
    # stdlib only: ``python tests/lint/test_accounting.py`` (CI's lint job)
    found = findings()
    for finding in found:
        print(finding)
    print(f"accounting ratchet: {len(found)} ledger writes outside the event log")
    sys.exit(1 if found else 0)
