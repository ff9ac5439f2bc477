"""The reachability ratchet: every symbol in ``src/`` is reached from outside the tests.

A symbol is a top-level function or class of ``src/``, or a method of
such a class (dunder methods aside; a leading underscore does not exempt
a name, since a private helper that only a test names is a test helper).
It is reached when its name appears in ``src/``, ``bench/``,
``benchmarks/`` or ``examples/`` outside its own body: as a name, an
attribute, or a string constant spelled like an identifier (``getattr``
and op-name dispatch).  A name that ``src/`` only *lists* -- in
``__all__`` or another module-level tuple of names such as
``base.DERIVED`` -- is declared there, not used.  A symbol that only
``tests/`` names goes one of three ways: an oracle moves under
``tests/``, a paper model is printed by a ``benchmarks/bench_*``
reproduction beside its paper number (or exempted with its paper
section), and dead API is deleted with the tests that only checked it.

The census matches by name, so a method name that several classes define
is reached when any one of them is: the report lists those "shared"
names, the bound's slack.  ``ast`` visitor methods (``visit_<Node>``) are
dispatched by name and are exempt by rule; the rest of the exemptions
are listed below with a reason each.  Run
``python tests/lint/test_reachability.py`` for the report (stdlib only).
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Set

from census import REACH_TREES, ROOT, python_files

_DERIVED = "a base.DERIVED convenience; ROADMAP 6(a) deletes the DERIVED names"
_NOISE = "repro.ckks.noise: ROADMAP item 3 adopts it or deletes it by the PR 40 re-anchor"

#: Symbols kept although nothing outside ``tests/`` names them.
EXEMPT: Dict[str, str] = {
    "NoiseEstimate.decryptable": _NOISE,
    "NoiseBudget": _NOISE,
    "NoiseBudget.depth_capacity": _NOISE,
    "LinearEvaluator": "repro.ckks.linear: ROADMAP item 3 turns it into a plan fragment by PR 40",
    "LinearEvaluator.evaluate_polynomial": "repro.ckks.linear: ROADMAP item 3, as above",
    "EncryptedComputeServer.register_program": "the only entry to the op=\"program\" path",
    "ServingCluster.drain_worker": "operator API: graceful worker removal, the drain half "
    "of the session protocol ROADMAP 5(a) specifies; no benchmark row drains",
    "HostScheduler.run_executed": "a measured run through Figure 7's pipeline (Section 5.2); "
    "ROADMAP item 17 derives modeled time from the same rows",
    "AsyncFrontDoor": "the TCP front door: the deployment surface of a served cluster "
    "(ROADMAP item 5 specifies its protocol); no benchmark row opens a socket",
    "PolynomialBackend.add_stack": _DERIVED,
    "PolynomialBackend.negate_stack": _DERIVED,
    "PolynomialBackend.dyadic_mul_stack": _DERIVED,
    "PolynomialBackend.dyadic_mac_stack": _DERIVED,
    "PolynomialBackend.scalar_mul": _DERIVED,
    "PolynomialBackend.scalar_mac": _DERIVED,
    "PolynomialBackend.reduce_mod": _DERIVED,
    "PolynomialBackend.get_row": _DERIVED,
    "PolynomialBackend.insert_row": _DERIVED,
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@dataclass(frozen=True)
class Symbol:
    """One top-level function or class, or one method of a top-level class."""

    cls: Optional[str]
    name: str
    where: str
    lines: int

    @property
    def ident(self) -> str:
        return f"{self.cls}.{self.name}" if self.cls else self.name


def collect_symbols(root: Path = ROOT) -> List[Symbol]:
    symbols: List[Symbol] = []
    for path in python_files(root, "src"):
        where = path.relative_to(root).as_posix()
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, _DEFS) or node.name.startswith("__"):
                continue
            size = node.end_lineno - node.lineno + 1
            symbols.append(Symbol(None, node.name, f"{where}:{node.lineno}", size))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, _DEFS[:2]) and not item.name.startswith("__"):
                        size = item.end_lineno - item.lineno + 1
                        symbols.append(
                            Symbol(node.name, item.name, f"{where}:{item.lineno}", size)
                        )
    return symbols


def _is_name_list(node: ast.stmt) -> bool:
    """``__all__ = [...]`` or ``DERIVED = ("add", ...)``: a listing of names."""
    value = getattr(node, "value", None)
    return isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(
        value, (ast.Tuple, ast.List)
    ) and all(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in value.elts)


def _names_used(tree: ast.Module, declared_only: bool) -> Dict[str, Set[str]]:
    """name -> the dotted names of the definitions whose bodies use it
    (``""`` at module level).

    With ``declared_only``, module-level listings of names are skipped.
    """
    used: Dict[str, Set[str]] = {}

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if declared_only and node is tree and _is_name_list(child):
                continue
            inner = owner
            if isinstance(child, _DEFS):
                inner = f"{owner}.{child.name}" if owner else child.name
            name = None
            if isinstance(child, ast.Name):
                name = child.id
            elif isinstance(child, ast.Attribute):
                name = child.attr
            elif isinstance(child, ast.Constant) and isinstance(child.value, str):
                name = child.value if child.value.isidentifier() else None
            if name:
                used.setdefault(name, set()).add(owner)
            visit(child, inner)

    visit(tree, "")
    return used


def reaching_trees(
    root: Path = ROOT, trees=REACH_TREES + ("tests",)
) -> Dict[str, Dict[str, Set[str]]]:
    """tree -> name -> the definitions using it, over every file of the tree."""
    out: Dict[str, Dict[str, Set[str]]] = {}
    for tree in trees:
        used: Dict[str, Set[str]] = {}
        for path in python_files(root, tree):
            module = ast.parse(path.read_text(encoding="utf-8"))
            for name, owners in _names_used(module, declared_only=tree == "src").items():
                used.setdefault(name, set()).update(owners)
        out[tree] = used
    return out


def census(root: Path = ROOT) -> Dict[str, List[Symbol]]:
    """The symbols by verdict: ``unreached`` (tests only, or nowhere),
    ``visitor`` (exempt by rule) and ``shared`` (reached by a name that
    several classes define)."""
    symbols = collect_symbols(root)
    used = reaching_trees(root)
    classes_defining: Dict[str, Set[str]] = {}
    for s in symbols:
        if s.cls:
            classes_defining.setdefault(s.name, set()).add(s.cls)

    def reached(s: Symbol) -> bool:
        for tree in REACH_TREES:
            for owner in used[tree].get(s.name, ()):
                # a use inside the symbol's own body is recursion, not a reach
                if tree != "src" or (owner + ".").find(s.ident + ".") != 0:
                    return True
        return False

    verdicts: Dict[str, List[Symbol]] = {"unreached": [], "visitor": [], "shared": []}
    for s in symbols:
        if s.cls and s.name.startswith("visit_"):
            verdicts["visitor"].append(s)
        elif not reached(s):
            verdicts["unreached"].append(s)
        elif s.cls and len(classes_defining[s.name]) > 1:
            verdicts["shared"].append(s)
    return verdicts


def named_in_tests(root: Path = ROOT) -> Set[str]:
    return set(reaching_trees(root, ("tests",))["tests"])


def unexempted(symbols: List[Symbol]) -> List[Symbol]:
    return [s for s in symbols if s.ident not in EXEMPT]


def test_every_symbol_is_reached_outside_the_tests():
    offenders = unexempted(census()["unreached"])
    assert not offenders, (
        "symbols nothing outside tests/ names (move the oracle under tests/, print the "
        "model in a benchmark, or delete the API):\n"
        + "\n".join(f"  {s.ident}  {s.where}" for s in offenders)
    )


def test_every_exemption_is_still_needed():
    """An exempt name that is gone from ``src/``, or now reached, is removed."""
    defined = {s.ident for s in collect_symbols()}
    assert sorted(set(EXEMPT) - defined) == []
    unreached = {s.ident for s in census()["unreached"]}
    assert sorted(set(EXEMPT) - unreached) == []


FIXTURE = Path(__file__).resolve().parent / "fixtures" / "reachability"


def test_census_reports_a_symbol_only_a_test_names():
    """The planted tree: ``only_tested`` and ``Kept.only_tested`` only a test
    names, ``listed`` only ``__all__`` lists, ``recursive`` only calls itself;
    ``by_string`` is reached through ``getattr``'s string."""
    found = sorted(s.ident for s in unexempted(census(FIXTURE)["unreached"]))
    assert found == ["Kept.only_tested", "listed", "only_tested", "recursive"]
    assert {"only_tested", "listed", "recursive"} <= named_in_tests(FIXTURE)


def test_census_sorts_visitors_and_shared_names_on_the_fixture_tree():
    verdicts = census(FIXTURE)
    assert [s.ident for s in verdicts["visitor"]] == ["Walker.visit_Name"]
    assert sorted(s.ident for s in verdicts["shared"]) == ["Kept.run", "Other.run"]


if __name__ == "__main__":
    # stdlib only: ``python tests/lint/test_reachability.py`` (CI's lint job)
    verdicts = census()
    offenders = unexempted(verdicts["unreached"])
    tested = named_in_tests()
    for s in offenders:
        seen = "named only by tests" if s.name in tested else "named nowhere"
        print(f"{s.where}: {s.ident} ({s.lines} lines) is {seen}")
    exempt = [s for s in verdicts["unreached"] if s.ident in EXEMPT]
    print(
        f"reachability ratchet: {len(collect_symbols())} symbols, "
        f"{len(offenders)} unreached, {len(exempt)} exempt "
        f"({sum(s.lines for s in exempt)} lines), {len(verdicts['visitor'])} visitor methods, "
        f"{len(verdicts['shared'])} reached only through a shared method name"
    )
    sys.exit(1 if offenders else 0)
