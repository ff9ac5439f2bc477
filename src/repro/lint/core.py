"""Analyzer infrastructure: sources, rules, suppressions, the driver.

The design mirrors the structure of the invariants it checks: a *rule*
is a small, fixture-testable object that inspects parsed modules and
yields :class:`Finding`\\ s.  Two granularities exist because the
invariants do:

* **module rules** (:meth:`Rule.check_module`) see one file's AST at a
  time -- residency, determinism, wire and exception discipline are
  all per-call-site properties;
* **project rules** (:meth:`Rule.check_project`) see every parsed
  module at once -- backend conformance is a relation *between* class
  definitions in different files, invisible to any single-file pass.

Rules match files by *dotted module name* (``repro.serving.worker``),
derived from the path by taking everything from the first ``repro``
path segment onward.  Fixture tests exploit this: a snippet loaded
under a virtual path such as ``src/repro/serving/fixture.py`` is
subject to exactly the rules the real module would be.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: Inline suppression marker: ``# lint: disable=R1`` / ``=R1,R4`` / ``=all``.
_SUPPRESS_RE = re.compile(r"#\s*lint:\s*disable=([A-Za-z0-9_,\s]+?)(?:\s*--.*)?$")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str      #: rule id, e.g. ``"R3"``
    path: str      #: path as given to the analyzer (posix-normalized)
    line: int      #: 1-based line of the offending node
    symbol: str    #: enclosing ``class.def`` chain, or ``"<module>"``
    message: str   #: what is wrong and what the invariant demands

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} [{self.symbol}] {self.message}"


@dataclass
class SourceModule:
    """One parsed source file plus everything rules need to inspect it."""

    path: str                 #: posix path as handed to the analyzer
    module: str               #: dotted module name (``repro.serving.worker``)
    text: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)

    def suppressed_rules(self, line: int) -> Set[str]:
        """Rule ids suppressed by an inline marker on ``line`` (1-based)."""
        if not 1 <= line <= len(self.lines):
            return set()
        match = _SUPPRESS_RE.search(self.lines[line - 1])
        if not match:
            return set()
        return {token.strip() for token in match.group(1).split(",") if token.strip()}


def module_name_for(path: str) -> str:
    """Dotted module name of ``path``: parts from the first ``repro`` on.

    Falls back to the full path (dotted, extension-stripped) for files
    outside the package, so rules keyed on ``repro.*`` prefixes simply
    never match them.
    """
    norm = path.replace(os.sep, "/")
    parts = [p for p in norm.split("/") if p]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def module_matches(module: str, prefixes) -> bool:
    """True when ``module`` is one of ``prefixes`` or nested inside one."""
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in prefixes
    )


def source_from_text(path: str, text: str) -> SourceModule:
    """Parse ``text`` as the module that would live at ``path``.

    The fixture-test entry point: rules see the virtual path's module
    name, so a violating snippet exercises exactly the production rule
    configuration.
    """
    tree = ast.parse(text, filename=path)
    return SourceModule(
        path=path.replace(os.sep, "/"),
        module=module_name_for(path),
        text=text,
        tree=tree,
        lines=text.splitlines(),
    )


def collect_sources(paths: Sequence[str]) -> Tuple[List[SourceModule], List[Finding]]:
    """Load every ``.py`` file under ``paths`` (files or directories).

    A file that fails to parse is itself a finding (rule ``E0``) --
    an unparseable module can hide any violation, so it must fail the
    run rather than silently shrink the checked surface.
    """
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d not in ("__pycache__", ".git")
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        files.append(os.path.join(dirpath, name))
        elif path.endswith(".py"):
            files.append(path)
        else:
            raise FileNotFoundError(f"not a python file or directory: {path}")
    modules: List[SourceModule] = []
    errors: List[Finding] = []
    for file_path in files:
        with open(file_path, "r", encoding="utf-8") as handle:
            text = handle.read()
        try:
            modules.append(source_from_text(file_path, text))
        except SyntaxError as exc:
            errors.append(
                Finding(
                    rule="E0",
                    path=file_path.replace(os.sep, "/"),
                    line=exc.lineno or 1,
                    symbol="<module>",
                    message=f"cannot parse module: {exc.msg}",
                )
            )
    return modules, errors


class Rule:
    """The rule contract; subclasses implement one or both hooks.

    ``id`` / ``title`` identify the rule in reports and suppressions;
    ``invariant_origin`` names the PR whose invariant the rule encodes
    (surfaced in ``--list-rules`` and the JSON report, so a finding
    links back to *why* the rule exists).
    """

    id: str = "R0"
    title: str = "abstract rule"
    invariant_origin: str = ""

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        """Findings for one parsed module (default: none)."""
        return ()

    def check_project(
        self, modules: Dict[str, SourceModule]
    ) -> Iterable[Finding]:
        """Findings over all parsed modules, keyed by dotted name
        (default: none)."""
        return ()

    # ------------------------------------------------------------------
    # helpers shared by the concrete rules
    # ------------------------------------------------------------------
    @staticmethod
    def enclosing_symbol(stack: Sequence[ast.AST]) -> str:
        """``Class.method`` chain of the innermost enclosing defs."""
        names = [
            node.name
            for node in stack
            if isinstance(
                node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            )
        ]
        return ".".join(names) if names else "<module>"

    def finding(
        self, module: SourceModule, node: ast.AST, symbol: str, message: str
    ) -> Finding:
        return Finding(
            rule=self.id,
            path=module.path,
            line=getattr(node, "lineno", 1),
            symbol=symbol,
            message=message,
        )


class SymbolTrackingVisitor(ast.NodeVisitor):
    """An ``ast.NodeVisitor`` that maintains the enclosing-scope stack.

    Concrete rule visitors subclass this and read :attr:`scope_stack`
    (outermost first) when emitting findings, so every finding carries
    the ``Class.method`` symbol it was found in.
    """

    def __init__(self) -> None:
        self.scope_stack: List[ast.AST] = []

    def _visit_scope(self, node: ast.AST) -> None:
        self.scope_stack.append(node)
        self.generic_visit(node)
        self.scope_stack.pop()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._visit_scope(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_scope(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_scope(node)

    @property
    def symbol(self) -> str:
        return Rule.enclosing_symbol(self.scope_stack)


@dataclass
class LintResult:
    """Outcome of one analyzer run."""

    findings: List[Finding]              #: unsuppressed, fail the run
    suppressed: List[Finding]            #: silenced by inline markers
    checked_files: int = 0
    rules: List[Rule] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings


def default_rules() -> List[Rule]:
    """Fresh instances of every registered rule, in id order."""
    from repro.lint.rules import REGISTERED_RULES

    return [rule_cls() for rule_cls in REGISTERED_RULES]


def run_lint(
    modules: Sequence[SourceModule],
    rules: Optional[Sequence[Rule]] = None,
    parse_errors: Sequence[Finding] = (),
) -> LintResult:
    """Run ``rules`` over ``modules`` and triage every finding: an
    inline ``# lint: disable=`` marker (visible at the call site, where
    a reviewer will look) is the only way to silence one.
    """
    rules = list(default_rules() if rules is None else rules)
    by_name = {m.module: m for m in modules}
    by_path = {m.path: m for m in modules}
    raw: List[Finding] = list(parse_errors)
    for rule in rules:
        for module in modules:
            raw.extend(rule.check_module(module))
        raw.extend(rule.check_project(by_name))
    active: List[Finding] = []
    suppressed: List[Finding] = []
    for finding in sorted(raw, key=lambda f: (f.path, f.line, f.rule)):
        module = by_path.get(finding.path)
        markers = module.suppressed_rules(finding.line) if module else set()
        if finding.rule in markers or "all" in markers:
            suppressed.append(finding)
        else:
            active.append(finding)
    return LintResult(
        findings=active,
        suppressed=suppressed,
        checked_files=len(modules),
        rules=rules,
    )


def lint_paths(
    paths: Sequence[str], rules: Optional[Sequence[Rule]] = None
) -> LintResult:
    """Convenience driver: load sources under ``paths`` and lint them."""
    modules, parse_errors = collect_sources(paths)
    return run_lint(modules, rules, parse_errors)
