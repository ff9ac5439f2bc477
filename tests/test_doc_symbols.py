"""Every code symbol the prose docs name must exist.

README.md, docs/ARCHITECTURE.md and the verify skill name classes,
methods and ``repro.``-qualified paths; a rename or a deletion in
``src/`` leaves them stale unless someone re-reads every copy.  This
check reads ``src/repro`` with :mod:`ast` (nothing is imported) and
resolves

* every backticked span's ``Class.attr`` whose class is defined under
  ``src/repro`` -- against the class body, its ``self.<name>``
  assignments and the bodies of its bases defined there;
* every ``repro.``-qualified dotted path -- a package or module, then
  the names it defines or imports, then one class attribute;
* every backticked span that is nothing but a dotted path rooted at a
  ``repro`` subpackage (`` `plan.passes.check_plan` ``), as the
  ``repro.``-qualified path (a reading such as `` `plan.steps 2` `` is
  not a path).
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "docs/ARCHITECTURE.md", ".claude/skills/verify/SKILL.md")

_FENCE = re.compile(r"^```.*?^```", re.M | re.S)
_SPAN = re.compile(r"(?<!`)(`+)(?!`)(.+?)(?<!`)\1(?!`)", re.S)
_CLASS_ATTR = re.compile(r"(?<![\w.])([A-Z]\w*)\.([A-Za-z_]\w*)")
_REPRO_PATH = re.compile(r"(?<![\w./])repro(?:\.[A-Za-z_]\w*)+")


def _statements(body):
    """Statements that run at this scope, through ``if`` / ``try`` / ``with``."""
    for node in body:
        yield node
        if isinstance(node, (ast.If, ast.Try, ast.With)):
            for field in ("body", "orelse", "finalbody"):
                yield from _statements(getattr(node, field, []))
            for handler in getattr(node, "handlers", []):
                yield from _statements(handler.body)


def _targets(node) -> List[str]:
    """Names bound by an assignment at this scope (``self.x`` too)."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    names = []
    for target in targets:
        for leaf in ast.walk(target):
            if isinstance(leaf, ast.Name):
                names.append(leaf.id)
            elif isinstance(leaf, ast.Attribute) and isinstance(leaf.value, ast.Name):
                if leaf.value.id == "self":
                    names.append(leaf.attr)
    return names


class _Module:
    def __init__(self, tree: ast.Module, package: str):
        self.names: set = set()
        self.classes: Dict[str, ast.ClassDef] = {}
        #: alias -> (absolute source module, imported name or None)
        self.imports: Dict[str, Tuple[str, Optional[str]]] = {}
        for node in _statements(tree.body):
            if isinstance(node, ast.ClassDef):
                self.classes[node.name] = node
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                self.names.update(_targets(node))
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.imports[alias.asname] = (alias.name, None)
                    else:
                        top = alias.name.split(".")[0]
                        self.imports[top] = (top, None)
            elif isinstance(node, ast.ImportFrom):
                source = node.module or ""
                if node.level:
                    base = package.split(".")[: len(package.split(".")) - node.level + 1]
                    source = ".".join(base + ([node.module] if node.module else []))
                for alias in node.names:
                    self.imports[alias.asname or alias.name] = (source, alias.name)


def _index() -> Dict[str, _Module]:
    modules = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        parts = list(path.relative_to(ROOT / "src").with_suffix("").parts)
        is_package = parts[-1] == "__init__"
        if is_package:
            parts.pop()
        name = ".".join(parts)
        package = name if is_package else ".".join(parts[:-1])
        modules[name] = _Module(ast.parse(path.read_text()), package)
    return modules


MODULES = _index()
_BARE_PATH = re.compile(
    r"(?:%s)(?:\.[A-Za-z_]\w*)+"
    % "|".join(sorted({name.split(".")[1] for name in MODULES if "." in name}))
)
CLASSES: Dict[str, List[ast.ClassDef]] = {}
for _module in MODULES.values():
    for _name, _node in _module.classes.items():
        CLASSES.setdefault(_name, []).append(_node)


def _class_has(node: ast.ClassDef, attr: str, seen=None) -> bool:
    seen = set() if seen is None else seen
    if id(node) in seen:
        return False
    seen.add(id(node))
    for stmt in _statements(node.body):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if stmt.name == attr:
                return True
            if not isinstance(stmt, ast.ClassDef):
                for inner in ast.walk(stmt):
                    if isinstance(inner, (ast.Assign, ast.AnnAssign)):
                        if attr in _targets(inner):
                            return True
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)) and attr in _targets(stmt):
            return True
    for base in node.bases:
        if isinstance(base, ast.Subscript):
            base = base.value
        name = getattr(base, "id", getattr(base, "attr", None))
        if any(_class_has(b, attr, seen) for b in CLASSES.get(name, [])):
            return True
    return False


def _resolves(module: str, rest: List[str]) -> bool:
    if not rest:
        return True
    name, more = rest[0], rest[1:]
    if f"{module}.{name}" in MODULES:
        return _resolves(f"{module}.{name}", more)
    mod = MODULES[module]
    if name in mod.classes:
        return not more or _class_has(mod.classes[name], more[0])
    if name in mod.names:
        return not more
    if name in mod.imports:
        source, imported = mod.imports[name]
        if not source.startswith("repro"):
            return True  # a third-party name: not this check's business
        if imported is None:
            return source in MODULES and _resolves(source, more)
        return source in MODULES and _resolves(source, [imported] + more)
    return False


def _stale(text: str) -> List[str]:
    stale = []
    for path in sorted(set(_REPRO_PATH.findall(text))):
        if not _resolves("repro", path.split(".")[1:]):
            stale.append(path)
    prose = _FENCE.sub("", text)
    for span in _SPAN.finditer(prose):
        path = span.group(2).strip()
        if _BARE_PATH.fullmatch(path) and not _resolves("repro", path.split(".")):
            stale.append(path)
        for cls, attr in _CLASS_ATTR.findall(span.group(2)):
            if cls in CLASSES and not any(_class_has(c, attr) for c in CLASSES[cls]):
                stale.append(f"{cls}.{attr}")
    return sorted(set(stale))


def stale_by_doc() -> Dict[str, List[str]]:
    return {doc: _stale((ROOT / doc).read_text()) for doc in DOCS}


def test_every_named_symbol_resolves():
    assert stale_by_doc() == {doc: [] for doc in DOCS}


def test_the_check_sees_a_stale_name():
    assert _stale(
        "`Evaluator.no_such_method`, `repro.ckks.nowhere` and `plan.passes.nowhere`"
    ) == ["Evaluator.no_such_method", "plan.passes.nowhere", "repro.ckks.nowhere"]
    assert _stale("`Evaluator.rotate`, `CiphertextBatch.join`, `repro.ckks.Evaluator`") == []
    assert _stale("`ckks.evaluator.Evaluator.rotate`, `plan.passes`, `plan.steps 2`") == []


if __name__ == "__main__":
    # stdlib only: ``python tests/test_doc_symbols.py`` (CI's lint job)
    stale = {doc: names for doc, names in stale_by_doc().items() if names}
    for doc, names in stale.items():
        print(f"{doc}: " + ", ".join(names))
    sys.exit(1 if stale else 0)
