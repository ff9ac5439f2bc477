"""The source walk both ratchets share: which trees, which files, which name.

``test_options.py`` (every option has a caller that sets it) and
``test_reachability.py`` (every symbol has a caller outside the tests)
read the same trees with :mod:`ast`; nothing here imports them.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent.parent

#: the trees whose code reaches ``src/`` on its own: the library, the
#: benchmark, the paper reproductions and the examples
REACH_TREES = ("src", "bench", "benchmarks", "examples")
#: every tree that calls into ``src/``
CALLER_TREES = REACH_TREES + ("tests",)


def python_files(root: Path, tree: str) -> Iterator[Path]:
    base = root / tree
    if base.exists():
        yield from sorted(p for p in base.rglob("*.py") if "__pycache__" not in p.parts)


def name_of(node: ast.expr) -> str:
    """``f`` for ``f``, ``a.f``, ``f(...)`` and ``a.f(...)``."""
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Attribute):
        return target.attr
    return getattr(target, "id", "")
