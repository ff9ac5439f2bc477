"""R2 -- the sealed backend kernel surface.

:class:`~repro.ckks.backend.base.PolynomialBackend` declares its public
kernels in two tuples.  ``PRIMITIVES`` are what a backend implements,
once each; ``DERIVED`` are one-expression conveniences the base class
builds from the primitives.  Every count and residency assertion trusts
that a derived name reaches a backend *only* through its primitives --
``decompose`` once had its own path around the counting wrapper and
escaped the counters for five PRs.  The split holds while:

* the two tuples partition the interface's public methods;
* no implementation (``ReferenceBackend`` / ``NumpyBackend`` /
  ``CountingBackend``) overrides a derived name, or adds a public method
  that names no primitive (a typo'd override silently never dispatches);
* every primitive an implementation defines keeps the base parameter
  names, shape and defaults (a drifted signature breaks backend
  interchangeability one keyword-call at a time, a default one
  shortened call at a time: when ``permute_ntt_stack`` learned to take
  a matrix of tables it stayed ``(stack, table)`` on all three
  backends, with no ``tables=None`` beside it on one of them);
* a *wrapping* implementation defines every primitive, the concrete
  ones included -- an inherited body would run against the wrapper
  instead of the backend it wraps;
* nothing under ``src/repro`` outside the interface's own package calls
  a derived name on a backend object, so that deleting the 19 names
  stays a pure removal.

A *project* rule: it reads the interface's tuples and class AST together
with every implementation and caller module.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.lint.core import (
    Finding,
    Rule,
    SourceModule,
    SymbolTrackingVisitor,
    module_matches,
)

#: Where the interface and its implementations live (dotted, class).
BASE_MODULE = "repro.ckks.backend.base"
BASE_CLASS = "PolynomialBackend"

#: mode "wrap": must define every primitive; mode "override": may
#: inherit the concrete ones.
IMPLEMENTATIONS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.ckks.backend.reference", "ReferenceBackend", "override"),
    ("repro.ckks.backend.numpy_backend", "NumpyBackend", "override"),
    ("repro.ckks.backend.counting", "CountingBackend", "wrap"),
)

#: Public helper methods implementations may add beyond the interface.
ALLOWED_EXTRA_METHODS = frozenset({"reset", "supports"})

#: How the code base spells "a backend object": these names and
#: attributes, the registry's accessors, and any name assigned from one.
BACKEND_NAMES = frozenset({"be", "backend"})
BACKEND_ATTRS = frozenset({"backend", "_backend", "inner"})
BACKEND_ACCESSORS = frozenset(
    {"get_backend", "resolve_backend", "create_backend", "set_backend"}
)


def _decorator_names(node: ast.FunctionDef) -> List[str]:
    names = []
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute):
            names.append(target.attr)
        elif isinstance(target, ast.Name):
            names.append(target.id)
    return names


@dataclass(frozen=True)
class _MethodSig:
    """Comparable shape of one method: names and kinds of parameters."""

    args: Tuple[str, ...]     #: positional parameter names (minus self)
    vararg: Optional[str]
    kwonly: Tuple[str, ...]
    kwarg: Optional[str]
    optional: Tuple[str, ...]  #: the parameters that carry a default

    def describe(self) -> str:
        parts = [a + "=..." if a in self.optional else a for a in self.args]
        if self.vararg:
            parts.append("*" + self.vararg)
        elif self.kwonly:
            parts.append("*")
        parts.extend(k + "=..." if k in self.optional else k for k in self.kwonly)
        if self.kwarg:
            parts.append("**" + self.kwarg)
        return "(" + ", ".join(parts) + ")"


def _signature_of(node: ast.FunctionDef, drop_self: bool) -> _MethodSig:
    a = node.args
    positional = [arg.arg for arg in a.posonlyargs + a.args]
    optional = positional[len(positional) - len(a.defaults):] + [
        arg.arg for arg, default in zip(a.kwonlyargs, a.kw_defaults) if default
    ]
    if drop_self and positional and positional[0] in ("self", "cls"):
        positional = positional[1:]
    return _MethodSig(
        args=tuple(positional),
        vararg=a.vararg.arg if a.vararg else None,
        kwonly=tuple(arg.arg for arg in a.kwonlyargs),
        kwarg=a.kwarg.arg if a.kwarg else None,
        optional=tuple(optional),
    )


def _class_def(module: SourceModule, class_name: str) -> Optional[ast.ClassDef]:
    for node in module.tree.body:
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            return node
    return None


def _string_tuple(module: SourceModule, name: str) -> Optional[FrozenSet[str]]:
    """The module-level ``name = ("...", ...)`` tuple, as a set."""
    for node in module.tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)
            and isinstance(node.value, ast.Tuple)
        ):
            return frozenset(
                e.value for e in node.value.elts if isinstance(e, ast.Constant)
            )
    return None


def _public_instance_methods(
    cls: ast.ClassDef,
) -> Dict[str, ast.FunctionDef]:
    """Public instance methods of a class AST (no properties, no
    static/class methods, no dunders/privates)."""
    out: Dict[str, ast.FunctionDef] = {}
    for node in cls.body:
        if not isinstance(node, ast.FunctionDef):
            continue
        if node.name.startswith("_"):
            continue
        decorators = _decorator_names(node)
        if {"property", "setter", "staticmethod", "classmethod"} & set(decorators):
            continue
        out[node.name] = node
    return out


def _is_backend(node: ast.AST, aliases: FrozenSet[str]) -> bool:
    """True when ``node`` is spelled the way backend objects are."""
    if isinstance(node, ast.Name):
        return node.id in aliases
    if isinstance(node, ast.Attribute):
        return node.attr in BACKEND_ATTRS
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        return name in BACKEND_ACCESSORS
    if isinstance(node, ast.IfExp):
        return _is_backend(node.body, aliases) or _is_backend(node.orelse, aliases)
    if isinstance(node, ast.BoolOp):
        return any(_is_backend(v, aliases) for v in node.values)
    return False


class _DerivedCallVisitor(SymbolTrackingVisitor):
    """Collects ``<backend>.<derived kernel>(...)`` calls of one module."""

    def __init__(self, derived: FrozenSet[str], aliases: FrozenSet[str]) -> None:
        super().__init__()
        self.derived = derived
        self.aliases = aliases
        self.hits: List[Tuple[ast.Call, str]] = []

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in self.derived
            and _is_backend(func.value, self.aliases)
        ):
            self.hits.append((node, self.symbol))
        self.generic_visit(node)


class BackendConformanceRule(Rule):
    """Backends implement the primitives; nobody else's code needs more."""

    id = "R2"
    title = "sealed PolynomialBackend kernel surface"
    invariant_origin = (
        "PR 1 (backend layer) / PR 4 (CountingBackend assertions) / "
        "PR 17 (primitives and derived names)"
    )

    def __init__(
        self,
        base_module: str = BASE_MODULE,
        base_class: str = BASE_CLASS,
        implementations: Tuple[Tuple[str, str, str], ...] = IMPLEMENTATIONS,
    ):
        self.base_module = base_module
        self.base_class = base_class
        self.implementations = implementations

    def check_project(
        self, modules: Dict[str, SourceModule]
    ) -> Iterable[Finding]:
        base_mod = modules.get(self.base_module)
        if base_mod is None:
            return ()  # partial run without the interface: nothing to hold
        base_cls = _class_def(base_mod, self.base_class)
        primitives = _string_tuple(base_mod, "PRIMITIVES")
        derived = _string_tuple(base_mod, "DERIVED")
        if base_cls is None or primitives is None or derived is None:
            return (
                self.finding(
                    base_mod,
                    base_mod.tree,
                    "<module>",
                    f"{self.base_module} must define class {self.base_class} "
                    "and the PRIMITIVES / DERIVED tuples of kernel names",
                ),
            )
        kernels = _public_instance_methods(base_cls)
        findings: List[Finding] = []
        for name in sorted(set(kernels) ^ (primitives | derived)):
            findings.append(
                self.finding(
                    base_mod,
                    kernels.get(name, base_cls),
                    f"{self.base_class}.{name}",
                    f"kernel {name!r} must be both a public method of "
                    f"{self.base_class} and listed in PRIMITIVES or DERIVED",
                )
            )
        for impl_module, impl_class, mode in self.implementations:
            impl_mod = modules.get(impl_module)
            if impl_mod is None:
                continue
            impl_cls = _class_def(impl_mod, impl_class)
            if impl_cls is None:
                findings.append(
                    self.finding(
                        impl_mod,
                        impl_mod.tree,
                        "<module>",
                        f"implementation class {impl_class} not found in "
                        f"{impl_module}",
                    )
                )
                continue
            findings.extend(
                self._check_implementation(
                    impl_mod, impl_cls, mode, kernels, primitives, derived
                )
            )
        home = self.base_module.rpartition(".")[0]
        for module in modules.values():
            if module_matches(module.module, ("repro",)) and not module_matches(
                module.module, (home,)
            ):
                findings.extend(self._check_callers(module, derived))
        return findings

    def _check_implementation(
        self, impl_mod, impl_cls, mode, kernels, primitives, derived
    ) -> Iterable[Finding]:
        impl_class = impl_cls.name
        methods = _public_instance_methods(impl_cls)
        if mode == "wrap":
            for name in sorted(primitives - set(methods)):
                yield self.finding(
                    impl_mod,
                    impl_cls,
                    f"{impl_class}.{name}",
                    f"{impl_class} does not wrap kernel {name!r}; the "
                    "inherited body runs against the wrapper instead of "
                    "the backend it wraps, corrupting the instrumentation "
                    "counts",
                )
        for name, node in sorted(methods.items()):
            symbol = f"{impl_class}.{name}"
            if name in derived:
                yield self.finding(
                    impl_mod,
                    node,
                    symbol,
                    f"{impl_class} overrides derived kernel {name!r}: "
                    f"{self.base_class} derives it from the primitives, and "
                    "a second body is a second path around the counters",
                )
            elif name in primitives and name in kernels:
                base_sig = _signature_of(kernels[name], drop_self=True)
                impl_sig = _signature_of(node, drop_self=True)
                if base_sig != impl_sig:
                    yield self.finding(
                        impl_mod,
                        node,
                        symbol,
                        f"signature drift on kernel {name!r}: "
                        f"{impl_class} has {impl_sig.describe()}, "
                        f"{self.base_class} declares "
                        f"{base_sig.describe()}; keyword call sites "
                        "stop being backend-interchangeable",
                    )
            elif name not in ALLOWED_EXTRA_METHODS:
                yield self.finding(
                    impl_mod,
                    node,
                    symbol,
                    f"public method {name!r} names no "
                    f"{self.base_class} primitive: prefix it as private, "
                    "or fix the typo'd override that silently never "
                    "dispatches",
                )

    def _check_callers(
        self, module: SourceModule, derived: FrozenSet[str]
    ) -> Iterable[Finding]:
        aliases = set(BACKEND_NAMES)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assign) and _is_backend(node.value, frozenset(aliases)):
                aliases.update(t.id for t in node.targets if isinstance(t, ast.Name))
        visitor = _DerivedCallVisitor(derived, frozenset(aliases))
        visitor.visit(module.tree)
        for node, symbol in visitor.hits:
            yield self.finding(
                module,
                node,
                symbol,
                f"call of derived kernel {node.func.attr!r} on a backend: "
                "pass the matrix or one-row stack you hold to the primitive "
                f"it is derived from (see {self.base_module})",
            )
