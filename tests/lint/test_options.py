"""The options ratchet: every option ``src/`` offers has a caller that sets it.

An option is a defaulted parameter of a public function or method, or a
defaulted field of a public dataclass (an ``__init__`` argument).  One
that no caller in ``src/``, ``bench/``, ``benchmarks/``, ``tests/`` or
``examples/`` ever sets doubles the configurations nothing covers, so it
is a constant in disguise and must be written as one.  The census reads
the trees with :mod:`ast` (nothing is imported) and finds call sites by
name: a call sets an option when it passes it by keyword, passes enough
positional arguments to reach it, or splats ``*args`` / ``**kwargs``;
``dataclasses.replace(obj, field=...)`` sets a field.

The few options kept on purpose are listed below with a reason each.
Run ``python tests/lint/test_options.py`` for the report (stdlib only).
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from census import CALLER_TREES, ROOT, name_of, python_files

#: Dataclasses whose defaulted fields are run state or results (counters,
#: phases, collected records), not configuration: they start at their
#: default and are updated in place.
STATE_CLASSES: Dict[str, str] = {
    "OpCounters": "running op/cycle tallies of an accelerator",
    "KeySwitchStats": "timing summary; the timeline is filled by the sim",
    "TransformStats": "per-stage record collected during a transform",
    "PlanRun": "execution counters the executor increments",
    "BatchGroup": "the requests a lane collects while open",
    "ClusterReport": "router counters",
    "ServingReport": "server counters",
    "SupervisorStats": "supervisor counters",
    "WorkerHealth": "per-worker supervision state machine",
}

#: Single options kept although no caller sets them.
EXEMPT_OPTIONS: Dict[str, str] = {
    "ResilientClient(clock)": "injectable clock: the test seam rule R3 relies on",
    "ProcessWorkerHandle(clock)": "injectable clock: the test seam rule R3 relies on",
    "AsyncFrontDoor(host)": "deployment setting of the socket front door",
    "AsyncFrontDoor(port)": "deployment setting of the socket front door",
    "RequestQueue(closed)": "queue state flipped by the drain protocol",
    "NoiseEstimate.decryptable(message_magnitude)": "repro.ckks.noise: ROADMAP item 3 adopts it",
    "NoiseModel.multiply_plain(plain_magnitude)": "repro.ckks.noise: ROADMAP item 3 adopts it",
    "NoiseBudget.depth_capacity(message_magnitude)": "repro.ckks.noise: ROADMAP item 3 adopts it",
}


@dataclass(frozen=True)
class Option:
    """One defaulted parameter: how a call reaches it, where it is defined."""

    cls: Optional[str]
    func: str
    param: str
    #: index among the positional parameters (``self`` excluded);
    #: ``None`` for keyword-only parameters
    position: Optional[int]
    where: str

    @property
    def call_name(self) -> str:
        """The name a call site uses: the class for its constructor."""
        return self.cls if self.func == "__init__" else self.func

    @property
    def ident(self) -> str:
        if self.func == "__init__":
            return f"{self.cls}({self.param})"
        owner = f"{self.cls}.{self.func}" if self.cls else self.func
        return f"{owner}({self.param})"


def _is_init_false(value: Optional[ast.expr]) -> bool:
    return (
        isinstance(value, ast.Call)
        and name_of(value) == "field"
        and any(
            kw.arg == "init" and isinstance(kw.value, ast.Constant) and kw.value.value is False
            for kw in value.keywords
        )
    )


def _dataclass_fields(cls: ast.ClassDef, where: str) -> Iterator[Option]:
    position = 0
    for stmt in cls.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(stmt.annotation) or _is_init_false(stmt.value):
            continue
        name = stmt.target.id
        if stmt.value is not None and not name.startswith("_"):
            yield Option(cls.name, "__init__", name, position, f"{where}:{stmt.lineno}")
        position += 1


def _function_options(
    func: ast.FunctionDef, cls: Optional[str], where: str
) -> Iterator[Option]:
    args = func.args.posonlyargs + func.args.args
    if cls is not None and args and args[0].arg in ("self", "cls"):
        args = args[1:]
    first_default = len(args) - len(func.args.defaults)
    for i, arg in enumerate(args[first_default:], start=first_default):
        yield Option(cls, func.name, arg.arg, i, f"{where}:{func.lineno}")
    for arg, default in zip(func.args.kwonlyargs, func.args.kw_defaults):
        if default is not None:
            yield Option(cls, func.name, arg.arg, None, f"{where}:{func.lineno}")


def collect_options(root: Path = ROOT) -> List[Option]:
    """Every option of ``root/src``'s public functions, methods and dataclasses."""
    options: List[Option] = []
    for path in python_files(root, "src"):
        where = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not node.name.startswith("_"):
                    options.extend(_function_options(node, None, where))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                if any(name_of(d) == "dataclass" for d in node.decorator_list):
                    options.extend(_dataclass_fields(node, where))
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                        item.name == "__init__" or not item.name.startswith("_")
                    ):
                        options.extend(_function_options(item, node.name, where))
    return options


#: one call site: positional count, keywords passed, whether it splats
CallSite = Tuple[int, Set[str], bool]


def collect_calls(root: Path = ROOT) -> Dict[str, List[CallSite]]:
    """Call sites under every caller tree, keyed by the called name."""
    calls: Dict[str, List[CallSite]] = {}
    for tree_name in CALLER_TREES:
        for path in python_files(root, tree_name):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                name = name_of(node)
                if not name:
                    continue
                splat = any(isinstance(a, ast.Starred) for a in node.args) or any(
                    kw.arg is None for kw in node.keywords
                )
                keywords = {kw.arg for kw in node.keywords if kw.arg}
                calls.setdefault(name, []).append((len(node.args), keywords, splat))
    return calls


def unset_options(root: Path = ROOT) -> List[Option]:
    """Options that no call site under ``root`` sets."""
    calls = collect_calls(root)
    replaced = {kw for _, keywords, _ in calls.get("replace", []) for kw in keywords}

    def is_set(option: Option) -> bool:
        if option.func == "__init__" and option.param in replaced:
            return True
        for positional, keywords, splat in calls.get(option.call_name, []):
            if splat or option.param in keywords:
                return True
            if option.position is not None and positional > option.position:
                return True
        return False

    return [option for option in collect_options(root) if not is_set(option)]


def unexempted(options: List[Option]) -> List[Option]:
    return [
        o for o in options
        if o.ident not in EXEMPT_OPTIONS
        and not (o.func == "__init__" and o.cls in STATE_CLASSES)
    ]


def test_every_option_has_a_caller_that_sets_it():
    offenders = unexempted(unset_options())
    assert not offenders, "options no caller sets (make them constants):\n" + "\n".join(
        f"  {o.ident}  {o.where}" for o in offenders
    )


def test_every_exemption_is_still_needed():
    """An exemption whose option is gone, or now has a setter, is removed."""
    unset = unset_options()
    live = {o.ident for o in unset}
    assert sorted(set(EXEMPT_OPTIONS) - live) == []
    state_with_unset = {o.cls for o in unset if o.func == "__init__"}
    assert sorted(set(STATE_CLASSES) - state_with_unset) == []


def test_census_finds_a_planted_option(tmp_path):
    src = tmp_path / "src" / "repro"
    src.mkdir(parents=True)
    (src / "m.py").write_text(
        "from dataclasses import dataclass, field\n"
        "def never(a, b=1): pass\n"
        "def positional(a, b=1): pass\n"
        "def _private(a, b=1): pass\n"
        "class C:\n"
        "    def __init__(self, x, y=2, *, z=3): pass\n"
        "    def method(self, a, b=1): pass\n"
        "@dataclass\n"
        "class D:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "    w: int = field(init=False, default=0)\n"
        "    v: int = 5\n"
    )
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "t.py").write_text(
        "positional(1, 2)\nC(1, z=4)\nobj.method(**kw)\nreplace(d, v=6)\n"
    )
    found = sorted(o.ident for o in unset_options(tmp_path))
    assert found == ["C(y)", "D(y)", "never(b)"]


if __name__ == "__main__":
    # stdlib only: ``python tests/lint/test_options.py`` (CI's lint job)
    offenders = unexempted(unset_options())
    for option in offenders:
        print(f"{option.where}: {option.ident} is never set; make it a constant")
    print(f"options ratchet: {len(collect_options())} options, {len(offenders)} never set")
    sys.exit(1 if offenders else 0)
