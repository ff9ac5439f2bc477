"""The census: which code of ``src/`` runs or is named, and why the rest stays.

Three passes read ``src/``, and each holds what it finds to the one
``EXEMPT`` table below:

* **the name pass** (static, the census's pre-pass; tier-1 runs it
  through ``tests/lint/test_reachability.py``): every top-level function
  or class of ``src/``, and every method of such a class (dunders aside),
  is named in ``src/``, ``bench/``, ``benchmarks/`` or ``examples/``
  outside its own body -- as a name, an attribute, or a string constant
  spelled like an identifier (``getattr``, op-name dispatch).  A name
  ``src/`` only lists (``__all__``, ``base.DERIVED``) is declared, not
  used; ``visit_<Node>`` methods are dispatched by name, exempt by rule.
  A method several classes define is named when any one is; the census
  sees each of those statement by statement.  The census counts every
  class body as entered (it runs at import), so a class nothing names
  shows only to this pass;
* **the options pass** (static; tier-1 runs it through
  ``tests/lint/test_options.py``): every defaulted parameter of a public
  function or method, and every defaulted field of a public dataclass,
  is set by a call in ``src/``, ``bench/``, ``benchmarks/``, ``tests/``
  or ``examples/`` -- by keyword, by enough positional arguments, by a
  ``*`` / ``**`` splat, or (a field) by ``dataclasses.replace``;
* **the execution census** (traced, ``make census``): every statement
  (an AST statement start, not counting ``def``, ``class``, ``import``,
  ``global`` / ``nonlocal`` or a docstring) falls in one of three
  buckets:

  * ``product`` -- it runs in a product run: the seven examples, the
    ``benchmarks/bench_*.py`` files (traced timing gates fail, so none
    stops the others), ``bench/run.py --workload <each> --seconds 1``
    with ``--trace 0`` and ``--trace 1``, and ``python -m repro.lint src
    --json ...`` as CI's lint job runs it;
  * ``tier1_only`` -- only the tier-1 suite runs it;
  * ``neither`` -- nothing runs it.

  Each run is traced line by line (``tools/census_site/sitecustomize.py``
  on ``PYTHONPATH``; forked workers included) and folded into
  ``census.json``: the three buckets per module, every never-run
  statement, and every function that no product run enters.

What a pass finds is deleted, tested, reached, set, or listed in
``EXEMPT`` with its reason.  A ``file:scope`` entry covers a function
(or class) the name pass finds unnamed or no product run enters, with
everything in it; a never-run statement of a function that a product
run does enter is covered only by its own ``file:scope:line`` entry, so
the rest of that function stays under the count.  An option nothing
sets takes ``file:Class(param)``, ``file:Class.method(param)`` or
``file:func(param)``, and a dataclass of run state, every field of
which starts at its default, takes ``file:Class(*)``.  An entry that no
pass uses is stale: tier-1 judges the census's part by the committed
``census.json``, ``make census`` by the fresh one.

    python tools/census.py   # pre-passes, trace, write census.json, check (make census)

It exits non-zero if a pre-pass finds an unexempted symbol or option,
if the unexempted never-run or unentered count rises above the
committed ``census.json``'s, or if an ``EXEMPT`` entry is stale.
Stdlib only; ``tests/test_census.py`` holds the committed file's shape.
"""

from __future__ import annotations

import ast
import functools
import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
CENSUS = ROOT / "census.json"
SITE = Path(__file__).resolve().parent / "census_site"

_BASE = "src/repro/ckks/backend/base.py:PolynomialBackend."
_NUMPY = "src/repro/ckks/backend/numpy_backend.py:NumpyBackend."
_WORKER = "src/repro/serving/worker.py:"
_LINT = "src/repro/lint/"
_DERIVED = "a base.DERIVED convenience, kept for tests, benchmarks and bench/trace.py's frozen " \
    "KERNELS table; ROADMAP 6(a) deletes the DERIVED names"
_FALLBACK = "the numpy backend's out-of-envelope branch: a row that is not one machine word, " \
    "or a prime past the word bound, is served by self._fallback, the reference kernel"
_FRONT_DOOR = "the TCP front door: the deployment surface of a served cluster (ROADMAP 5); " \
    "no benchmark row opens a socket"
_DRAIN = "operator API: graceful worker removal and rejoin, the drain half of the session " \
    "protocol ROADMAP 5(a) specifies; test_cluster_faults.py drains both transports"
_OPERATOR = "operator API: one call of ServingCluster.transition, which the supervisor " \
    "calls itself; the fault suites kill and restart workers through it"
_PROGRAM = "a program registered at a cluster (every live worker, and each restart); " \
    "test_transport_contract.py holds it on both transports"
_CONJUGATE = "the served conjugate lane (server.py's step table), which no benchmark row " \
    "serves; test_server.py, test_lane_property.py and test_rotation.py hold it"
_LINT_BRANCH = "a repro.lint rule branch for a construct no file of src/ contains; the " \
    "product run lints src/, and tests/lint plants each rule's violations"
_GUARD = "a can't-happen guard after an exhaustive search or a closed op set"
_PAPER = "a paper model the tests hold to its paper figure"

#: the one exemption table of every pass: ``file:scope``, ``file:scope:line``,
#: ``file:Class(param)`` (or ``.method(param)``) and ``file:Class(*)`` -> why
EXEMPT: Dict[str, str] = {
    **{_BASE + name: _DERIVED for name in (
        "add", "sub", "negate", "dyadic_mul", "make_rows", "get_row", "insert_row",
        "decompose", "add_stack", "negate_stack", "dyadic_mul_stack", "dyadic_mac_stack",
        "apply_galois_stack", "scalar_mul", "scalar_mac", "reduce_mod")},
    **{_NUMPY + line: _FALLBACK for line in (
        "_lift:630", "_lift:637", "from_rows:651", "copy_rows:666", "select_rows:683",
        "native_stack:695", "_ntt_rows:772", "_ntt_rows:773", "_ntt_rows:783", "_ntt_rows:784",
        "reduce_mod_stack:819", "reduce_mod_stack:823", "sub_stack:834",
        "permute_ntt_stack:872", "permute_ntt_stack:880")},
    "src/repro/ckks/backend/reference.py:ReferenceBackend": "the reference backend: CI's "
    "second leg and the oracle every backend test compares against",
    "src/repro/ckks/backend/reference.py:_galois": "the reference backend's Galois map",
    "src/repro/serving/cluster.py:AsyncFrontDoor": _FRONT_DOOR,
    "src/repro/serving/cluster.py:ServingCluster.client_inflight": _FRONT_DOOR,
    "src/repro/serving/framing.py:read_frame": _FRONT_DOOR,
    "src/repro/serving/framing.py:FrameDecoder.next_frame": _FRONT_DOOR,
    "src/repro/serving/framing.py:StreamProtocolError": _FRONT_DOOR,
    "src/repro/serving/cluster.py:ServingCluster.drain_worker": _DRAIN,
    "src/repro/serving/cluster.py:ServingCluster.rejoin_worker": _DRAIN,
    "src/repro/serving/cluster.py:ServingCluster.kill_worker": _OPERATOR,
    "src/repro/serving/cluster.py:ServingCluster.restart_worker": _OPERATOR,
    "src/repro/serving/server.py:EncryptedComputeServer.stop_admitting": _DRAIN,
    "src/repro/serving/server.py:EncryptedComputeServer.resume_admitting": _DRAIN,
    _WORKER + "WorkerHandle.begin_drain": _DRAIN,
    _WORKER + "WorkerHandle.resume": _DRAIN,
    "src/repro/serving/cluster.py:ServingCluster.register_program": _PROGRAM,
    _WORKER + "WorkerHandle.register_program": _PROGRAM,
    "src/repro/plan/graph.py:PlanGraph.conjugate": _CONJUGATE,
    "src/repro/ckks/evaluator.py:Evaluator.conjugate": _CONJUGATE,
    "src/repro/serving/server.py:EncryptedComputeServer._answer_error": "answers a flush "
    "member with an ERROR: a payload that does not unpack, a deadline that expires while "
    "batching, an executor fault; test_decode_once.py and test_reliability.py drive each",
    "src/repro/serving/traffic.py:ResilientClient.poll:280": "a terminal frame for a request "
    "already settled (a late duplicate after a retry); the chaos suite's retries settle first",
    "src/repro/serving/traffic.py:zlib_seed": "ResilientClient's default backoff seed; the "
    "reliability benchmark passes its own backoff",
    "src/repro/ckks/backend/counting.py:CountingBackend.sub_rows": "the counting wrapper "
    "defines all 27 primitives (lint R2); no product run subtracts under a counter",
    "src/repro/ckks/backend/counting.py:CountingBackend.native_is_python": "the wrapper "
    "reports the representation of the backend it wraps; nothing in a product run asks",
    "src/repro/serving/framing.py:Frame.error_message": "an ERROR frame's text, read where a "
    "client meets a refusal (SyntheticTenant.decrypt_response) and by every refusal test",
    "src/repro/serving/supervisor.py:HeartbeatSupervisor.run": "the supervisor on a "
    "ManualClock: the chaos suite's deterministic time (a served cluster ticks it instead)",
    "src/repro/bfv/scheme.py:_find_plain_modulus:66": _GUARD,
    "src/repro/ckks/primes.py:primitive_root:158": _GUARD,
    "src/repro/core/dataflow.py:KeySwitchDataflowSim.minimum_sufficient_buffers:121": _GUARD,
    "src/repro/plan/executor.py:PlanExecutor._apply:360": _GUARD,
    "src/repro/plan/lower.py:workload_graph.ways:249": _GUARD + " (Workload checks its primitives)",
    "src/repro/bfv/scheme.py:BfvEvaluator.add_plain": "BFV's plaintext add, the scheme's "
    "API beside multiply_plain; test_bfv.py holds it",
    "src/repro/ckks/encryptor.py:Encryptor._encrypt_symmetric": "SymEnc, the secret-key "
    "encryption of the paper's Section 2; test_encrypt_decrypt.py holds it",
    "src/repro/ckks/primes.py:primitive_2nth_root": "the public root-search contract (least "
    "primitive 2n-th root); NTTTables gathers psi from the same search",
    "src/repro/ckks/sampling.py:_libm_gauss": "the exact libm repair of a Gaussian draw a "
    "hair from a rounding tie (test_sampling.py::TestTieRepair); a product draw rarely ties",
    "src/repro/ckks/poly.py:RnsPolynomial.__eq__": "value equality, the comparison every "
    "bit-identity test makes",
    "src/repro/ckks/rns.py:RnsBasis.compose": "Section 2's CRT inverse map: compose_rows' "
    "scalar path past the word bound",
    "src/repro/ckks/rns.py:RnsBasis.decompose": "Section 2's CRT map, compose's inverse",
    "src/repro/ckks/rns.py:RnsBasis.punctured_product": "Section 2's CRT constants",
    "src/repro/ckks/rns.py:RnsBasis.punctured_inverse": "Section 2's CRT constants",
    "src/repro/obs.py:EventLog.__iter__": "the log read event by event, as the conservation "
    "oracle (tests/serving/conservation.py) reads every served cluster's",
    **{"src/repro/core/arch.py:KeySwitchArchitecture.throughput_balanced:" + line: _PAPER
       + " (Section 4.3's balance rules); every derived architecture balances"
       for line in ("156", "160", "162")},
    "src/repro/core/accelerator.py:HeaxAccelerator.resource_vector": _PAPER + " (Table 6)",
    "src/repro/core/accelerator.py:HeaxAccelerator.utilization": _PAPER + " (Table 6)",
    "src/repro/core/memory.py:BankedMemory.layout": _PAPER + " (Figure 2's banking)",
    "src/repro/core/memory.py:MemoryLayout.utilization": _PAPER + " (Figure 2's banking)",
    "src/repro/core/mult_module.py:MultModuleSim.dyadic_multiply": _PAPER + " (Figure 4)",
    "src/repro/core/ntt_module.py:NTTModuleSim.run_inverse": _PAPER + " (Table 3)",
    "src/repro/core/ntt_module.py:TransformStats.latency_cycles": _PAPER + " (Table 3)",
    "src/repro/system/scheduler.py:HostScheduler.run_executed": "a measured run through "
    "Figure 7's pipeline (Section 5.2); ROADMAP item 17 derives modeled time from the same rows",
    "src/repro/plan/executor.py:PlanRun.scheduled_ops": "the measured step stream "
    "HostScheduler.run_executed reads",
    **{_LINT + key: _LINT_BRANCH for key in (
        "core.py:Finding.__str__",
        "rules/conformance.py:_MethodSig.describe", "rules/conformance.py:_class_def:124",
        "rules/conformance.py:_string_tuple:138",
        "rules/conformance.py:BackendConformanceRule.check_project:226",
        "rules/conformance.py:BackendConformanceRule.check_project:253",
        "rules/conformance.py:BackendConformanceRule.check_project:262",
        "rules/determinism.py:_DeterminismVisitor._flag",
        "rules/determinism.py:_DeterminismVisitor.visit_ImportFrom:97",
        "rules/determinism.py:_DeterminismVisitor.visit_ImportFrom:98",
        "rules/determinism.py:_DeterminismVisitor.visit_ImportFrom:99",
        "rules/exceptions.py:_exception_names:60", "rules/exceptions.py:_is_broad:73",
        "rules/exceptions.py:_call_name:82", "rules/exceptions.py:_call_name:83",
        "rules/exceptions.py:_call_name:84", "rules/exceptions.py:_mentions_error_frame",
        "rules/exceptions.py:_handler_is_accounted:111",
        "rules/exceptions.py:_handler_is_accounted:116",
        "rules/exceptions.py:_handler_is_accounted:127",
        "rules/planner.py:_RotateLoopVisitor.visit_AsyncFor",
        "rules/planner.py:_RotateLoopVisitor._flag_import")},
    "src/repro/serving/traffic.py:ResilientClient(clock)": "injectable clock: the test seam "
    "rule R3 relies on",
    "src/repro/serving/worker.py:ProcessWorkerHandle(clock)": "injectable clock: the test seam "
    "rule R3 relies on",
    "src/repro/serving/cluster.py:AsyncFrontDoor(host)": "deployment setting of the socket "
    "front door",
    "src/repro/serving/cluster.py:AsyncFrontDoor(port)": "deployment setting of the socket "
    "front door",
    "src/repro/serving/queue.py:RequestQueue(closed)": "queue state flipped by the drain protocol",
    **{"src/repro/serving/server.py:EncryptedComputeServer.open_session(" + param: "set by every "
       "router registration, through the worker command table (worker.COMMANDS), which names "
       "no call site" for param in ("galois_blobs)", "wire_version)")},
    # dataclasses of run state or results, not configuration: their fields
    # start at their defaults and are updated in place
    "src/repro/core/accelerator.py:OpCounters(*)": "running op/cycle tallies of an accelerator",
    "src/repro/core/keyswitch_module.py:KeySwitchStats(*)": "timing summary; the timeline is "
    "filled by the sim",
    "src/repro/core/ntt_module.py:TransformStats(*)": "per-stage record collected during a "
    "transform",
    "src/repro/plan/executor.py:PlanRun(*)": "execution counters the executor increments",
    "src/repro/serving/batcher.py:BatchGroup(*)": "the requests a lane collects while open",
    "src/repro/serving/supervisor.py:WorkerHealth(*)": "per-worker supervision state machine",
}

# -- the one source walk ----------------------------------------------------

#: the trees whose code reaches ``src/`` on its own: the library, the
#: benchmark, the paper reproductions and the examples
REACH_TREES = ("src", "bench", "benchmarks", "examples")
#: every tree that calls into ``src/``
CALLER_TREES = REACH_TREES + ("tests",)
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
#: one call site: positional count, keywords passed, whether it splats
CallSite = Tuple[int, Set[str], bool]


def parsed(root: Path, tree: str) -> Iterator[Tuple[str, ast.Module]]:
    """``(path, module)`` of every file under ``root/tree``."""
    for file in sorted((root / tree).rglob("*.py")):
        yield file.relative_to(root).as_posix(), ast.parse(file.read_text(encoding="utf-8"))


class Facts(NamedTuple):
    """What the static passes read of the trees under one root."""

    symbols: List["Symbol"]  # of src/
    options: List["Option"]  # of src/
    names: Dict[str, Dict[str, Set[str]]]  # tree -> name -> the definitions using it
    calls: Dict[str, List[CallSite]]  # called name -> its call sites in every tree


@functools.lru_cache(maxsize=None)
def facts(root: Path) -> Facts:
    """One walk of every tree under ``root``: each file is parsed once, and
    its syntax tree is dropped as soon as it is read (keeping every tree
    alive would slow each later garbage collection of the process)."""
    out = Facts([], [], {}, {})
    for tree in CALLER_TREES:
        names = out.names.setdefault(tree, {})
        for path, module in parsed(root, tree):
            if tree == "src":
                out.symbols.extend(_symbols(module, path))
                out.options.extend(_options(module, path))
            for name, owners in _names_used(module, declared_only=tree == "src").items():
                names.setdefault(name, set()).update(owners)
            for name, site in _calls(module):
                out.calls.setdefault(name, []).append(site)
    return out


def name_of(node: ast.expr) -> str:
    """``f`` for ``f``, ``a.f``, ``f(...)`` and ``a.f(...)``."""
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Attribute):
        return target.attr
    return getattr(target, "id", "")


# -- the name pass ----------------------------------------------------------


@dataclass(frozen=True)
class Symbol:
    """One top-level function or class, or one method of a top-level class."""

    cls: Optional[str]
    name: str
    where: str  # src/...:line
    lines: int

    @property
    def ident(self) -> str:
        return f"{self.cls}.{self.name}" if self.cls else self.name

    @property
    def key(self) -> str:
        """Its ``file:scope`` ``EXEMPT`` key."""
        return f"{self.where.rsplit(':', 1)[0]}:{self.ident}"


def _symbols(module: ast.Module, where: str) -> Iterator[Symbol]:
    for node in module.body:
        if not isinstance(node, _DEFS) or node.name.startswith("__"):
            continue
        yield Symbol(None, node.name, f"{where}:{node.lineno}", node.end_lineno - node.lineno + 1)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _DEFS[:2]) and not item.name.startswith("__"):
                    size = item.end_lineno - item.lineno + 1
                    yield Symbol(node.name, item.name, f"{where}:{item.lineno}", size)


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


def name_pass(root: Path) -> Dict[str, List[Symbol]]:
    """The symbols by verdict: ``unreached`` (named by tests only, or
    nowhere) and ``visitor`` (exempt by rule)."""
    symbols, _, names, _ = facts(root)

    def reached(s: Symbol) -> bool:
        for tree in REACH_TREES:
            for owner in names[tree].get(s.name, ()):
                # a use inside the symbol's own body is recursion, not a reach
                if tree != "src" or (owner + ".").find(s.ident + ".") != 0:
                    return True
        return False

    visitor = [s for s in symbols if s.cls and s.name.startswith("visit_")]
    return {"unreached": [s for s in symbols if s not in visitor and not reached(s)],
            "visitor": visitor}


def unexempted_symbols(root: Path = ROOT) -> List[Symbol]:
    return [s for s in name_pass(root)["unreached"] if not scope_exemption(s.key)]


def report_names(root: Path = ROOT) -> int:
    """Print the name pass's report; return its unexempted count."""
    verdicts, offenders = name_pass(root), unexempted_symbols(root)
    for s in offenders:
        seen = "named only by tests" if s.name in facts(root).names["tests"] else "named nowhere"
        print(f"{s.where}: {s.ident} ({s.lines} lines) is {seen}")
    exempt = [s for s in verdicts["unreached"] if s not in offenders]
    print(f"name pass: {len(facts(root).symbols)} symbols, {len(offenders)} unreached, "
          f"{len(exempt)} exempt ({sum(s.lines for s in exempt)} lines), "
          f"{len(verdicts['visitor'])} visitor methods")
    return len(offenders)


# -- the options pass -------------------------------------------------------


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


def _options(module: ast.Module, where: str) -> Iterator[Option]:
    """Every option of a module's public functions, methods and dataclasses."""
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                yield from _function_options(node, None, where)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            if any(name_of(d) == "dataclass" for d in node.decorator_list):
                yield from _dataclass_fields(node, where)
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                    item.name == "__init__" or not item.name.startswith("_")
                ):
                    yield from _function_options(item, node.name, where)


def _calls(module: ast.Module) -> Iterator[Tuple[str, CallSite]]:
    """A module's call sites, by the called name."""
    for node in ast.walk(module):
        if not isinstance(node, ast.Call) or not name_of(node):
            continue
        splat = any(isinstance(a, ast.Starred) for a in node.args) or any(
            kw.arg is None for kw in node.keywords
        )
        keywords = {kw.arg for kw in node.keywords if kw.arg}
        yield name_of(node), (len(node.args), keywords, splat)


def unset_options(root: Path) -> List[Option]:
    """Options that no call site under ``root`` sets."""
    _, options, _, calls = facts(root)
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

    return [option for option in options if not is_set(option)]


def option_exemption(option: Option) -> Optional[str]:
    """The ``EXEMPT`` entry covering an option nothing sets: its own, or
    the ``file:Class(*)`` entry of its run-state dataclass."""
    path = option.where.rsplit(":", 1)[0]
    if f"{path}:{option.ident}" in EXEMPT:
        return f"{path}:{option.ident}"
    state = f"{path}:{option.cls}(*)"
    return state if option.func == "__init__" and state in EXEMPT else None


def unexempted_options(root: Path = ROOT) -> List[Option]:
    return [o for o in unset_options(root) if not option_exemption(o)]


def report_options(root: Path = ROOT) -> int:
    """Print the options pass's report; return its unexempted count."""
    offenders = unexempted_options(root)
    for option in offenders:
        print(f"{option.where}: {option.ident} is never set; make it a constant")
    print(f"options pass: {len(facts(root).options)} options, {len(offenders)} never set")
    return len(offenders)


# -- the execution census ---------------------------------------------------

#: not statements that run: definitions, imports and scope declarations
_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
            ast.Global, ast.Nonlocal)


@dataclass(frozen=True)
class Statement:
    """One statement start: the lines a tracer may report for it."""

    where: str  # src/...:line
    scope: str  # Class.method, or "<module>"
    kind: str  # the AST node's name: Raise, Return, If, ...
    lines: range  # a simple statement's lines, a compound one's header
    first_inner: Optional[int]  # a compound statement's first body line

    @property
    def path(self) -> str:
        return self.where.rsplit(":", 1)[0]

    @property
    def key(self) -> str:
        """Its ``file:scope:line`` ``EXEMPT`` key."""
        return f"{self.path}:{self.scope}:{self.where.rsplit(':', 1)[1]}"


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    body = getattr(parent, "body", None)
    return (
        isinstance(parent, (ast.Module,) + _DEFS)
        and body is not None and node is body[0]
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
    )


def statements(root: Path = ROOT) -> List[Statement]:
    out: List[Statement] = []

    def walk(parent: ast.AST, path: str, scope: str) -> None:
        for field in ("body", "orelse", "finalbody", "handlers", "cases"):
            for node in getattr(parent, field, ()):
                if isinstance(node, ast.ExceptHandler) or type(node).__name__ == "match_case":
                    walk(node, path, scope)
                    continue
                if isinstance(node, _DEFS):
                    walk(node, path, f"{scope}.{node.name}" if scope != "<module>" else node.name)
                    continue
                if isinstance(node, _SKIPPED) or _is_docstring(node, parent):
                    continue
                inner = getattr(node, "body", None)
                if inner:
                    header = range(node.lineno, max(node.lineno, inner[0].lineno - 1) + 1)
                    first = inner[0].lineno
                else:
                    header, first = range(node.lineno, node.end_lineno + 1), None
                out.append(Statement(f"{path}:{node.lineno}", scope, type(node).__name__,
                                     header, first))
                walk(node, path, scope)

    for path, module in parsed(root, "src"):
        walk(module, path, "<module>")
    return out


def scopes(root: Path = ROOT) -> Set[str]:
    """``file:scope`` of every class and function under ``src/``."""
    out: Set[str] = set()

    def walk(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEFS):
                name = prefix + child.name
                out.add(f"{path}:{name}")
                walk(child, path, name + ".")
            else:
                walk(child, path, prefix)

    for path, module in parsed(root, "src"):
        walk(module, path, "")
    return out


def functions(stmts: List[Statement]) -> Dict[str, Statement]:
    """``file:scope`` of every function (and class body) -> its first
    counted statement."""
    first: Dict[str, Statement] = {}
    for s in stmts:
        first.setdefault(f"{s.path}:{s.scope}", s)
    return {k: s for k, s in first.items() if not k.endswith(":<module>")}


def ran(stmts: List[Statement], lines: Dict[str, Set[int]]) -> Set[str]:
    """The statements a run executed: a line of a simple statement ran, or
    a compound one's header (or its first body line: ``try:`` and
    ``while True:`` report none of their own)."""
    done: Set[str] = set()
    for s in reversed(stmts):  # inner statements first
        hit = lines.get(s.path, ())
        if any(line in hit for line in s.lines) or (
            s.first_inner is not None and f"{s.path}:{s.first_inner}" in done
        ):
            done.add(s.where)
    return done


def scope_exemption(where_scope: str) -> Optional[str]:
    """The ``file:scope`` entry of ``EXEMPT`` whose scope holds
    ``file:scope``, if any."""
    path, scope = where_scope.split(":", 1)
    for key in EXEMPT:
        kpath, _, kscope = key.partition(":")
        if kpath == path and ":" not in kscope and (
            scope == kscope or scope.startswith(kscope + ".")
        ):
            return key
    return None


def statement_exemption(never_line: str, unentered) -> Optional[str]:
    """The ``EXEMPT`` entry covering a never-run statement: its own
    ``file:scope:line`` entry or, in a function no product run enters,
    the ``file:scope`` entry holding that function."""
    where, scope, _ = never_line.split(" ")
    path, line = where.rsplit(":", 1)
    if f"{path}:{scope}:{line}" in EXEMPT:
        return f"{path}:{scope}:{line}"
    return scope_exemption(f"{path}:{scope}") if f"{path}:{scope}" in unentered else None


# -- the runs ---------------------------------------------------------------


def product_runs() -> Iterator[List[str]]:
    py = sys.executable
    for example in sorted((ROOT / "examples").glob("*.py")):
        yield [py, str(example.relative_to(ROOT))]
    benches = sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / "benchmarks").glob("bench_*.py"))
    yield [py, "-m", "pytest", "-q", "-p", "no:cacheprovider", *benches]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        for trace in ("0", "1"):
            yield [py, "bench/run.py", "--workload", workload["name"], "--seconds", "1",
                   "--trace", trace]
    yield [py, "-m", "repro.lint", "src", "--json", "benchmarks/results/LINT_report.json"]


def tier1_runs() -> Iterator[List[str]]:
    yield [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "--hypothesis-seed=0"]


def trace(commands: Iterator[List[str]], dump: Path) -> None:
    dump.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SITE), str(ROOT / "src")])
    env["REPRO_CENSUS_DIR"] = str(dump)
    env["REPRO_CENSUS_SRC"] = str(ROOT / "src") + os.sep
    for command in commands:
        start = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
        last = (done.stdout.strip().splitlines() or [""])[-1]
        print(f"  {time.perf_counter() - start:6.1f} s  exit {done.returncode}  "
              f"{' '.join(command[1:])}: {last[:200]}", flush=True)
        if done.returncode and "pytest" in command:
            failed = [line for line in done.stdout.splitlines() if line.startswith("FAILED")]
            print("".join(f"    {line}\n" for line in failed), end="", flush=True)


def read_dumps(dump: Path) -> Dict[str, Set[int]]:
    lines: Dict[str, Set[int]] = {}
    for file in dump.glob("*.json"):
        for path, hit in json.loads(file.read_text()).items():
            rel = Path(path).resolve().relative_to(ROOT).as_posix()
            lines.setdefault(rel, set()).update(hit)
    return lines


# -- the fold ---------------------------------------------------------------


def fold(stmts: List[Statement], product: Set[str], tier1: Set[str]) -> dict:
    modules: Dict[str, Dict[str, int]] = {}
    never: List[str] = []
    for s in stmts:
        bucket = "product" if s.where in product else (
            "tier1_only" if s.where in tier1 else "neither")
        row = modules.setdefault(s.path, {"statements": 0, "product": 0,
                                          "tier1_only": 0, "neither": 0})
        row["statements"] += 1
        row[bucket] += 1
        if bucket == "neither":
            never.append(f"{s.where} {s.scope} {s.kind}")
    unentered = {
        key: "tier1_only" if s.where in tier1 else "neither"
        for key, s in functions(stmts).items() if s.where not in product
    }
    totals = {b: sum(m[b] for m in modules.values())
              for b in ("statements", "product", "tier1_only", "neither")}
    exempt_never = [n for n in never if statement_exemption(n, unentered)]
    exempt_unentered = [k for k in unentered if scope_exemption(k)]
    return {
        **totals,
        "unexempted_never_run": len(never) - len(exempt_never),
        "unexempted_unentered": len(unentered) - len(exempt_unentered),
        "modules": modules,
        "never_run": never,
        "unentered": unentered,
    }


def stale_exemptions(census: dict) -> List[str]:
    """``EXEMPT`` entries no pass uses: they cover no symbol the name pass
    finds unreached, no option nothing sets, and no never-run statement or
    unentered function of ``census``."""
    used = {statement_exemption(n, census["unentered"]) for n in census["never_run"]}
    used |= {scope_exemption(k) for k in census["unentered"]}
    used |= {scope_exemption(s.key) for s in name_pass(ROOT)["unreached"]}
    used |= {option_exemption(o) for o in unset_options(ROOT)}
    return sorted(set(EXEMPT) - used)


def take(base: Path) -> dict:
    """Trace both sets of runs into ``base`` and fold them."""
    print("product runs:")
    trace(product_runs(), base / "product")
    print("tier-1:")
    trace(tier1_runs(), base / "tier1")
    stmts = statements()
    product = ran(stmts, read_dumps(base / "product"))
    return fold(stmts, product, ran(stmts, read_dumps(base / "tier1")))


def main() -> int:
    print("pre-passes:")
    if report_names() + report_options():
        return 1
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        census = take(Path(tmp))
    before = json.loads(CENSUS.read_text()) if CENSUS.exists() else None
    CENSUS.write_text(json.dumps(census, indent=1, sort_keys=True) + "\n")
    print(f"census: {census['statements']} statements, {census['product']} product, "
          f"{census['tier1_only']} tier-1 only, {census['neither']} neither "
          f"({census['unexempted_never_run']} unexempted); {len(census['unentered'])} "
          f"functions no product run enters ({census['unexempted_unentered']} unexempted)")
    for line in census["never_run"]:
        if not statement_exemption(line, census["unentered"]):
            print(f"  never run: {line}")
    for key, bucket in sorted(census["unentered"].items()):
        if not scope_exemption(key):
            print(f"  no product run enters: {key} ({bucket})")
    failed = False
    for key in stale_exemptions(census):
        print(f"stale EXEMPT entry (no pass uses it): {key}")
        failed = True
    for count in ("unexempted_never_run", "unexempted_unentered"):
        if before is not None and census[count] > before[count]:
            print(f"{count} rose: {before[count]} -> {census[count]}")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
