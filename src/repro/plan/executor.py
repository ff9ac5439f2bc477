"""Plan execution: sweeps through hoisting, waves through lanes.

:class:`PlanExecutor` runs a :class:`repro.plan.graph.PlanGraph` against
real ciphertexts in one of two modes:

* **naive** (``optimize=False``) -- every node executes alone, as a lane
  of one, in construction order, each rotation paying its own key-switch
  decomposition.  This is the per-op sequential baseline the planner
  benchmark gates against, and the oracle the optimized mode is tested
  against.
* **optimized** (``optimize=True``, the default) -- the graph is
  scheduled as ASAP waves of data-independent nodes; within a wave,
  rotation sweeps of one ciphertext collapse into one decomposition
  feeding N key-switch applications (``rotate_hoisted``), and the
  remaining nodes are packed by shape into
  :class:`repro.ckks.batch.CiphertextBatch` lanes.

A ``linear_sweep`` node (``sum_d const_d * rotate(x, step_d)``, what
``matvec_graph`` lowers to) is a sweep already fused in the IR: both
modes run it as the same one ``Evaluator.linear_sweep`` call -- one
decomposition and one Modulus Switch for all its rotations -- and bill
it as a sweep (``sweeps``, ``fused_rotations``).

Either way every step is one call of the one
:class:`repro.ckks.evaluator.Evaluator` over a lane of ``width >= 1``
nodes: there is a single op -> evaluator-call table (:meth:`_apply`)
and a single lane runner (:meth:`_run_lane`); "scalar" vs "batch" in the
accounting is only the lane width.  One lane spans ops: ``add(x, x)``
and ``negate(x)`` of one operand shape are one ``multiply_integers``
call with a factor per member (2 or -1), its step ``"mixed"`` if both.

Both modes are **bit-identical**: hoisting is bit-identical to per-node
rotation by construction, a lane is bit-identical to its elements run
alone by the evaluator's contract, and plaintext operands are encoded
deterministically at the consumer's (level, scale).  The differential
harness asserts this on both polynomial backends.

Every step also bills a measured :class:`repro.system.scheduler.ScheduledOp`
-- a fused sweep bills its shared input and decomposition **once**
(poly counts: one size-2 ciphertext in, N out) -- so a plan execution
drops into the same discrete-event host-pipeline simulation as
workload and serving executions, and the same step stream replays
through the HEAX module simulators (:mod:`repro.plan.hwsim`).
"""

from __future__ import annotations

import hashlib
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.ckks.batch import CiphertextBatch
from repro.ckks.context import CkksContext
from repro.ckks.encoder import CkksEncoder
from repro.ckks.evaluator import Evaluator, SweepTerms
from repro.ckks.keys import GaloisKeySet, RelinKey
from repro.ckks.poly import Ciphertext, Plaintext
from repro.plan.graph import KEYSWITCH_OPS, PlanGraph, PlanNode
from repro.plan.passes import _const_scale
from repro.system.scheduler import ScheduledOp

#: ScheduledOp kind per plan op (selects host staging-buffer depth).
_SCHED_KIND = {op: "keyswitch" for op in KEYSWITCH_OPS}
_SCHED_KIND["rescale"] = "ntt"


#: Encoded plaintext constants one executor keeps (a Set-B plaintext is
#: 320 KB; a 16-diagonal matvec at two levels needs 32 entries).
PLAIN_CACHE_SIZE = 256

#: Stacked ``linear_sweep`` operands one executor keeps (each the size
#: of its terms' plaintexts: 5 MB for a 16-diagonal Set-B matvec).
SWEEP_CACHE_SIZE = 8


def _sched_kind(op: str) -> str:
    return _SCHED_KIND.get(op, "mult")


def _factor(node: PlanNode) -> Optional[int]:
    """The integer an elementwise node multiplies its one operand by: 2
    for ``add(x, x)`` (the serving ``double``), -1 for ``negate``."""
    if node.op == "add" and node.inputs[0] == node.inputs[1]:
        return 2
    return -1 if node.op == "negate" else None


@dataclass(frozen=True)
class PlanStep:
    """One executed schedule step: a sweep, or a lane ("batch" when
    wider than one node, "scalar" otherwise)."""

    op: str
    node_ids: Tuple[int, ...]
    width: int
    mode: str  # "sweep" | "batch" | "scalar"
    level_count: int
    #: rotations served by this step (sweeps and ``linear_sweep`` lanes
    #: only; 0 otherwise).
    rotations: int
    seconds: float
    scheduled: ScheduledOp


@dataclass
class PlanRun:
    """Outcome of executing one plan: values, schedule, and accounting."""

    outputs: Dict[str, Ciphertext]
    results: Dict[int, Ciphertext]
    steps: List[PlanStep] = field(default_factory=list)
    #: rotations that shared a hoisted decomposition.
    fused_rotations: int = 0
    #: hoisted sweeps executed (one decompose each).
    sweeps: int = 0
    #: nodes executed through >= 2-wide batch lanes.
    packed_ops: int = 0
    #: batch lanes executed.
    lanes: int = 0
    #: nodes executed alone, as lanes of one.
    scalar_ops: int = 0

    @property
    def compute_seconds(self) -> float:
        return sum(s.seconds for s in self.steps)

    @property
    def step_count(self) -> int:
        return len(self.steps)

    @property
    def scheduled_kind(self) -> str:
        """Staging-buffer kind of the run billed as *one* op: its
        heaviest stage (key switches dominate rescales dominate dyadic
        ops).  A serving flush is one such op."""
        kinds = {s.scheduled.kind for s in self.steps}
        return next(k for k in ("keyswitch", "ntt", "mult") if k in kinds)

    def scheduled_ops(self) -> List[ScheduledOp]:
        """The measured step stream for ``HostScheduler.run_executed``."""
        return [s.scheduled for s in self.steps]


class PlanExecutor:
    """Executes plans; see the module docstring for the two modes.

    ``relin_key`` / ``galois_keys`` are plain attributes read at
    :meth:`run` time, so one long-lived executor serves runs under
    different key material: the serving layer installs each flush's
    admission-captured keys before running it.
    """

    def __init__(
        self,
        context: CkksContext,
        relin_key: Optional[RelinKey] = None,
        galois_keys: Optional[GaloisKeySet] = None,
    ):
        self.context = context
        self.relin_key = relin_key
        self.galois_keys = galois_keys
        self.evaluator = Evaluator(context)
        self.encoder = CkksEncoder(context)
        #: (constant value, level, scale, basis) -> encoded plaintext, least
        #: recently used first.  Keyed on a digest of the *value*, never
        #: the node id: ids repeat from graph to graph and this executor
        #: outlives them, while a recompiled graph of the same constants
        #: must keep hitting.  Encoding is deterministic, so sharing the
        #: cache across runs/modes cannot perturb bit-identity.
        self._plain_cache: "OrderedDict[Tuple, Plaintext]" = OrderedDict()
        #: (level, per term: step + the plaintext's key) -> the stacked
        #: operand of a ``linear_sweep``, least recently used first.  A
        #: sweep consumes its plaintexts stacked, so the stack is what is
        #: kept and its terms bypass ``_plain_cache``.
        self._sweep_cache: "OrderedDict[Tuple, SweepTerms]" = OrderedDict()

    # ------------------------------------------------------------------
    # plaintext operands
    # ------------------------------------------------------------------
    @staticmethod
    def _cached(cache: OrderedDict, size: int, key: Tuple, build):
        """``cache[key]``, built on a miss, least recently used evicted."""
        if key in cache:
            cache.move_to_end(key)
        else:
            cache[key] = build()
            if len(cache) > size:
                cache.popitem(last=False)
        return cache[key]

    @staticmethod
    def _plain_key(value, level: int, scale: float, extended: bool) -> Tuple:
        slots = np.ascontiguousarray(value, dtype=np.complex128)
        # the shape *before* the lift (which promotes 0-d to 1-d) tells a
        # broadcast scalar from a zero-padded 1-vector
        digest = hashlib.blake2b(slots, digest_size=16).digest()
        return (np.shape(value), digest, level, float(scale), extended)

    def _plain(
        self, value, level: int, scale: float, extended: bool = False
    ) -> Plaintext:
        return self._cached(
            self._plain_cache,
            PLAIN_CACHE_SIZE,
            self._plain_key(value, level, scale, extended),
            lambda: self.encoder.encode(
                value, scale=scale, level_count=level, extended=extended
            ),
        )

    def _operand_plain(self, graph: PlanGraph, node: PlanNode, operand: Ciphertext):
        """Encode a node's const operand at its runtime consumer's level.

        ``mul_plain`` uses the const's declared scale (default: the
        context scale); ``add_const`` must match the operand's exact
        scale, whatever the chain produced.  A ``linear_sweep`` gets its
        terms encoded over the level's key basis and stacked
        (:meth:`Evaluator.sweep_terms`), cached as that one operand.
        """
        level, delta = operand.level_count, self.context.params.scale
        if node.op == "linear_sweep":
            terms = [
                (step, graph.nodes[cid].value, _const_scale(graph, cid, delta))
                for step, cid in node.terms
            ]
            return self._cached(
                self._sweep_cache,
                SWEEP_CACHE_SIZE,
                tuple((s, *self._plain_key(v, level, scale, True)) for s, v, scale in terms),
                lambda: self.evaluator.sweep_terms(
                    [
                        (s, self.encoder.encode(v, scale=scale, level_count=level, extended=True))
                        for s, v, scale in terms
                    ]
                ),
            )
        scale = (
            operand.scale
            if node.op == "add_const"
            else _const_scale(graph, node.const_id, delta)
        )
        return self._plain(graph.nodes[node.const_id].value, level, scale)

    # ------------------------------------------------------------------
    # key discipline
    # ------------------------------------------------------------------
    def _key_switches(self, node: PlanNode) -> List[Tuple[str, int]]:
        """``(label, Galois element)`` of every Galois key a node consumes."""
        ctx = self.context
        if node.op == "conjugate":
            return [("conjugation", ctx.conjugation_element)]
        steps = [node.step] if node.op == "rotate" else [s for s, _ in node.terms]
        elts = [(f"step {s}", ctx.galois_element_for_step(s)) for s in steps]
        # an unrotated linear_sweep term consumes no key
        return [e for e in elts if e[1] != 1 or node.op == "rotate"]

    def _check_keys(self, graph: PlanGraph) -> None:
        """Every key the plan will ask for, checked before any work."""
        for node in graph.topo_order():
            if node.op in ("mul_relin", "square") and self.relin_key is None:
                raise ValueError(
                    "plan contains mul_relin/square but the executor has no "
                    "relinearization key"
                )
            for label, elt in self._key_switches(node):
                if self.galois_keys is None:
                    raise ValueError(
                        "plan contains rotations but the executor has no Galois keys"
                    )
                if elt not in self.galois_keys:
                    raise ValueError(
                        f"plan node {node.id} ({node.op}): no Galois key for "
                        f"{label} (element {elt}); generate it first"
                    )

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def _bill(
        self, nodes: List[PlanNode], level: int, out_level: int, seconds: float
    ) -> ScheduledOp:
        """Poly-count billing of one step (what crosses PCIe for it).

        Plan values are always size-2 ciphertexts.  A node moves each
        distinct operand once; plaintext ops move one shared plaintext
        (``level`` residue polys; ``level + 1`` per ``linear_sweep``
        term) for the whole lane.
        """
        size = 2
        node, op = nodes[0], nodes[0].op
        in_polys = sum(len(set(n.inputs)) for n in nodes) * size * level
        if op in ("mul_plain", "add_const"):
            in_polys += level
        elif op == "linear_sweep":
            in_polys += len(node.terms) * (level + 1)
        out_polys = len(nodes) * size * out_level
        return ScheduledOp.for_batch(
            _sched_kind(op), self.context.n, in_polys, out_polys, seconds
        )

    def _bill_sweep(
        self, rotations: int, level: int, seconds: float
    ) -> ScheduledOp:
        """A fused sweep: the shared input ciphertext (and its
        decomposition) bills once, outputs per rotation."""
        return ScheduledOp.for_batch(
            "keyswitch",
            self.context.n,
            2 * level,
            rotations * 2 * level,
            seconds,
        )

    # ------------------------------------------------------------------
    # node application: the one op -> evaluator-call table
    # ------------------------------------------------------------------
    def _apply(
        self,
        nodes: List[PlanNode],
        results: Dict[int, Ciphertext],
        plain,
    ) -> List[Ciphertext]:
        """Run one lane of same-signature nodes as one evaluator call.

        ``plain`` is the lane's encoded const operand (the stacked terms
        of a ``linear_sweep``), if its op has one:
        the lane signature pins the const ids and operand shape, so one
        plaintext is shared by the whole lane.
        """
        ev = self.evaluator
        op = nodes[0].op
        lhs = CiphertextBatch.join([results[n.inputs[0]] for n in nodes])
        if _factor(nodes[0]) is not None:  # doubles beside negates
            out = ev.multiply_integers(lhs, [_factor(n) for n in nodes])
        elif op in ("add", "mul_relin"):
            rhs = CiphertextBatch.join([results[n.inputs[1]] for n in nodes])
            if op == "add":
                out = ev.add(lhs, rhs)
            else:
                out = ev.multiply_relin(lhs, rhs, self.relin_key)
        elif op == "square":
            out = ev.relinearize(ev.square(lhs), self.relin_key)
        elif op == "mul_plain":
            out = ev.multiply_plain(lhs, plain)
        elif op == "add_const":
            out = ev.add_plain(lhs, plain)
        elif op == "rotate":
            out = ev.rotate(lhs, nodes[0].step, self.galois_keys)
        elif op == "conjugate":
            out = ev.conjugate(lhs, self.galois_keys)
        elif op == "linear_sweep":
            out = ev.linear_sweep(lhs, plain, self.galois_keys)
        elif op == "rescale":
            out = ev.rescale(lhs)
        else:
            raise ValueError(f"unknown plan op {op!r}")
        return out.split()

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    @staticmethod
    def _waves(graph: PlanGraph) -> List[List[PlanNode]]:
        """ASAP wave schedule: depth = 1 + max over operand depths."""
        depth: Dict[int, int] = {}
        waves: Dict[int, List[PlanNode]] = {}
        for node in graph.topo_order():
            if node.op == "const":
                continue
            if node.op == "input":
                depth[node.id] = 0
                continue
            d = 1 + max(depth[i] for i in node.inputs)
            depth[node.id] = d
            waves.setdefault(d, []).append(node)
        return [waves[d] for d in sorted(waves)]

    def _signature(
        self, node: PlanNode, results: Dict[int, Ciphertext]
    ) -> Tuple:
        """Batch-lane packing key: op identity + exact operand shape.

        Two nodes pack only if the batched call is a single homogeneous
        stacked pass: same op (and rotation step / const operands), and
        every operand agreeing on size, level, scale and NTT form --
        the ``CiphertextBatch.join`` homogeneity rules.
        """
        shapes = tuple(
            (ct.size, ct.level_count, ct.scale, ct.is_ntt)
            for ct in (results[i] for i in node.inputs)
        )
        if _factor(node) is not None:  # doubles and negates: shape only
            return ("integer", shapes[0])
        return (node.op, node.step, node.const_id, node.terms, shapes)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        graph: PlanGraph,
        inputs: Dict[str, Ciphertext],
        optimize: bool = True,
    ) -> PlanRun:
        """Execute a plan over the caller's input ciphertexts.

        ``inputs`` maps input-node names to live ciphertexts; missing or
        extra names raise before any work happens.  Plaintext encoding
        is host-side work and runs outside the timed regions.
        """
        self._check_keys(graph)
        missing = sorted(set(graph.inputs) - set(inputs))
        if missing:
            raise ValueError(f"plan inputs not supplied: {', '.join(missing)}")
        extra = sorted(set(inputs) - set(graph.inputs))
        if extra:
            raise ValueError(f"unknown plan inputs: {', '.join(extra)}")
        results: Dict[int, Ciphertext] = {
            nid: inputs[name] for name, nid in graph.inputs.items()
        }
        run = PlanRun(outputs={}, results=results)
        if optimize:
            self._run_optimized(graph, results, run)
        else:
            self._run_naive(graph, results, run)
        run.outputs = {
            name: results[nid] for name, nid in graph.outputs.items()
        }
        return run

    def _run_naive(
        self, graph: PlanGraph, results: Dict[int, Ciphertext], run: PlanRun
    ) -> None:
        for node in graph.topo_order():
            if node.op not in ("const", "input"):
                self._run_lane(graph, [node], results, run)

    def _run_optimized(
        self, graph: PlanGraph, results: Dict[int, Ciphertext], run: PlanRun
    ) -> None:
        for wave in self._waves(graph):
            remaining: List[PlanNode] = []
            sweeps: Dict[int, List[PlanNode]] = {}
            for node in wave:
                if node.op == "rotate":
                    sweeps.setdefault(node.inputs[0], []).append(node)
                else:
                    remaining.append(node)
            for src, rotations in sorted(sweeps.items()):
                if len(rotations) < 2:
                    remaining.extend(rotations)
                    continue
                self._run_sweep(src, rotations, results, run)
            lanes: Dict[Tuple, List[PlanNode]] = {}
            for node in remaining:
                lanes.setdefault(self._signature(node, results), []).append(node)
            # lanes execute in first-member order, keeping the schedule
            # deterministic across runs
            for sig in sorted(lanes, key=lambda s: lanes[s][0].id):
                self._run_lane(graph, lanes[sig], results, run)

    def _run_sweep(
        self,
        src: int,
        nodes: List[PlanNode],
        results: Dict[int, Ciphertext],
        run: PlanRun,
    ) -> None:
        """One fused rotation sweep: decompose once, apply per step."""
        ct = results[src]
        steps = list(dict.fromkeys(n.step for n in nodes))
        t0 = time.perf_counter()
        rotated = dict(
            zip(steps, self.evaluator.rotate_hoisted(ct, steps, self.galois_keys))
        )
        seconds = time.perf_counter() - t0
        for node in nodes:
            results[node.id] = rotated[node.step]
        run.sweeps += 1
        run.fused_rotations += len(nodes)
        run.steps.append(
            PlanStep(
                "rotate",
                tuple(n.id for n in nodes),
                len(nodes),
                "sweep",
                ct.level_count,
                len(nodes),
                seconds,
                self._bill_sweep(len(nodes), ct.level_count, seconds),
            )
        )

    def _run_lane(
        self,
        graph: PlanGraph,
        nodes: List[PlanNode],
        results: Dict[int, Ciphertext],
        run: PlanRun,
    ) -> None:
        """The lane runner: ``nodes`` (one or many, same signature) as
        one evaluator call -- every step of the naive mode is a lane of
        one."""
        width = len(nodes)
        node = nodes[0]
        operand = results[node.inputs[0]]
        level = operand.level_count
        plain = (  # encoded outside the timed region: host-side work
            self._operand_plain(graph, node, operand)
            if node.const_id is not None or node.terms
            else None
        )
        t0 = time.perf_counter()
        outs = self._apply(nodes, results, plain)
        seconds = time.perf_counter() - t0
        for member, out in zip(nodes, outs):
            results[member.id] = out
        if width == 1:
            run.scalar_ops += 1
        else:
            run.lanes += 1
            run.packed_ops += width
        rotations = 0
        if node.op == "linear_sweep":  # a sweep fused in the IR, per node
            rotations = width * len(self._key_switches(node))
            run.sweeps += width
            run.fused_rotations += rotations
        run.steps.append(
            PlanStep(
                node.op if all(n.op == node.op for n in nodes) else "mixed",
                tuple(n.id for n in nodes),
                width,
                "scalar" if width == 1 else "batch",
                level,
                rotations,
                seconds,
                self._bill(nodes, level, outs[0].level_count, seconds),
            )
        )
