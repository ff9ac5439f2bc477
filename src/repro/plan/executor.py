"""Plan execution: sweeps through hoisting, waves through batch lanes.

:class:`PlanExecutor` runs a :class:`repro.plan.graph.PlanGraph` against
real ciphertexts in one of two modes:

* **naive** (``optimize=False``) -- every node executes as one scalar
  :class:`repro.ckks.evaluator.Evaluator` call in construction order,
  each rotation paying its own key-switch decomposition.  This is the
  per-op sequential baseline the planner benchmark gates against.
* **optimized** (``optimize=True``, the default) -- the graph is
  scheduled as ASAP waves of data-independent nodes; within a wave,
  rotation sweeps of one ciphertext collapse into one
  ``Evaluator.decompose`` feeding N ``apply_keyswitch`` calls
  (``rotate_hoisted``), and the remaining nodes are packed by shape
  into :class:`repro.ckks.batch.CiphertextBatch` lanes executed through
  :class:`repro.ckks.batch.BatchEvaluator`.

Both modes are **bit-identical**: hoisting is bit-identical to per-node
rotation by construction, batching is bit-identical to per-element
scalar execution by the batch layer's contract, and plaintext operands
are encoded deterministically at the consumer's (level, scale).  The
differential harness asserts this on both polynomial backends.

Every step also bills a measured :class:`repro.system.scheduler.ScheduledOp`
-- a fused sweep bills its shared input and decomposition **once**
(poly counts: one size-2 ciphertext in, N out) -- so a plan execution
drops into the same discrete-event host-pipeline simulation as
workload and serving executions, and the same step stream replays
through the HEAX module simulators (:mod:`repro.plan.hwsim`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.ckks.batch import BatchEvaluator, CiphertextBatch
from repro.ckks.context import CkksContext
from repro.ckks.encoder import CkksEncoder
from repro.ckks.evaluator import Evaluator
from repro.ckks.keys import GaloisKeySet, RelinKey
from repro.ckks.poly import Ciphertext, Plaintext
from repro.plan.graph import KEYSWITCH_OPS, PlanGraph, PlanNode
from repro.system.scheduler import ScheduledOp

#: ScheduledOp kind per plan op (selects host staging-buffer depth).
_SCHED_KIND = {op: "keyswitch" for op in KEYSWITCH_OPS}
_SCHED_KIND["rescale"] = "ntt"


def _sched_kind(op: str) -> str:
    return _SCHED_KIND.get(op, "mult")


@dataclass(frozen=True)
class PlanStep:
    """One executed schedule step (a sweep, a batch lane, or a scalar op)."""

    op: str
    node_ids: Tuple[int, ...]
    width: int
    mode: str  # "sweep" | "batch" | "scalar"
    level_count: int
    #: rotations served by this step (sweeps only; 0 otherwise).
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
    #: nodes that fell back to scalar execution.
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
        self.batch_evaluator = BatchEvaluator(context)
        self.encoder = CkksEncoder(context)
        #: (const_id, level, scale) -> encoded plaintext; encoding is
        #: deterministic, so sharing the cache across runs/modes cannot
        #: perturb bit-identity.
        self._plain_cache: Dict[Tuple[int, int, float], Plaintext] = {}

    # ------------------------------------------------------------------
    # plaintext operands
    # ------------------------------------------------------------------
    def _plain(
        self, graph: PlanGraph, const_id: int, level: int, scale: float
    ) -> Plaintext:
        key = (const_id, level, float(scale))
        if key not in self._plain_cache:
            node = graph.nodes[const_id]
            self._plain_cache[key] = self.encoder.encode(
                node.value, scale=scale, level_count=level
            )
        return self._plain_cache[key]

    def _operand_plain(
        self, graph: PlanGraph, node: PlanNode, operand: Ciphertext
    ) -> Plaintext:
        """Encode a node's const operand at its runtime consumer's level.

        ``mul_plain`` uses the const's declared scale (default: the
        context scale); ``add_const`` must match the operand's exact
        scale, whatever the chain produced.
        """
        const = graph.nodes[node.const_id]
        if node.op == "add_const":
            scale = operand.scale
        else:
            scale = (
                const.scale if const.scale is not None
                else self.context.params.scale
            )
        return self._plain(graph, node.const_id, operand.level_count, scale)

    # ------------------------------------------------------------------
    # key discipline
    # ------------------------------------------------------------------
    def _check_keys(self, graph: PlanGraph) -> None:
        ops = {node.op for node in graph.nodes.values()}
        if ops & {"mul_relin", "square"} and self.relin_key is None:
            raise ValueError(
                "plan contains mul_relin/square but the executor has no "
                "relinearization key"
            )
        if ops & {"rotate", "conjugate"} and self.galois_keys is None:
            raise ValueError(
                "plan contains rotations but the executor has no Galois keys"
            )

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def _bill(
        self, op: str, width: int, level: int, out_level: int, seconds: float
    ) -> ScheduledOp:
        """Poly-count billing of one step (what crosses PCIe for it).

        Plan values are always size-2 ciphertexts.  Binary ciphertext
        ops move two operands; plaintext ops move one shared plaintext
        (``level`` residue polys) for the whole lane.
        """
        size = 2
        in_polys = width * size * level
        if op in ("add", "sub", "mul_relin"):
            in_polys *= 2
        elif op in ("mul_plain", "add_const"):
            in_polys += level
        out_polys = width * size * out_level
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
    # scalar / batched node application
    # ------------------------------------------------------------------
    def _apply_scalar(
        self, graph: PlanGraph, node: PlanNode, operands: List[Ciphertext]
    ) -> Ciphertext:
        ev = self.evaluator
        op = node.op
        if op == "add":
            return ev.add(operands[0], operands[1])
        if op == "sub":
            return ev.sub(operands[0], operands[1])
        if op == "negate":
            return ev.negate(operands[0])
        if op == "mul_relin":
            return ev.multiply_relin(operands[0], operands[1], self.relin_key)
        if op == "square":
            # multiply + relinearize, matching the batched lane dataflow
            return ev.relinearize(
                ev.multiply(operands[0], operands[0]), self.relin_key
            )
        if op == "mul_plain":
            return ev.multiply_plain(
                operands[0], self._operand_plain(graph, node, operands[0])
            )
        if op == "add_const":
            return ev.add_plain(
                operands[0], self._operand_plain(graph, node, operands[0])
            )
        if op == "rotate":
            return ev.rotate(operands[0], node.step, self.galois_keys)
        if op == "conjugate":
            return ev.conjugate(operands[0], self.galois_keys)
        if op == "rescale":
            return ev.rescale(operands[0])
        raise ValueError(f"unknown plan op {op!r}")

    def _apply_batched(
        self,
        graph: PlanGraph,
        nodes: List[PlanNode],
        results: Dict[int, Ciphertext],
    ) -> List[Ciphertext]:
        bev = self.batch_evaluator
        op = nodes[0].op
        lhs = CiphertextBatch.join([results[n.inputs[0]] for n in nodes])
        if op in ("add", "sub", "mul_relin"):
            # ``add(x, x)`` (the serving ``double``): one operand stack
            # serves both sides, so it is joined once
            rhs = (
                lhs
                if all(n.inputs[0] == n.inputs[1] for n in nodes)
                else CiphertextBatch.join([results[n.inputs[1]] for n in nodes])
            )
            if op == "add":
                out = bev.add(lhs, rhs)
            elif op == "sub":
                out = bev.sub(lhs, rhs)
            else:
                out = bev.multiply_relin(lhs, rhs, self.relin_key)
        elif op == "negate":
            out = bev.negate(lhs)
        elif op == "square":
            out = bev.relinearize(bev.multiply(lhs, lhs), self.relin_key)
        elif op in ("mul_plain", "add_const"):
            # the lane signature pins the const id and operand shape, so
            # one encoded plaintext is shared by the whole lane
            pt = self._operand_plain(
                graph, nodes[0], results[nodes[0].inputs[0]]
            )
            out = (
                bev.multiply_plain(lhs, pt)
                if op == "mul_plain"
                else bev.add_plain(lhs, pt)
            )
        elif op == "rotate":
            out = bev.rotate(lhs, nodes[0].step, self.galois_keys)
        elif op == "conjugate":
            out = bev.conjugate(lhs, self.galois_keys)
        elif op == "rescale":
            out = bev.rescale(lhs)
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
        stacked pass: same op (and rotation step / const operand), and
        every operand agreeing on size, level, scale and NTT form --
        the ``CiphertextBatch.join`` homogeneity rules.
        """
        shapes = tuple(
            (ct.size, ct.level_count, ct.scale, ct.is_ntt)
            for ct in (results[i] for i in node.inputs)
        )
        return (node.op, node.step, node.const_id, shapes)

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
                self._run_scalar(graph, node, results, run)

    def _run_scalar(
        self,
        graph: PlanGraph,
        node: PlanNode,
        results: Dict[int, Ciphertext],
        run: PlanRun,
    ) -> None:
        """The scalar lane: one node as one ``Evaluator`` call -- every
        step of the naive mode, a one-node lane of the optimized one."""
        operands = [results[i] for i in node.inputs]
        if node.const_id is not None:
            # pre-encode outside the timed region
            self._operand_plain(graph, node, operands[0])
        level = operands[0].level_count
        t0 = time.perf_counter()
        out = self._apply_scalar(graph, node, operands)
        seconds = time.perf_counter() - t0
        results[node.id] = out
        run.scalar_ops += 1
        run.steps.append(
            PlanStep(
                node.op,
                (node.id,),
                1,
                "scalar",
                level,
                0,
                seconds,
                self._bill(node.op, 1, level, out.level_count, seconds),
            )
        )

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
        if len(nodes) == 1:
            self._run_scalar(graph, nodes[0], results, run)
            return
        level = results[nodes[0].inputs[0]].level_count
        if nodes[0].const_id is not None:
            self._operand_plain(
                graph, nodes[0], results[nodes[0].inputs[0]]
            )  # pre-encode outside the timed region
        t0 = time.perf_counter()
        outs = self._apply_batched(graph, nodes, results)
        seconds = time.perf_counter() - t0
        for node, out in zip(nodes, outs):
            results[node.id] = out
        run.lanes += 1
        run.packed_ops += len(nodes)
        run.steps.append(
            PlanStep(
                nodes[0].op,
                tuple(n.id for n in nodes),
                len(nodes),
                "batch",
                level,
                0,
                seconds,
                self._bill(
                    nodes[0].op,
                    len(nodes),
                    level,
                    outs[0].level_count,
                    seconds,
                ),
            )
        )
