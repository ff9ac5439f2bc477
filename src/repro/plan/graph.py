"""Op-graph IR for encrypted workloads.

HEAX's thesis is that HE programs should be *scheduled as dataflow*, not
executed call-by-call: the accelerator keeps operands resident, shares
the expensive phases (NTT fan-out, key-switch decomposition) across the
operations that can amortize them, and streams independent work through
stacked pipelines (Sections 4.3 and 6).  PRs 2-6 built each of those
mechanisms in software -- ``rotate_hoisted``, ``CiphertextBatch`` lanes,
resident key caches -- but every call site still picks the execution
shape by hand.

This module is the missing program representation: a small DAG whose
nodes are the HE operations the evaluator executes (ciphertext and
plaintext operands, rotation steps, rescales), built once per workload
and handed to the pass pipeline in :mod:`repro.plan.passes` and the
executor in :mod:`repro.plan.executor`.  Composite layers
(:meth:`repro.ckks.linear.LinearEvaluator.matvec_diagonal`,
:meth:`repro.system.workload.Workload.to_plan`, serving request
programs) *lower* into this IR instead of calling the evaluator
directly, so one planner decides where rotation sweeps fuse, which
independent chains pack into batch lanes, and where rescales land.

The IR is deliberately minimal:

* ciphertext values are node ids; plaintext operands are ``const``
  nodes encoded lazily at their consumer's level;
* every multiply is relinearized (``mul_relin`` / ``square``), so
  ciphertext values are always size 2 -- the invariant the batch and
  serving layers already rely on;
* construction order is a topological order (a node may only reference
  already-built nodes), which keeps every pass a single forward walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Ops producing ciphertext values.  ``mul_relin``/``square`` include the
#: relinearization (ciphertexts in a plan are always size 2).
CIPHER_OPS = frozenset(
    {
        "input",
        "add",
        "sub",
        "negate",
        "mul_plain",
        "add_const",
        "mul_relin",
        "square",
        "rotate",
        "conjugate",
        "linear_sweep",
        "rescale",
    }
)

#: Ops consuming a key-switching key (and therefore a KeySwitch on HEAX).
KEYSWITCH_OPS = frozenset(
    {"mul_relin", "square", "rotate", "conjugate", "linear_sweep"}
)


@dataclass(frozen=True)
class PlanNode:
    """One operation (or operand) of the plan DAG."""

    id: int
    op: str
    #: ciphertext operand node ids (const operands ride ``const_id``).
    inputs: Tuple[int, ...] = ()
    #: rotation step (``rotate`` nodes only).
    step: int = 0
    #: plaintext payload of a ``const`` node (scalar or slot list).
    value: object = None
    #: explicit encoding scale of a ``const``/``input`` node (None =
    #: the context default; ``add_const`` always encodes at its
    #: operand's scale regardless).
    scale: Optional[float] = None
    #: declared level of an ``input`` node (None = the full chain).
    level_count: Optional[int] = None
    #: the const operand of a ``mul_plain``/``add_const`` node.
    const_id: Optional[int] = None
    #: external name of an ``input`` node.
    name: Optional[str] = None
    #: the ``(step, const id)`` terms of a ``linear_sweep`` node.
    terms: Tuple[Tuple[int, int], ...] = ()


class PlanGraph:
    """Builder and container for one encrypted-workload DAG."""

    def __init__(self):
        self.nodes: Dict[int, PlanNode] = {}
        #: output name -> node id (the values the plan's caller receives).
        self.outputs: Dict[str, int] = {}
        #: input name -> node id.
        self.inputs: Dict[str, int] = {}
        self._next_id = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _new(self, op: str, **kwargs) -> int:
        node = PlanNode(id=self._next_id, op=op, **kwargs)
        self.nodes[node.id] = node
        self._next_id += 1
        return node.id

    def _cipher(self, nid: int) -> int:
        node = self.nodes.get(nid)
        if node is None:
            raise ValueError(f"unknown node id {nid}")
        if node.op not in CIPHER_OPS:
            raise ValueError(
                f"node {nid} ({node.op}) is not a ciphertext value; "
                "const nodes may only feed mul_plain/add_const/linear_sweep"
            )
        return nid

    def _const(self, cid: int) -> int:
        node = self.nodes.get(cid)
        if node is None or node.op != "const":
            raise ValueError(f"node {cid} is not a const node")
        return cid

    def input(
        self,
        name: str,
        level_count: Optional[int] = None,
        scale: Optional[float] = None,
    ) -> int:
        """A ciphertext the caller supplies at execution time."""
        if name in self.inputs:
            raise ValueError(f"duplicate input name {name!r}")
        nid = self._new("input", name=name, level_count=level_count, scale=scale)
        self.inputs[name] = nid
        return nid

    def const(self, value, scale: Optional[float] = None) -> int:
        """A plaintext operand, encoded lazily at its consumer's level."""
        if scale is not None and scale <= 0:
            raise ValueError("const scale must be positive")
        return self._new("const", value=value, scale=scale)

    def add(self, a: int, b: int) -> int:
        return self._new("add", inputs=(self._cipher(a), self._cipher(b)))

    def sub(self, a: int, b: int) -> int:
        return self._new("sub", inputs=(self._cipher(a), self._cipher(b)))

    def negate(self, a: int) -> int:
        return self._new("negate", inputs=(self._cipher(a),))

    def mul_relin(self, a: int, b: int) -> int:
        """Ciphertext product, immediately relinearized to size 2."""
        return self._new("mul_relin", inputs=(self._cipher(a), self._cipher(b)))

    def square(self, a: int) -> int:
        """``a * a`` + relinearize (the serving layer's ``square`` op)."""
        return self._new("square", inputs=(self._cipher(a),))

    def mul_plain(self, a: int, const_id: int) -> int:
        return self._new(
            "mul_plain", inputs=(self._cipher(a),), const_id=self._const(const_id)
        )

    def add_const(self, a: int, const_id: int) -> int:
        """Plaintext addition; the const encodes at the operand's scale."""
        return self._new(
            "add_const", inputs=(self._cipher(a),), const_id=self._const(const_id)
        )

    def rotate(self, a: int, step: int) -> int:
        if step == 0:
            raise ValueError("rotation step must be nonzero")
        return self._new("rotate", inputs=(self._cipher(a),), step=int(step))

    def conjugate(self, a: int) -> int:
        return self._new("conjugate", inputs=(self._cipher(a),))

    def linear_sweep(self, a: int, terms) -> int:
        """``sum_d const_d * rotate(a, step_d)`` as one node: the
        key-switched linear combination a diagonal matvec is (step 0 is
        the unrotated term; see ``Evaluator.linear_sweep``)."""
        terms = tuple((int(step), self._const(cid)) for step, cid in terms)
        if not terms:
            raise ValueError("linear_sweep needs at least one term")
        return self._new("linear_sweep", inputs=(self._cipher(a),), terms=terms)

    def rescale(self, a: int) -> int:
        return self._new("rescale", inputs=(self._cipher(a),))

    def output(self, nid: int, name: Optional[str] = None) -> int:
        """Mark a node as a plan output (returned by the executor)."""
        self._cipher(nid)
        if name is None:
            name = f"out{len(self.outputs)}"
        if name in self.outputs:
            raise ValueError(f"duplicate output name {name!r}")
        self.outputs[name] = nid
        return nid

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def topo_order(self) -> List[PlanNode]:
        """Nodes in a topological order (construction order, by design)."""
        return [self.nodes[i] for i in sorted(self.nodes)]

    def consumers(self) -> Dict[int, List[int]]:
        """node id -> ids of the nodes consuming its ciphertext value."""
        out: Dict[int, List[int]] = {nid: [] for nid in self.nodes}
        for node in self.topo_order():
            for src in node.inputs:
                out[src].append(node.id)
        return out

    def op_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for node in self.nodes.values():
            counts[node.op] = counts.get(node.op, 0) + 1
        return counts

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        return (
            f"PlanGraph({len(self.nodes)} nodes, "
            f"{len(self.inputs)} inputs, {len(self.outputs)} outputs)"
        )
