"""Planner passes: scale/level checking and rescale placement.

The passes run over a :class:`repro.plan.graph.PlanGraph` *before*
execution, replacing the hand-managed scale/level bookkeeping of eager
composites (now the fragments of :mod:`repro.plan.lower`; the inference
example) with one planner and one typing rule, :func:`_node_type`: a
node's (level, scale) from its operands' under the exact discipline the
evaluator enforces at runtime (level equality,
:data:`~repro.ckks.batch.SCALE_RTOL` scale matching, products multiply
scales, a rescale divides by the last prime), or the error naming the
node.  Both passes type every node with it:

* :func:`check_plan` -- the rule along the DAG plus modulus-budget
  headroom and a slot-count cap on every const.  Rejects unplaceable
  graphs loudly, before any ciphertext work happens.
* :func:`place_rescales` -- decides only where to rewrite a graph so it
  passes the checker: lazy rescales in front of multiplies (products
  stay at ``scale^2`` through additions, the Halevi-Shoup idiom),
  scale-preserving unit-multiply level drops, and ratio-guarded scale
  alignment.  Every other node is rebuilt with
  :meth:`~repro.plan.graph.PlanGraph.copy`.

Rotation-sweep fusion is not a pass: same-source rotations always share
an ASAP wave, so the executor groups them where it schedules the wave
(:meth:`repro.plan.executor.PlanExecutor._run_optimized`).

``place_rescales`` then ``check_plan`` is the standard pipeline
(:func:`compile_plan`); the checker also runs standalone as the loud
front door for hand-built graphs.
"""

from __future__ import annotations

import math
from typing import Dict, NoReturn, Tuple

import numpy as np

from repro.ckks.batch import SCALE_RTOL
from repro.ckks.context import CkksContext
from repro.plan.graph import PlanGraph, PlanNode

#: Required free bits between the scale and the modulus budget at a
#: level -- the message magnitude guard the differential harness uses
#: when it generates feasible programs.
HEADROOM_BITS = 12

#: Minimum scale ratio the planner will bridge with a unit
#: multiplication.  Below this, encoding ``1.0`` at the ratio scale
#: would quantize too coarsely to call the alignment exact-in-spirit,
#: so the graph is rejected instead of silently degraded.
MIN_ALIGN_RATIO = 2.0 ** 16


class PlanValidationError(ValueError):
    """A plan violates the scale/level discipline and cannot execute.

    Subclasses :class:`ValueError` so existing call sites that guard
    evaluator errors (the serving layer's reject path) catch planner
    rejections the same way.
    """


def _total_bits(context: CkksContext, level_count: int) -> int:
    return sum(
        m.value.bit_length()
        for m in context.basis_at_level(level_count).moduli
    )


def _last_prime(context: CkksContext, level_count: int) -> float:
    return float(context.basis_at_level(level_count).moduli[-1].value)


def _const_scale(graph: PlanGraph, const_id: int, default: float) -> float:
    scale = graph.nodes[const_id].scale
    return default if scale is None else scale


def _scales_match(a: float, b: float) -> bool:
    return abs(a - b) <= SCALE_RTOL * max(a, b)


def _multiplies(graph: PlanGraph, node: PlanNode) -> bool:
    """Does ``node`` multiply scales, so that placement rescales its
    product-scale operands first?  A unit multiply -- ``mul_plain`` by
    the scalar 1 at an explicit scale, what placement emits to drop a
    level or align a scale -- only moves the scale and does not count,
    which keeps a placed graph a fixed point of placement."""
    if node.op == "mul_plain":
        const = graph.nodes[node.const_id]
        unit = isinstance(const.value, (int, float)) and const.value == 1
        return const.scale is None or not unit
    return node.op in ("mul_relin", "square", "linear_sweep")


def _fail(node: PlanNode, why: str) -> NoReturn:
    raise PlanValidationError(f"plan node {node.id} ({node.op}): {why}")


def _fits(context: CkksContext, level: int, scale: float) -> bool:
    """Does ``scale`` leave :data:`HEADROOM_BITS` free in the level's
    modulus budget?"""
    return math.log2(scale) + HEADROOM_BITS <= _total_bits(context, level)


def _node_type(
    graph: PlanGraph,
    node: PlanNode,
    types: Dict[int, Tuple[int, float]],
    context: CkksContext,
) -> Tuple[int, float]:
    """The (level, scale) of a ciphertext node whose operands are typed
    in ``types``: the one typing rule both passes apply.

    Raises :class:`PlanValidationError` naming the node and the violated
    rule -- level mismatches, scale mismatches beyond
    :data:`~repro.ckks.batch.SCALE_RTOL`, rescales at the last level, and
    result scales :func:`scale_fault` refuses.
    """
    delta = context.params.scale
    if node.op == "input":
        level = node.level_count if node.level_count is not None else context.k
        if not 1 <= level <= context.k:
            _fail(node, f"input level {level} outside [1, {context.k}]")
        return level, node.scale if node.scale is not None else delta
    if node.op in ("add", "sub", "mul_relin"):
        (la, sa), (lb, sb) = types[node.inputs[0]], types[node.inputs[1]]
        if la != lb:
            _fail(
                node,
                f"operand level mismatch {la} vs {lb}; "
                "run place_rescales to align levels",
            )
        if node.op == "mul_relin":
            return _checked(node, la, sa * sb)
        if not _scales_match(sa, sb):
            _fail(
                node,
                f"operand scale mismatch {sa:g} vs {sb:g}; "
                "run place_rescales or re-encode operands",
            )
        return la, sa
    level, s = types[node.inputs[0]]
    if node.op == "mul_plain":
        return _checked(node, level, s * _const_scale(graph, node.const_id, delta))
    if node.op == "linear_sweep":
        scales = [_const_scale(graph, cid, delta) for _, cid in node.terms]
        if not all(_scales_match(scales[0], other) for other in scales):
            spread = f"{min(scales):g} .. {max(scales):g}"
            _fail(node, f"term plaintext scales differ ({spread}); one sum, one scale")
        return _checked(node, level, s * scales[0])
    try:  # square, rescale, negate, add_const, rotate, conjugate
        level, scale = step_type(node.op, level, s, context)
    except ValueError as exc:
        _fail(node, str(exc))
    if node.op == "rescale" and scale <= 1.0:
        _fail(
            node,
            f"rescale drives scale to {scale:g} (<= 1); "
            "the operand was not a fresh product",
        )
    return level, scale


def step_type(op: str, level: int, scale: float, context: CkksContext) -> Tuple[int, float]:
    """The (level, scale) a one-operand step leaves: a square squares the
    scale, a rescale divides it by the level's last prime and drops the
    level, any other step keeps both.  Raises ``ValueError`` for a
    rescale at the last level or a result :func:`scale_fault` refuses --
    in :func:`_node_type`, and at serving admission for each step of a
    request, before any ciphertext work."""
    if op == "square":
        scale = scale * scale
    elif op == "rescale":
        if level < 2:
            raise ValueError("cannot rescale at the last level")
        level, scale = level - 1, scale / _last_prime(context, level)
    fault = scale_fault(op, scale)
    if fault:
        raise ValueError(fault)
    return level, scale


def scale_fault(op: str, scale: float) -> str:
    """The one rule on every result scale, typed or served: finite and
    > 0 (the wire's own rule).  A product or quotient of valid scales can
    still under- or overflow to 0 or inf.  Returns why a scale breaks the
    rule, or ``""``.  Planning also holds a rescale's result above 1
    (:func:`_node_type`); serving does not, a bare rescale of a fresh
    ciphertext is served."""
    if 0.0 < scale < math.inf:
        return ""
    return f"{op} drives scale to {scale:g}; a scale must be finite and > 0"


def _checked(node: PlanNode, level: int, scale: float) -> Tuple[int, float]:
    fault = scale_fault(node.op, scale)
    if fault:
        _fail(node, fault)
    return level, scale


def check_plan(graph: PlanGraph, context: CkksContext) -> Dict[int, Tuple[int, float]]:
    """Type every ciphertext node with its (level, scale); raise loudly.

    Returns ``{node_id: (level_count, scale)}`` for ciphertext nodes of
    a valid plan.  Raises :class:`PlanValidationError` naming the node
    and the violated rule otherwise: :func:`_node_type`'s, a scale
    within :data:`HEADROOM_BITS` of the level's modulus budget, or a
    const holding more values than the context has slots (the encoder
    would refuse it mid-run, after earlier steps had done their work).
    """
    slots = context.params.slot_count
    types: Dict[int, Tuple[int, float]] = {}
    for node in graph.topo_order():
        if node.op == "const":
            if np.size(node.value) > slots:
                _fail(node, f"holds {np.size(node.value)} values > {slots} slots")
            continue
        level, scale = types[node.id] = _node_type(graph, node, types, context)
        if not _fits(context, level, scale):
            _fail(
                node,
                f"scale 2^{math.log2(scale):.1f} leaves less than "
                f"{HEADROOM_BITS} headroom bits in the "
                f"{_total_bits(context, level)}-bit modulus budget at level "
                f"{level}; insert a rescale or start from a smaller encoding scale",
            )
    return types


def place_rescales(
    graph: PlanGraph,
    context: CkksContext,
    rescale_outputs: bool = True,
) -> PlanGraph:
    """Rewrite a graph with planner-placed rescales and level drops.

    The policy mirrors what the hand-tuned call sites did, generalized:

    * **lazy rescaling** -- a value is rescaled only when a *multiply*
      other than a unit multiply (or, with ``rescale_outputs``, an
      output) consumes it at product scale (``>= delta^1.5``, which
      cleanly separates ``delta^2`` products from ``<= delta`` working
      scales).  Additions run at product scale for free, exactly like
      the diagonal-matvec accumulation.
    * **level drops** -- a binary op whose operands sit at different
      levels drops the higher one with scale-preserving unit
      multiplications (``mul_plain(1.0 @ p)`` then rescale).
    * **scale alignment** -- a same-level add/sub whose scales differ
      by a representable ratio (``>= 2^16``) raises the lower operand
      with one unit multiplication; smaller ratios raise
      :class:`PlanValidationError` (the graph is unplaceable without
      precision loss).

    Explicit rescale nodes in the input graph are honored and shared
    with planner-inserted ones, so pre-scheduled graphs pass through
    unchanged (the differential plan mode asserts this).  Every node it
    emits is typed by :func:`_node_type`, so a graph the checker's rule
    rejects raises its :class:`PlanValidationError` here already.
    """
    trigger = context.params.scale ** 1.5
    out = PlanGraph()
    mapping: Dict[int, int] = {}
    types: Dict[int, Tuple[int, float]] = {}
    rescaled: Dict[int, int] = {}

    def typed(nid: int) -> int:
        types[nid] = _node_type(out, out.nodes[nid], types, context)
        return nid

    def emit_rescale(nid: int) -> int:
        if nid not in rescaled:
            level, scale = types[nid]
            if level < 2:
                raise PlanValidationError(
                    f"plan node {nid}: needs a rescale (scale {scale:g}) but is "
                    "already at the last level; the chain is too deep for this "
                    "parameter set"
                )
            rescaled[nid] = typed(out.rescale(nid))
        return rescaled[nid]

    def maybe_rescale(nid: int) -> int:
        return emit_rescale(nid) if types[nid][1] >= trigger else nid

    def drop_to(nid: int, target_level: int) -> int:
        while types[nid][0] > target_level:
            unit = out.const(1.0, scale=_last_prime(context, types[nid][0]))
            nid = typed(out.rescale(typed(out.mul_plain(nid, unit))))
        return nid

    def align_levels(a: int, b: int) -> Tuple[int, int]:
        target = min(types[a][0], types[b][0])
        return drop_to(a, target), drop_to(b, target)

    def align_scales(a: int, b: int) -> Tuple[int, int]:
        sa, sb = types[a][1], types[b][1]
        if _scales_match(sa, sb):
            return a, b
        ratio = max(sa, sb) / min(sa, sb)
        if ratio < MIN_ALIGN_RATIO:
            raise PlanValidationError(
                f"plan nodes {a}/{b}: add/sub operand scales {sa:g} vs "
                f"{sb:g} differ by a ratio below 2^16; aligning them with "
                "a unit multiplication would quantize -- re-encode the "
                "operands at matching scales instead"
            )
        unit = out.const(1.0, scale=ratio)
        if sa < sb:
            return typed(out.mul_plain(a, unit)), b
        return a, typed(out.mul_plain(b, unit))

    for node in graph.topo_order():
        ins = [mapping[i] for i in node.inputs]
        if _multiplies(graph, node):
            ins = [maybe_rescale(i) for i in ins]
        if len(ins) == 2:
            ins = align_levels(*ins)
        if node.op in ("add", "sub"):
            ins = align_scales(*ins)
        if node.op == "rescale":
            mapping[node.id] = emit_rescale(ins[0])
        elif node.op == "const":
            mapping[node.id] = out.copy(node, ins, mapping)
        else:
            mapping[node.id] = typed(out.copy(node, ins, mapping))

    for name, nid in graph.outputs.items():
        new = mapping[nid]
        if rescale_outputs and types[new][0] >= 2:
            new = maybe_rescale(new)
        out.output(new, name)
    return out


def compile_plan(
    graph: PlanGraph,
    context: CkksContext,
    rescale_outputs: bool = True,
) -> PlanGraph:
    """The standard pipeline: place rescales, then validate loudly."""
    placed = place_rescales(graph, context, rescale_outputs=rescale_outputs)
    check_plan(placed, context)
    return placed
