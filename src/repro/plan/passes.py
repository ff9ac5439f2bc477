"""Planner passes: scale/level checking and rescale placement.

The passes run over a :class:`repro.plan.graph.PlanGraph` *before*
execution, replacing the hand-managed scale/level bookkeeping that used
to live in every composite call site (``linear.py``, the inference
example) with one planner:

* :func:`check_plan` -- abstract interpretation of (level, scale) along
  the DAG with the exact discipline the evaluator enforces at runtime
  (level equality, :data:`~repro.ckks.batch.SCALE_RTOL` scale
  matching, rescale legality, modulus-budget headroom).  Rejects
  unplaceable graphs loudly, before any ciphertext work happens.
* :func:`place_rescales` -- rewrites a graph so it passes the checker:
  inserts rescales lazily in front of multiplies (products stay at
  ``scale^2`` through additions, the Halevi-Shoup idiom), drops
  operands to a common level with scale-preserving unit
  multiplications, and aligns residual scale mismatches where that is
  possible without precision loss.

Rotation-sweep fusion is not a pass: same-source rotations always share
an ASAP wave, so the executor groups them where it schedules the wave
(:meth:`repro.plan.executor.PlanExecutor._run_optimized`).

``place_rescales`` then ``check_plan`` is the standard pipeline
(:func:`compile_plan`); the checker also runs standalone as the loud
front door for hand-built graphs.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

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


def check_plan(
    graph: PlanGraph,
    context: CkksContext,
    headroom_bits: int = HEADROOM_BITS,
) -> Dict[int, Tuple[int, float]]:
    """Type every ciphertext node with its (level, scale); raise loudly.

    Returns ``{node_id: (level_count, scale)}`` for ciphertext nodes of
    a valid plan.  Raises :class:`PlanValidationError` naming the node
    and the violated rule otherwise -- level mismatches, scale
    mismatches beyond :data:`~repro.ckks.batch.SCALE_RTOL`, rescales
    at the last level or below unit scale, and scales within
    ``headroom_bits`` of the level's modulus budget (the loud rejection
    the satellite tests exercise).
    """
    delta = context.params.scale
    types: Dict[int, Tuple[int, float]] = {}

    def fail(node: PlanNode, why: str) -> None:
        raise PlanValidationError(f"plan node {node.id} ({node.op}): {why}")

    for node in graph.topo_order():
        if node.op == "const":
            continue
        if node.op == "input":
            level = node.level_count if node.level_count is not None else context.k
            if not 1 <= level <= context.k:
                fail(node, f"input level {level} outside [1, {context.k}]")
            scale = node.scale if node.scale is not None else delta
        elif node.op in ("add", "sub"):
            (la, sa), (lb, sb) = types[node.inputs[0]], types[node.inputs[1]]
            if la != lb:
                fail(
                    node,
                    f"operand level mismatch {la} vs {lb}; "
                    "run place_rescales to align levels",
                )
            if not _scales_match(sa, sb):
                fail(
                    node,
                    f"operand scale mismatch {sa:g} vs {sb:g}; "
                    "run place_rescales or re-encode operands",
                )
            level, scale = la, sa
        elif node.op == "mul_relin":
            (la, sa), (lb, sb) = types[node.inputs[0]], types[node.inputs[1]]
            if la != lb:
                fail(
                    node,
                    f"operand level mismatch {la} vs {lb}; "
                    "run place_rescales to align levels",
                )
            level, scale = la, sa * sb
        elif node.op == "square":
            level, s = types[node.inputs[0]]
            scale = s * s
        elif node.op == "mul_plain":
            level, s = types[node.inputs[0]]
            scale = s * _const_scale(graph, node.const_id, delta)
        elif node.op == "linear_sweep":
            level, s = types[node.inputs[0]]
            scales = [_const_scale(graph, cid, delta) for _, cid in node.terms]
            if not all(_scales_match(scales[0], other) for other in scales):
                spread = f"{min(scales):g} .. {max(scales):g}"
                fail(node, f"term plaintext scales differ ({spread}); one sum, one scale")
            scale = s * scales[0]
        elif node.op == "rescale":
            level, s = types[node.inputs[0]]
            if level < 2:
                fail(node, "cannot rescale at the last level")
            prime = _last_prime(context, level)
            level, scale = level - 1, s / prime
            if scale <= 1.0:
                fail(
                    node,
                    f"rescale drives scale to {scale:g} (<= 1); "
                    "the operand was not a fresh product",
                )
        elif node.op in ("negate", "add_const", "rotate", "conjugate"):
            level, scale = types[node.inputs[0]]
        else:  # pragma: no cover - graph builder rejects unknown ops
            fail(node, "unknown op")
        budget = _total_bits(context, level)
        if math.log2(scale) + headroom_bits > budget:
            fail(
                node,
                f"scale 2^{math.log2(scale):.1f} leaves less than "
                f"{headroom_bits} headroom bits in the {budget}-bit "
                f"modulus budget at level {level}; insert a rescale "
                "or start from a smaller encoding scale",
            )
        types[node.id] = (level, scale)
    return types


def place_rescales(
    graph: PlanGraph,
    context: CkksContext,
    rescale_outputs: bool = True,
) -> PlanGraph:
    """Rewrite a graph with planner-placed rescales and level drops.

    The policy mirrors what the hand-tuned call sites did, generalized:

    * **lazy rescaling** -- a value is rescaled only when a *multiply*
      (or, with ``rescale_outputs``, an output) consumes it at product
      scale (``>= delta^1.5``, which cleanly separates ``delta^2``
      products from ``<= delta`` working scales).  Additions run at
      product scale for free, exactly like the diagonal-matvec
      accumulation.
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
    unchanged (the differential plan mode asserts this).
    """
    delta = context.params.scale
    trigger = delta ** 1.5
    out = PlanGraph()
    mapping: Dict[int, int] = {}
    types: Dict[int, Tuple[int, float]] = {}
    rescaled: Dict[int, int] = {}

    def emit_rescale(nid: int) -> int:
        if nid in rescaled:
            return rescaled[nid]
        level, scale = types[nid]
        if level < 2:
            raise PlanValidationError(
                f"plan node {nid}: needs a rescale (scale {scale:g}) but is "
                "already at the last level; the chain is too deep for this "
                "parameter set"
            )
        new = out.rescale(nid)
        types[new] = (level - 1, scale / _last_prime(context, level))
        rescaled[nid] = new
        return new

    def maybe_rescale(nid: int) -> int:
        _, scale = types[nid]
        return emit_rescale(nid) if scale >= trigger else nid

    def drop_to(nid: int, target_level: int) -> int:
        level, scale = types[nid]
        while level > target_level:
            unit = out.const(1.0, scale=_last_prime(context, level))
            mul = out.mul_plain(nid, unit)
            types[mul] = (level, scale * _last_prime(context, level))
            nid = out.rescale(mul)
            level -= 1
            types[nid] = (level, scale)
        return nid

    def align_levels(a: int, b: int) -> Tuple[int, int]:
        la, lb = types[a][0], types[b][0]
        if la > lb:
            a = drop_to(a, lb)
        elif lb > la:
            b = drop_to(b, la)
        return a, b

    def align_scales(a: int, b: int) -> Tuple[int, int]:
        sa, sb = types[a][1], types[b][1]
        if _scales_match(sa, sb):
            return a, b
        lo, hi = (a, b) if sa < sb else (b, a)
        ratio = max(sa, sb) / min(sa, sb)
        if ratio < MIN_ALIGN_RATIO:
            raise PlanValidationError(
                f"plan nodes {a}/{b}: add/sub operand scales {sa:g} vs "
                f"{sb:g} differ by a ratio below 2^16; aligning them with "
                "a unit multiplication would quantize -- re-encode the "
                "operands at matching scales instead"
            )
        unit = out.const(1.0, scale=ratio)
        raised = out.mul_plain(lo, unit)
        level, s_lo = types[lo]
        types[raised] = (level, s_lo * ratio)
        return (raised, hi) if lo == a else (hi, raised)

    for node in graph.topo_order():
        if node.op == "const":
            mapping[node.id] = out.const(node.value, scale=node.scale)
            continue
        if node.op == "input":
            new = out.input(node.name, node.level_count, node.scale)
            level = node.level_count if node.level_count is not None else context.k
            types[new] = (level, node.scale if node.scale is not None else delta)
            mapping[node.id] = new
            continue
        ins = [mapping[i] for i in node.inputs]
        if node.op == "mul_relin":
            a, b = maybe_rescale(ins[0]), maybe_rescale(ins[1])
            a, b = align_levels(a, b)
            new = out.mul_relin(a, b)
            types[new] = (types[a][0], types[a][1] * types[b][1])
        elif node.op == "square":
            a = maybe_rescale(ins[0])
            new = out.square(a)
            types[new] = (types[a][0], types[a][1] ** 2)
        elif node.op == "mul_plain":
            a = maybe_rescale(ins[0])
            new = out.mul_plain(a, mapping[node.const_id])
            types[new] = (
                types[a][0],
                types[a][1] * _const_scale(graph, node.const_id, delta),
            )
        elif node.op == "linear_sweep":
            a = maybe_rescale(ins[0])
            new = out.linear_sweep(a, [(step, mapping[c]) for step, c in node.terms])
            scale = types[a][1] * _const_scale(graph, node.terms[0][1], delta)
            types[new] = (types[a][0], scale)
        elif node.op in ("add", "sub"):
            a, b = align_levels(ins[0], ins[1])
            a, b = align_scales(a, b)
            new = out.add(a, b) if node.op == "add" else out.sub(a, b)
            types[new] = types[a]
        elif node.op == "add_const":
            new = out.add_const(ins[0], mapping[node.const_id])
            types[new] = types[ins[0]]
        elif node.op == "rotate":
            new = out.rotate(ins[0], node.step)
            types[new] = types[ins[0]]
        elif node.op == "conjugate":
            new = out.conjugate(ins[0])
            types[new] = types[ins[0]]
        elif node.op == "negate":
            new = out.negate(ins[0])
            types[new] = types[ins[0]]
        elif node.op == "rescale":
            new = emit_rescale(ins[0])
        else:  # pragma: no cover - graph builder rejects unknown ops
            raise PlanValidationError(f"plan node {node.id}: unknown op {node.op}")
        mapping[node.id] = new

    for name, nid in graph.outputs.items():
        new = mapping[nid]
        if rescale_outputs:
            level, scale = types[new]
            if scale >= trigger and level >= 2:
                new = emit_rescale(new)
        out.output(new, name)
    return out


def compile_plan(
    graph: PlanGraph,
    context: CkksContext,
    rescale_outputs: bool = True,
    headroom_bits: int = HEADROOM_BITS,
) -> PlanGraph:
    """The standard pipeline: place rescales, then validate loudly."""
    placed = place_rescales(graph, context, rescale_outputs=rescale_outputs)
    check_plan(placed, context, headroom_bits=headroom_bits)
    return placed
