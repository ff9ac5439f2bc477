"""Planner passes: scale/level checking and rescale placement.

The passes run over a :class:`repro.plan.graph.PlanGraph` *before*
execution, replacing the hand-managed scale/level bookkeeping of eager
composites (now the fragments of :mod:`repro.plan.lower`; the inference
example) with one planner and one typing rule, :func:`_node_type`: a
node's level, scale, noise bound and slot magnitude from its operands'
under the exact discipline the evaluator enforces at runtime (level
equality, :data:`~repro.ckks.batch.SCALE_RTOL` scale matching, products
multiply scales, a rescale divides by the last prime) and the bounds of
:class:`repro.ckks.noise.NoiseModel`, or the error naming the node.  A
node must decrypt at its level's modulus and keep 1 bit of precision.
Both passes type every node with it:

* :func:`check_plan` -- the rule along the DAG plus a slot-count cap on
  every const.  Rejects unplaceable graphs loudly, before any
  ciphertext work happens.
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
from repro.ckks.noise import NoiseEstimate, NoiseModel
from repro.plan.graph import PlanGraph, PlanNode

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


#: A ciphertext node's type: its noise estimate (level, scale and noise
#: bound) and a bound on its slots' magnitude.
NodeType = Tuple[NoiseEstimate, float]


def _q_bits(context: CkksContext, level_count: int) -> float:
    return sum(math.log2(m.value) for m in context.key_basis.moduli[:level_count])


def _last_prime(context: CkksContext, level_count: int) -> float:
    return float(context.basis_at_level(level_count).moduli[-1].value)


def _const_scale(graph: PlanGraph, const_id: int, default: float) -> float:
    scale = graph.nodes[const_id].scale
    return default if scale is None else scale


def _magnitude(graph: PlanGraph, const_id: int) -> float:
    """A const's largest slot magnitude."""
    value = graph.nodes[const_id].value
    return abs(value) if np.isscalar(value) else float(max(map(abs, value)))


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


def _node_type(
    graph: PlanGraph,
    node: PlanNode,
    types: Dict[int, NodeType],
    context: CkksContext,
) -> NodeType:
    """The type of a ciphertext node whose operands are typed in
    ``types``: the one typing rule both passes and serving admission apply.

    Levels and scales follow the discipline the evaluator enforces at
    runtime; noise bounds follow :class:`~repro.ckks.noise.NoiseModel`;
    input slots are at most 1 in magnitude, sums add magnitudes,
    products multiply them, a const counts as its largest value.
    Raises :class:`PlanValidationError` naming the node and the violated
    rule -- level mismatches, scale mismatches beyond
    :data:`~repro.ckks.batch.SCALE_RTOL`, rescales at the last level,
    result scales of 0 or inf, a node that would not decrypt at its
    level's modulus, or one left with less than 1 bit of precision.
    """
    model = NoiseModel(context)
    delta = context.params.scale
    if node.op == "input":
        level = node.level_count if node.level_count is not None else context.k
        if not 1 <= level <= context.k:
            _fail(node, f"input level {level} outside [1, {context.k}]")
        est, mag = model.fresh(node.scale or delta, level), 1.0
    elif node.op in ("add", "mul_relin"):
        (a, ma), (b, mb) = types[node.inputs[0]], types[node.inputs[1]]
        if a.level_count != b.level_count:
            _fail(
                node,
                f"operand level mismatch {a.level_count} vs {b.level_count}; "
                "run place_rescales to align levels",
            )
        if node.op == "mul_relin":
            est, mag = model.keyswitch(model.multiply(a, b, ma, mb)), ma * mb
        else:
            if not _scales_match(a.scale, b.scale):
                _fail(
                    node,
                    f"operand scale mismatch {a.scale:g} vs {b.scale:g}; "
                    "run place_rescales or re-encode operands",
                )
            est, mag = model.add(a, b), ma + mb
    else:
        a, mag = types[node.inputs[0]]
        level = a.level_count
        if node.op == "mul_plain":
            scale = _const_scale(graph, node.const_id, delta)
            c = _magnitude(graph, node.const_id)
            est, mag = model.multiply(a, model.plain(scale, level), mag, c), mag * c
        elif node.op == "linear_sweep":
            scales = [_const_scale(graph, cid, delta) for _, cid in node.terms]
            if not all(_scales_match(scales[0], other) for other in scales):
                spread = f"{min(scales):g} .. {max(scales):g}"
                _fail(node, f"term plaintext scales differ ({spread}); one sum, one scale")
            plain, rotated = model.plain(scales[0], level), model.rotate(a)
            consts = [_magnitude(graph, cid) for _, cid in node.terms]
            terms = [
                model.multiply(rotated if step else a, plain, mag, c)
                for (step, _), c in zip(node.terms, consts)
            ]
            est = terms[0]
            for term in terms[1:]:
                est = model.add(est, term)
            mag *= sum(consts)
        elif node.op == "square":
            est, mag = model.keyswitch(model.multiply(a, a, mag, mag)), mag * mag
        elif node.op == "rescale":
            if level < 2:
                _fail(node, "cannot rescale at the last level")
            est = model.rescale(a)
        elif node.op in ("rotate", "conjugate"):
            est = model.rotate(a)
        elif node.op == "add_const":
            est = model.add(a, model.plain(a.scale, level))
            mag += _magnitude(graph, node.const_id)
        else:  # negate
            est = a
    # finite and > 0, the wire's own rule: a product or quotient of valid
    # scales can still under- or overflow
    if not 0.0 < est.scale < math.inf:
        _fail(node, f"drives scale to {est.scale:g}; a scale must be finite and > 0")
    q_bits = _q_bits(context, est.level_count)
    if not est.decryptable(q_bits, message_magnitude=mag):
        _fail(
            node,
            f"does not decrypt: slots up to {mag:g} at scale "
            f"2^{math.log2(est.scale):.1f} plus noise 2^{math.log2(est.bound):.1f} "
            f"pass half the {q_bits:.1f}-bit modulus at level {est.level_count}; "
            "insert a rescale or start from a smaller encoding scale",
        )
    if est.precision_bits < 1:
        _fail(
            node,
            f"{est.precision_bits:.1f} bits of precision left (< 1): noise "
            f"2^{math.log2(est.bound):.1f} at scale 2^{math.log2(est.scale):.1f}; "
            "rescale only product-scale values, or encode at a larger scale",
        )
    return est, mag


def _typed(graph: PlanGraph, nid: int, types: Dict[int, NodeType], context: CkksContext) -> int:
    """Type node ``nid`` of ``graph`` into ``types``; returns ``nid``."""
    types[nid] = _node_type(graph, graph.nodes[nid], types, context)
    return nid


def _drop_to(
    graph: PlanGraph,
    nid: int,
    level: int,
    types: Dict[int, NodeType],
    context: CkksContext,
) -> int:
    """Bring typed node ``nid`` down to ``level`` in ``graph`` without
    moving its scale: per level, a unit multiply at the last prime, then
    the rescale by it.  Every node emitted is typed."""
    while types[nid][0].level_count > level:
        unit = graph.const(1.0, scale=_last_prime(context, types[nid][0].level_count))
        product = _typed(graph, graph.mul_plain(nid, unit), types, context)
        nid = _typed(graph, graph.rescale(product), types, context)
    return nid


def check_plan(graph: PlanGraph, context: CkksContext) -> Dict[int, NodeType]:
    """Type every ciphertext node; raise loudly.

    Returns ``{node_id: (estimate, magnitude)}`` for the ciphertext
    nodes of a valid plan (:data:`NodeType`).  Raises
    :class:`PlanValidationError` naming the node and the violated rule
    otherwise: :func:`_node_type`'s, or a const holding more values than
    the context has slots (the encoder would refuse it mid-run, after
    earlier steps had done their work).
    """
    slots = context.params.slot_count
    types: Dict[int, NodeType] = {}
    for node in graph.topo_order():
        if node.op == "const":
            if np.size(node.value) > slots:
                _fail(node, f"holds {np.size(node.value)} values > {slots} slots")
            continue
        _typed(graph, node.id, types, context)
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
    * **scale alignment** -- a same-level add whose scales differ
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
    out = PlanGraph()
    mapping: Dict[int, int] = {}
    types: Dict[int, NodeType] = {}
    rescaled: Dict[int, int] = {}

    def typed(nid: int) -> int:
        return _typed(out, nid, types, context)

    def emit_rescale(nid: int) -> int:
        if nid not in rescaled:
            rescaled[nid] = typed(out.rescale(nid))
        return rescaled[nid]

    def maybe_rescale(nid: int) -> int:
        return emit_rescale(nid) if _product_scale(types[nid][0], context) else nid

    def align_levels(a: int, b: int) -> Tuple[int, int]:
        target = min(types[a][0].level_count, types[b][0].level_count)
        return _drop_to(out, a, target, types, context), _drop_to(out, b, target, types, context)

    def align_scales(a: int, b: int) -> Tuple[int, int]:
        sa, sb = types[a][0].scale, types[b][0].scale
        if _scales_match(sa, sb):
            return a, b
        ratio = max(sa, sb) / min(sa, sb)
        if ratio < MIN_ALIGN_RATIO:
            raise PlanValidationError(
                f"plan nodes {a}/{b}: add operand scales {sa:g} vs "
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
        if node.op == "add":
            ins = align_scales(*ins)
        if node.op == "rescale":
            mapping[node.id] = emit_rescale(ins[0])
        elif node.op == "const":
            mapping[node.id] = out.copy(node, ins, mapping)
        else:
            mapping[node.id] = typed(out.copy(node, ins, mapping))

    for name, nid in graph.outputs.items():
        new = mapping[nid]
        if rescale_outputs and types[new][0].level_count >= 2:
            new = maybe_rescale(new)
        out.output(new, name)
    return out


def _product_scale(est: NoiseEstimate, context: CkksContext) -> bool:
    """Is ``est`` at product scale (``>= delta^1.5``), so that placement
    rescales it in front of a multiply?"""
    return est.scale >= context.params.scale ** 1.5


def compile_plan(
    graph: PlanGraph,
    context: CkksContext,
    rescale_outputs: bool = True,
) -> PlanGraph:
    """The standard pipeline: place rescales, then validate loudly."""
    placed = place_rescales(graph, context, rescale_outputs=rescale_outputs)
    check_plan(placed, context)
    return placed
