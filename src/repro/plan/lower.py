"""Lowering composite workloads into the plan IR.

Fragment builders of the form ``(graph, node, ...) -> node`` splice one
encrypted linear-algebra composite onto a
:class:`repro.plan.graph.PlanGraph`, so the executor schedules it with
the rest of a program (sweep fusion, batch packing) instead of a caller
running it op by op:

* :func:`rotate_and_sum` -- the log-depth reduction over
  :func:`reduction_steps` that leaves a sum in slot 0;
* :func:`dot_plain` -- one plaintext product, its explicit rescale, then
  the reduction: ``<weights, x>`` in slot 0;
* :func:`polynomial` -- a power-basis polynomial, typed as it is built
  (it needs the context to encode each coefficient at its power's scale);
* :func:`matvec_graph` -- the Halevi-Shoup diagonal matrix-vector
  product (one diagonal gather, zero diagonals skipped): one
  ``linear_sweep`` node -- the ``dim - 1`` rotations share a
  decomposition *and* a Modulus Switch -- plus its rescale.

A caller types its input node from the live ciphertext
(``graph.input("x", level_count=ct.level_count, scale=ct.scale)``), runs
:func:`repro.plan.passes.compile_plan` and a
:class:`repro.plan.executor.PlanExecutor`.

:func:`workload_graph` lowers a :class:`repro.system.workload.Workload`
primitive bag unrolled over ``lanes`` independent ciphertext chains
(the multi-client picture); an op a chain cannot sustain resets the
lane to a fresh plan input.  The parallel chains are what the
executor's batch packing amortizes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.ckks.context import CkksContext
from repro.plan.graph import PlanGraph, PlanNode
from repro.plan.passes import (
    NodeType,
    PlanValidationError,
    _drop_to,
    _last_prime,
    _node_type,
    _product_scale,
    _typed,
    check_plan,
)


def reduction_steps(width: int) -> List[int]:
    """The power-of-two rotation steps of a rotate-and-sum over ``width``
    slots (``width`` rounded up to a power of two)."""
    return [1 << i for i in range((max(1, width) - 1).bit_length())]


def rotate_and_sum(graph: PlanGraph, node: int, width: int) -> int:
    """Sum the first ``width`` slots of ``node`` into slot 0 (log-depth).

    Other slots hold partial sums.  ``width`` must be a power of two and
    the slots beyond it zero for a clean result.  Each step rotates the
    updated accumulator, so no two rotations share a source.
    """
    if width & (width - 1):
        raise ValueError("width must be a power of two")
    for step in reduction_steps(width):
        node = graph.add(node, graph.rotate(node, step))
    return node


def dot_plain(graph: PlanGraph, node: int, weights: Sequence[float]) -> int:
    """Inner product with plaintext ``weights`` (zero-padded to a power
    of two): one product, rescaled *before* the reduction so the
    rotations run one level down, then :func:`rotate_and_sum`; slot 0
    holds ``<weights, x>``."""
    width = 1 << (max(1, len(weights)) - 1).bit_length()
    padded = list(weights) + [0.0] * (width - len(weights))
    product = graph.rescale(graph.mul_plain(node, graph.const(padded)))
    return rotate_and_sum(graph, product, width)


def matvec_graph(
    matrix: np.ndarray,
    graph: Optional[PlanGraph] = None,
    input_node: Optional[int] = None,
) -> Tuple[PlanGraph, int]:
    """Lower ``y = M x`` (diagonal method) into the plan IR.

    Returns ``(graph, output_node_id)``.  When ``graph``/``input_node``
    are given, the matvec is spliced onto an existing graph (the
    inference example chains one in front of its activation); otherwise
    a fresh graph with one input named ``"x"`` is created and the
    result registered as ``"y"``.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    dim = matrix.shape[0]
    if matrix.shape != (dim, dim):
        raise ValueError("matrix must be square")
    own_graph = graph is None
    if own_graph:
        graph = PlanGraph()
        input_node = graph.input("x")
    elif input_node is None:
        raise ValueError("input_node is required when extending a graph")
    # all generalized diagonals in one gather: diags[d, i] = M[i, (i+d) % dim];
    # an all-zero diagonal contributes exactly nothing, so its term (and its
    # rotation key) is skipped; the zero matrix still burns its level/scale
    idx = np.arange(dim)
    diags = matrix[idx[None, :], (idx[None, :] + idx[:, None]) % dim]
    nonzero = [d for d in range(dim) if diags[d].any()] or [0]
    acc = graph.linear_sweep(
        input_node, [(d, graph.const(list(diags[d]))) for d in nonzero]
    )
    out = graph.rescale(acc)
    if own_graph:
        graph.output(out, "y")
    return graph, out


def polynomial(
    graph: PlanGraph, node: int, coeffs: Sequence[float], context: CkksContext
) -> int:
    """``c0 + c1 x + ... + cd x^d`` on ``node``, in the power basis.

    Each power is a product of the two largest below it (a square when
    they are one), rescaled; depth ``ceil(log2 d) + 1`` levels.  Every
    contributing power drops to the deepest power's level, and each
    coefficient is encoded at ``target / s_i`` for its power's scale
    ``s_i``, so all terms sum at the one scale ``target`` with no
    alignment multiply; one rescale, then ``c0`` as a const.  The graph
    up to ``node`` must pass :func:`repro.plan.passes.check_plan`; every
    node emitted is typed, so a polynomial too deep for the chain raises
    :class:`repro.plan.passes.PlanValidationError` here.
    """
    coeffs = [float(c) for c in coeffs]
    if len(coeffs) < 2:
        raise ValueError("need at least a degree-1 polynomial")
    if not any(coeffs[1:]):
        raise ValueError("polynomial has no nonzero non-constant terms")
    types = check_plan(graph, context)

    def level(nid: int) -> int:
        return types[nid][0].level_count

    def scale(nid: int) -> float:
        return types[nid][0].scale

    powers = [node]  # powers[i] = x^(i+1)
    while len(powers) < len(coeffs) - 1:
        k = len(powers) + 1
        a, b = powers[k // 2 - 1], powers[k - k // 2 - 1]
        common = min(level(a), level(b))
        a, b = (_drop_to(graph, p, common, types, context) for p in (a, b))
        product = graph.square(a) if a == b else graph.mul_relin(a, b)
        product = _typed(graph, product, types, context)
        powers.append(_typed(graph, graph.rescale(product), types, context))
    used = [(p, c) for p, c in zip(powers, coeffs[1:]) if c]
    deepest = min(level(p) for p, _ in used)
    used = [(_drop_to(graph, p, deepest, types, context), c) for p, c in used]
    target = max(scale(p) for p, _ in used) * context.params.scale
    acc = None
    for p, c in used:
        term = graph.mul_plain(p, graph.const(c, scale=target / scale(p)))
        term = _typed(graph, term, types, context)
        acc = term if acc is None else _typed(graph, graph.add(acc, term), types, context)
    out = _typed(graph, graph.rescale(acc), types, context)
    if coeffs[0]:
        out = _typed(graph, graph.add_const(out, graph.const(coeffs[0])), types, context)
    return out


def workload_graph(
    workload,
    lanes: int,
    context: CkksContext,
) -> PlanGraph:
    """Unroll a primitive-bag workload over ``lanes`` independent chains.

    Each lane applies the workload's deterministic
    :meth:`~repro.system.workload.Workload.op_sequence` to its own
    ciphertext chain, one plan node per primitive (every plan value is
    size 2, so ``keyswitch`` is always a rotation and ``cc_mult`` a fused
    square+relin):

    * ``keyswitch`` -> ``rotate(cur, 1)``
    * ``cc_mult``   -> ``square(cur)``
    * ``cp_mult``   -> ``mul_plain(cur, 0.5)``
    * ``rescale``   -> ``rescale(cur)`` (realized as a scale-preserving
      unit-multiply + rescale when the rescale alone would leave no
      precision, the planner's own level-drop idiom)
    * ``add``       -> ``add(cur, cur)``

    Each step is typed by the planner's rule as placement will see it
    (with the rescale placement puts in front of a multiply), and an op
    the rule refuses on the chain resets the lane to a fresh input -- a
    real host would interleave ops from a new request at that point --
    expressed as a new plan input named ``lane{i}_reset{j}``.  The
    returned graph passes :func:`repro.plan.passes.compile_plan` by
    construction.
    """
    if lanes < 1:
        raise ValueError("need at least one lane")
    graph = PlanGraph()
    half = graph.const(0.5)
    consts = PlanGraph()  # what a step multiplies by, to type it off the graph
    typed_half = consts.const(0.5)
    fresh = _node_type(consts, PlanNode(0, "input"), {}, context)

    def after(start: NodeType, *steps) -> Optional[NodeType]:
        """The type ``steps`` -- ops, each on the last one's result, a
        product as ``("mul_plain", const id in consts)`` -- leave from a
        ``start``-typed value; None where the rule refuses one."""
        types = {0: start}
        for i, step in enumerate(steps, start=1):
            op, const_id = step if isinstance(step, tuple) else (step, None)
            node = PlanNode(i, op, (i - 1,) * (1 + (op == "add")), const_id=const_id)
            try:
                types[i] = _node_type(consts, node, types, context)
            except PlanValidationError:
                return None
        return types[len(steps)]

    def ways(primitive: str, start: NodeType):
        """``(type after, emit)`` per way to apply ``primitive`` to a
        ``start``-typed chain, best first."""
        auto = ("rescale",) if _product_scale(start[0], context) else ()
        if primitive == "add":
            return [(after(start, "add"), lambda cur: graph.add(cur, cur))]
        if primitive == "keyswitch":
            return [(after(start, "rotate"), lambda cur: graph.rotate(cur, 1))]
        if primitive == "cc_mult":
            return [(after(start, *auto, "square"), graph.square)]
        if primitive == "cp_mult":
            step = ("mul_plain", typed_half)
            return [(after(start, *auto, step), lambda cur: graph.mul_plain(cur, half))]
        if primitive == "rescale":
            prime = _last_prime(context, start[0].level_count)
            unit = ("mul_plain", consts.const(1.0, scale=prime))
            return [
                (after(start, "rescale"), graph.rescale),
                (
                    after(start, unit, "rescale"),
                    lambda cur: graph.rescale(
                        graph.mul_plain(cur, graph.const(1.0, scale=prime))
                    ),
                ),
            ]
        raise ValueError(f"unknown primitive {primitive!r}")

    for lane in range(lanes):
        resets = 0
        cur, current = graph.input(f"lane{lane}"), fresh
        for primitive in workload.op_sequence():
            fits = [way for way in ways(primitive, current) if way[0]]
            if not fits:
                resets += 1
                cur = graph.input(f"lane{lane}_reset{resets}")
                fits = [way for way in ways(primitive, fresh) if way[0]]
                if not fits:
                    raise ValueError(
                        f"workload {primitive} does not fit even on a fresh "
                        "chain; use a larger k or smaller scale"
                    )
            current, emit = fits[0]
            cur = emit(cur)
        graph.output(cur, f"lane{lane}_out")
    return graph


def fresh_lane_inputs(graph: PlanGraph, make_ciphertext) -> dict:
    """Materialize every plan input via ``make_ciphertext(name)``.

    Convenience for :func:`workload_graph` consumers: reset inputs are
    plan inputs too, so executing the graph needs one fresh ciphertext
    per input node, in deterministic (name-sorted) order.
    """
    return {name: make_ciphertext(name) for name in sorted(graph.inputs)}
