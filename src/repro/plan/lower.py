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
* :func:`weighted_sum` -- ``sum_i w_i x_i`` at product scale, one
  rescale;
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
from repro.plan.graph import PlanGraph
from repro.plan.passes import _fits, _last_prime


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


def weighted_sum(
    graph: PlanGraph, nodes: Sequence[int], weights: Sequence[float]
) -> int:
    """``sum_i w_i x_i``: the products add at product scale and share
    one rescale."""
    if len(nodes) != len(weights) or not nodes:
        raise ValueError("need equally many ciphertexts and weights")
    terms = [graph.mul_plain(n, graph.const(float(w))) for n, w in zip(nodes, weights)]
    acc = terms[0]
    for term in terms[1:]:
        acc = graph.add(acc, term)
    return graph.rescale(acc)


def matvec_graph(
    matrix: np.ndarray,
    graph: Optional[PlanGraph] = None,
    input_node: Optional[int] = None,
    input_name: str = "x",
    output_name: Optional[str] = "y",
) -> Tuple[PlanGraph, int]:
    """Lower ``y = M x`` (diagonal method) into the plan IR.

    Returns ``(graph, output_node_id)``.  When ``graph``/``input_node``
    are given, the matvec is spliced onto an existing graph (the
    inference example chains one in front of its activation); otherwise
    a fresh graph with one input named ``input_name`` is created and the
    result registered as ``output_name``.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    dim = matrix.shape[0]
    if matrix.shape != (dim, dim):
        raise ValueError("matrix must be square")
    own_graph = graph is None
    if own_graph:
        graph = PlanGraph()
        input_node = graph.input(input_name)
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
    if own_graph and output_name is not None:
        graph.output(out, output_name)
    return graph, out


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
      unit-multiply + rescale when the chain's scale is below the prime,
      the planner's own level-drop idiom)
    * ``add``       -> ``add(cur, cur)``

    Chains track (level, scale) with the planner's own arithmetic, and
    an op the chain cannot sustain (out of levels, out of headroom)
    resets the lane to a fresh input -- a real host would interleave ops
    from a new request at that point -- expressed as a new plan input
    named ``lane{i}_reset{j}``.  The returned graph passes
    :func:`repro.plan.passes.compile_plan` by construction.
    """
    if lanes < 1:
        raise ValueError("need at least one lane")
    delta = context.params.scale
    trigger = delta ** 1.5
    graph = PlanGraph()
    sequence = workload.op_sequence()
    half = graph.const(0.5)

    for lane in range(lanes):
        resets = 0
        cur = graph.input(f"lane{lane}")
        level, scale = context.k, delta

        def reset() -> None:
            nonlocal cur, level, scale, resets
            resets += 1
            cur = graph.input(f"lane{lane}_reset{resets}")
            level, scale = context.k, delta

        def after_auto_rescale() -> Tuple[int, float, bool]:
            """(level, scale) after the rescale place_rescales would
            insert in front of a multiply; False = no level left."""
            if scale < trigger:
                return level, scale, True
            if level < 2:
                return level, scale, False
            return level - 1, scale / _last_prime(context, level), True

        for primitive in sequence:
            if primitive == "add":
                cur = graph.add(cur, cur)
                continue
            if primitive == "keyswitch":
                cur = graph.rotate(cur, 1)
                continue
            if primitive in ("cc_mult", "cp_mult"):
                l2, s2, ok = after_auto_rescale()
                product = s2 * s2 if primitive == "cc_mult" else s2 * delta
                if not ok or not _fits(context, l2, product):
                    reset()
                    l2, s2 = level, scale
                    product = s2 * s2 if primitive == "cc_mult" else s2 * delta
                    if not _fits(context, l2, product):
                        raise ValueError(
                            f"workload {primitive} does not fit even on a "
                            "fresh chain; use a larger k or smaller scale"
                        )
                if primitive == "cc_mult":
                    cur = graph.square(cur)
                else:
                    cur = graph.mul_plain(cur, half)
                level, scale = l2, product
                continue
            if primitive == "rescale":
                if level < 2:
                    reset()
                prime = _last_prime(context, level)
                if scale / prime > 1.0:
                    cur = graph.rescale(cur)
                    level, scale = level - 1, scale / prime
                else:
                    # scale-preserving level drop: unit-multiply up to
                    # the prime, then the real rescale
                    if not _fits(context, level, scale * prime):
                        reset()
                        prime = _last_prime(context, level)
                        if not _fits(context, level, scale * prime):
                            raise ValueError(
                                "workload rescale does not fit even on a "
                                "fresh chain; use a larger k or smaller scale"
                            )
                    unit = graph.const(1.0, scale=prime)
                    cur = graph.rescale(graph.mul_plain(cur, unit))
                    level -= 1
                continue
            raise ValueError(f"unknown primitive {primitive!r}")
        graph.output(cur, f"lane{lane}_out")
    return graph


def fresh_lane_inputs(graph: PlanGraph, make_ciphertext) -> dict:
    """Materialize every plan input via ``make_ciphertext(name)``.

    Convenience for :func:`workload_graph` consumers: reset inputs are
    plan inputs too, so executing the graph needs one fresh ciphertext
    per input node, in deterministic (name-sorted) order.
    """
    return {name: make_ciphertext(name) for name in sorted(graph.inputs)}
