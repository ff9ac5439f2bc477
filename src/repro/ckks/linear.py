"""Encrypted linear algebra on top of the evaluator.

The paper motivates HEAX with Machine-Learning-as-a-Service: oblivious
inference is dot products, matrix-vector products and low-degree
polynomial activations over packed ciphertexts.  This module provides
those compositions with correct level/scale management:

* :func:`rotate_and_sum` / :meth:`LinearEvaluator.dot_plain` -- the
  log-depth reduction that leaves a sum (or inner product) in every
  slot;
* :meth:`LinearEvaluator.matvec_diagonal` -- the classic diagonal
  (Halevi-Shoup) encrypted matrix-vector product as **one**
  key-switched linear combination
  (:meth:`repro.ckks.evaluator.Evaluator.linear_sweep`: the up to
  ``d - 1`` rotations share one decomposition *and* one Modulus
  Switch), with all-zero diagonals skipped;
* :meth:`LinearEvaluator.evaluate_polynomial` -- scale-aligned
  evaluation of a real-coefficient polynomial on a ciphertext
  (activation functions such as the degree-3 sigmoid approximation);
* :meth:`LinearEvaluator.weighted_sum` -- affine combinations of
  ciphertexts at matched levels.

Every operation decomposes into exactly the primitives HEAX
accelerates (C-P MULT, KeySwitch-backed rotation, rescale);
:meth:`LinearEvaluator.op_counts` reports that decomposition so
workloads can be costed on the accelerator model.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.ckks.context import CkksContext
from repro.ckks.encoder import CkksEncoder
from repro.ckks.evaluator import Evaluator
from repro.ckks.keys import GaloisKeySet, RelinKey
from repro.ckks.poly import Ciphertext


def reduction_steps(width: int) -> List[int]:
    """The power-of-two rotation steps of a rotate-and-sum over ``width``
    slots (``width`` rounded up to a power of two)."""
    steps = []
    s = 1
    while s < width:
        steps.append(s)
        s <<= 1
    return steps


class LinearEvaluator:
    """Composite encrypted-linear-algebra operations."""

    def __init__(self, context: CkksContext):
        self.context = context
        self.encoder = CkksEncoder(context)
        self.evaluator = Evaluator(context)

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def rotate_and_sum(
        self, ct: Ciphertext, width: int, galois_keys: GaloisKeySet
    ) -> Ciphertext:
        """Sum the first ``width`` slots into slot 0 (log-depth).

        After the reduction, slot 0 holds ``sum_{i<width} slot_i``
        (other slots hold partial sums).  ``width`` must be a power of
        two and the slots beyond it must be zero for a clean result.

        Each step rotates the freshly-updated accumulator, so the
        decomposition cannot be hoisted *across* steps -- but every
        individual rotation still takes the NTT-domain fast path.
        """
        if width & (width - 1):
            raise ValueError("width must be a power of two")
        acc = ct
        for step in reduction_steps(width):
            acc = self.evaluator.add(
                acc, self.evaluator.rotate(acc, step, galois_keys)
            )
        return acc

    def dot_plain(
        self,
        ct: Ciphertext,
        weights: Sequence[float],
        galois_keys: GaloisKeySet,
    ) -> Ciphertext:
        """Inner product of an encrypted vector with plaintext weights.

        One C-P multiply + rescale, then a rotate-and-sum reduction;
        slot 0 of the result holds ``<weights, x>``.
        """
        width = 1 << (max(1, len(weights)) - 1).bit_length()
        padded = list(weights) + [0.0] * (width - len(weights))
        wx = self.evaluator.multiply_plain(
            ct, self.encoder.encode(padded, level_count=ct.level_count)
        )
        wx = self.evaluator.rescale(wx)
        return self.rotate_and_sum(wx, width, galois_keys)

    # ------------------------------------------------------------------
    # matrix-vector product (diagonal method)
    # ------------------------------------------------------------------
    def matvec_diagonal(
        self,
        matrix: np.ndarray,
        ct: Ciphertext,
        galois_keys: GaloisKeySet,
    ) -> Ciphertext:
        """Encrypted ``y = M x`` for a square plaintext matrix.

        Halevi-Shoup diagonal encoding: ``y = sum_d diag_d(M) *
        rot(x, d)`` where ``diag_d(M)[i] = M[i][(i + d) mod dim]``.
        Requires rotation keys for every step of a nonzero diagonal and
        one multiplicative level.

        This is the canonical hoisting workload -- up to ``dim - 1``
        rotations of the *same* ciphertext -- so it lowers into the
        workload planner (:func:`repro.plan.lower.matvec_graph`) as one
        ``linear_sweep`` node plus its rescale: the rotations share a
        single key-switch decomposition and a single Modulus Switch,
        and the planner validates the level/scale discipline before
        any ciphertext work.  The input node is typed
        with the live ciphertext's level and scale, so the checker
        validates the *actual* chain.  Diagonals are extracted with one
        vectorized gather and all-zero diagonals are skipped (their term
        is exactly zero).
        """
        from repro.plan import PlanExecutor, PlanGraph, compile_plan
        from repro.plan.lower import matvec_graph

        matrix = np.asarray(matrix, dtype=np.float64)
        dim = matrix.shape[0]
        if matrix.shape != (dim, dim):
            raise ValueError("matrix must be square")
        if dim > self.encoder.slot_count:
            raise ValueError("matrix larger than slot count")
        graph = PlanGraph()
        x = graph.input("x", level_count=ct.level_count, scale=ct.scale)
        _, out = matvec_graph(matrix, graph=graph, input_node=x)
        graph.output(out, "y")
        plan = compile_plan(graph, self.context)
        run = PlanExecutor(self.context, galois_keys=galois_keys).run(
            plan, {"x": ct}
        )
        return run.outputs["y"]

    # ------------------------------------------------------------------
    # affine / polynomial maps
    # ------------------------------------------------------------------
    def weighted_sum(
        self, cts: Sequence[Ciphertext], weights: Sequence[float]
    ) -> Ciphertext:
        """``sum_i w_i ct_i`` (one level, scales kept aligned)."""
        if len(cts) != len(weights) or not cts:
            raise ValueError("need equally many ciphertexts and weights")
        acc = None
        for ct, w in zip(cts, weights):
            term = self.evaluator.multiply_plain(
                ct, self.encoder.encode(float(w), level_count=ct.level_count)
            )
            acc = term if acc is None else self.evaluator.add(acc, term)
        return self.evaluator.rescale(acc)

    def evaluate_polynomial(
        self,
        ct: Ciphertext,
        coeffs: Sequence[float],
        relin_key: RelinKey,
    ) -> Ciphertext:
        """Evaluate ``c0 + c1 x + ... + cd x^d`` on an encrypted ``x``.

        Power-basis evaluation with per-term level alignment: powers are
        produced by repeated multiply+relinearize+rescale, then each
        scaled power is brought to the deepest level before the final
        sum.  Depth: ``ceil(log2 d) + 1`` levels for degree ``d``.
        """
        coeffs = list(coeffs)
        if len(coeffs) < 2:
            raise ValueError("need at least a degree-1 polynomial")
        degree = len(coeffs) - 1
        ev, enc = self.evaluator, self.encoder

        # powers[i] = ct^(i+1), each relinearized and rescaled.
        powers: List[Ciphertext] = [ct]
        while len(powers) < degree:
            # square-and-multiply: build the next power from the largest
            # existing ones to minimize depth.
            k = len(powers) + 1
            half = k // 2
            a, b = powers[half - 1], powers[k - half - 1]
            a, b = self._align(a, b)
            nxt = ev.rescale(ev.relinearize(ev.multiply(a, b), relin_key))
            powers.append(nxt)

        deepest = min(p.level_count for p in powers)
        if deepest < 2:
            raise ValueError(
                f"degree-{degree} evaluation needs ceil(log2 d)+1 levels "
                f"below the input; increase k (deepest power is at the "
                f"last level and cannot absorb its coefficient)"
            )
        # Bring every contributing power to the deepest level, then encode
        # each coefficient at scale T / s_i for a common target T: after
        # the shared rescale all terms sit at exactly T / p_last, so the
        # final additions need no further adjustment.
        used = [
            (self._to_level(powers[i - 1], deepest), float(c))
            for i, c in enumerate(coeffs[1:], start=1)
            if c != 0.0
        ]
        if not used:
            raise ValueError("polynomial has no nonzero non-constant terms")
        target = max(p.scale for p, _ in used) * self.context.params.scale
        terms = []
        for p, c in used:
            term = ev.multiply_plain(
                p,
                enc.encode(c, scale=target / p.scale, level_count=deepest),
            )
            terms.append(ev.rescale(term))
        acc = terms[0]
        for t in terms[1:]:
            acc = ev.add(acc, t)
        if coeffs[0]:
            acc = ev.add_plain(
                acc,
                enc.encode(
                    float(coeffs[0]), scale=acc.scale, level_count=acc.level_count
                ),
            )
        return acc

    # ------------------------------------------------------------------
    # level/scale alignment helpers
    # ------------------------------------------------------------------
    def _to_level(self, ct: Ciphertext, level_count: int) -> Ciphertext:
        """Bring a ciphertext down to ``level_count`` via unit multiplies."""
        ev, enc = self.evaluator, self.encoder
        while ct.level_count > level_count:
            ct = ev.rescale(
                ev.multiply_plain(
                    ct, enc.encode(1.0, level_count=ct.level_count)
                )
            )
        return ct

    def _align(self, a: Ciphertext, b: Ciphertext):
        """Bring two ciphertexts to a common level (for multiplication,
        which -- unlike addition -- tolerates unequal scales)."""
        target = min(a.level_count, b.level_count)
        return self._to_level(a, target), self._to_level(b, target)

    # ------------------------------------------------------------------
    # accelerator costing
    # ------------------------------------------------------------------
    @staticmethod
    def op_counts(kind: str, dim: int = 0) -> Dict[str, int]:
        """Primitive-operation decomposition of a composite op.

        Returns counts of the accelerator-visible primitives:
        ``rotations`` (KeySwitch each), ``cp_mults``, ``rescales``.
        """
        if kind == "dot_plain":
            width = 1 << (max(1, dim) - 1).bit_length()
            return {
                "rotations": len(reduction_steps(width)),
                "cp_mults": 1,
                "rescales": 1,
            }
        if kind == "matvec_diagonal":
            return {"rotations": dim - 1, "cp_mults": dim, "rescales": 1}
        if kind == "rotate_and_sum":
            return {
                "rotations": len(reduction_steps(dim)),
                "cp_mults": 0,
                "rescales": 0,
            }
        raise ValueError(f"unknown composite op {kind!r}")
