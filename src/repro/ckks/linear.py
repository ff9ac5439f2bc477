"""Eager polynomial evaluation on top of the evaluator.

:meth:`LinearEvaluator.evaluate_polynomial` evaluates a real-coefficient
polynomial on a ciphertext (activation functions such as the degree-3
sigmoid approximation) with its own level and scale alignment.  The
other encrypted linear-algebra composites -- rotate-and-sum, plaintext
dot products, weighted sums, the diagonal matvec -- are plan fragments
in :mod:`repro.plan.lower`.  This one stays eager because
:func:`repro.plan.passes.compile_plan` refuses a degree-2 program on the
toy chain (``n = 64``, ``k = 3``, 30-bit primes, ``delta = 2^28``): its
level-2 products (2^54 and up against a 60-bit budget) break the fixed
:data:`repro.plan.passes.HEADROOM_BITS` rule, and its power-basis sum's
scales differ by less than :data:`repro.plan.passes.MIN_ALIGN_RATIO`.
This code decodes that case within 2e-5.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.ckks.context import CkksContext
from repro.ckks.encoder import CkksEncoder
from repro.ckks.evaluator import Evaluator
from repro.ckks.keys import RelinKey
from repro.ckks.poly import Ciphertext


class LinearEvaluator:
    """Eager power-basis polynomial evaluation."""

    def __init__(self, context: CkksContext):
        self.context = context
        self.encoder = CkksEncoder(context)
        self.evaluator = Evaluator(context)

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
