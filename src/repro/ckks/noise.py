"""Heuristic noise bounds for CKKS evaluation.

CKKS correctness hinges on the invariant that the message (at scale
``Δ``) stays far above the noise and far below ``q_l``.  This module
gives each primitive a high-probability bound on the noise's
canonical-embedding magnitude -- the error a decoded slot carries,
times the scale -- for fresh encryption, addition, multiplication,
key switching (Algorithm 7's gadget noise and its Modulus Switch) and
rescaling (Algorithm 6's floor).  :func:`repro.plan.passes.check_plan`
threads them through a plan: every node's type is a
:class:`NoiseEstimate` and the magnitude bound of its slots.

The bounds are Cheon-Kim-Kim-Song's: one slot of a random polynomial
whose ``n`` coefficients have variance ``V`` is below ``6 sqrt(nV)``,
of a product of two such below ``16 sqrt(nV1) sqrt(nV2)``.  Two draws
here are not centred: Algorithm 6 floors (a remainder in ``[0, 1)``)
and Algorithm 7's digits lie in ``[0, q_i)``.  Their mean rides the
all-ones polynomial, whose largest slot is ``1 / sin(π/2n) ≈ 2n/π``.
The test suite holds the bounds above errors measured on decryptions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.ckks.context import CkksContext
from repro.ckks.sampling import ERROR_STDDEV, ERROR_TRUNCATION_SIGMAS

#: High-probability bound on one fresh error coefficient.
ERROR_BOUND = math.ceil(ERROR_TRUNCATION_SIGMAS * ERROR_STDDEV)


@dataclass(frozen=True)
class NoiseEstimate:
    """An upper bound on the noise's canonical-embedding magnitude,
    together with the ciphertext's scale and level."""

    bound: float
    scale: float
    level_count: int

    @property
    def precision_bits(self) -> float:
        """Bits of message precision remaining: log2(scale / noise); a
        decoded slot is off by at most ``2^-precision_bits``."""
        if self.bound <= 0:
            return float("inf")
        return math.log2(self.scale) - math.log2(self.bound)

    def decryptable(self, q_bits: float, message_magnitude: float = 1.0) -> bool:
        """Message + noise still fits under q/2."""
        need = math.log2(self.scale * message_magnitude + self.bound) + 1
        return need < q_bits


class NoiseModel:
    """Per-primitive heuristic noise propagation."""

    def __init__(self, context: CkksContext):
        self.context = context
        n = self.n = context.n
        self.primes = [m.value for m in context.key_basis.moduli[: context.k]]
        #: a centred rounding, variance 1/12: ``6 sqrt(n/12)``.
        self.rounding = math.sqrt(3 * n)
        #: one error polynomial, coefficients below ERROR_BOUND.
        self.error = ERROR_BOUND * math.sqrt(n)
        #: a uniform ``[0, 1)`` draw: its mean 1/2 on the all-ones
        #: polynomial, then a centred rounding.
        self.uniform = n / math.pi + self.rounding
        #: Algorithm 6's floor ``τ0 + τ1·s``, ``|σ(s)| <= 6 sqrt(2n/3)``
        #: for a uniform ternary secret.
        self.floor = self.uniform * (1 + math.sqrt(24 * n))

    # ------------------------------------------------------------------
    def plain(self, scale: float, level_count: int) -> NoiseEstimate:
        """An encoded plaintext: its rounding is its noise."""
        return NoiseEstimate(self.rounding, scale, level_count)

    def fresh(self, scale: float = None, level_count: int = None) -> NoiseEstimate:
        """Public-key encryption noise ``u·e + e0 + e1·s`` with ternary
        ``u``, ``s`` (two products of variances 2/3 and σ²), on top of
        the encoding's rounding."""
        ctx = self.context
        est = self.plain(scale or ctx.params.scale, level_count or ctx.k)
        products = 32 * self.n * ERROR_STDDEV * math.sqrt(2 / 3)
        return NoiseEstimate(
            est.bound + products + self.error, est.scale, est.level_count
        )

    def add(self, a: NoiseEstimate, b: NoiseEstimate) -> NoiseEstimate:
        if a.level_count != b.level_count:
            raise ValueError("level mismatch in noise propagation")
        return NoiseEstimate(a.bound + b.bound, a.scale, a.level_count)

    def multiply(
        self,
        a: NoiseEstimate,
        b: NoiseEstimate,
        a_message: float = 1.0,
        b_message: float = 1.0,
    ) -> NoiseEstimate:
        """Product of two operands whose slots are at most ``a_message``
        and ``b_message``: cross terms message*noise dominate.  A
        plaintext operand is :meth:`plain`."""
        bound = (
            a.bound * b.scale * b_message
            + b.bound * a.scale * a_message
            + a.bound * b.bound
        )
        return NoiseEstimate(bound, a.scale * b.scale, a.level_count)

    def keyswitch(self, a: NoiseEstimate) -> NoiseEstimate:
        """Algorithm 7 additive noise.

        Digit ``i`` contributes ``[c]_{q_i} · e_i`` with ``[c]_{q_i}``
        uniform in ``[0, q_i)``; the Modulus Switch divides the sum by
        the special prime ``P`` and floors.
        """
        level = a.level_count
        digits = sum(self.primes[:level]) / self.context.special_modulus.value
        gadget = digits * self.uniform * self.error
        return NoiseEstimate(a.bound + gadget + self.floor, a.scale, level)

    def rescale(self, a: NoiseEstimate) -> NoiseEstimate:
        """Algorithm 6: divide by the dropped prime, add flooring noise."""
        dropped = self.primes[a.level_count - 1]
        bound = a.bound / dropped + self.floor
        return NoiseEstimate(bound, a.scale / dropped, a.level_count - 1)

    def rotate(self, a: NoiseEstimate) -> NoiseEstimate:
        """Automorphism permutes slots (norm-preserving), then a
        KeySwitch adds its gadget noise."""
        return self.keyswitch(a)
