"""CKKS canonical-embedding encoder/decoder.

A CKKS plaintext encodes ``n/2`` complex message slots as a real
polynomial ``m ∈ R`` scaled by ``Δ``: the slot values are the evaluations
``m(ζ^{3^t})`` at odd powers of the primitive ``2n``-th complex root
``ζ = exp(iπ/n)``, ordered along the rotation group ``<3> ⊂ Z_{2n}^*``.

That ordering is what makes the Galois automorphism ``X -> X^{3^r}`` act
as a *cyclic left rotation by r slots* and ``X -> X^{2n-1}`` act as
complex conjugation -- the two operations CKKS.GlkGen supports.

The embedding is computed with an ``O(n log n)`` twisted FFT:
``m(ζ^{2j+1}) = Σ_k (m_k ζ^k) e^{2πi jk / n}``, i.e. an ordinary DFT of
the ``ζ^k``-twisted coefficient vector.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

from repro.ckks.context import CkksContext
from repro.ckks.modarith import powers_mod
from repro.ckks.poly import Plaintext, RnsPolynomial
from repro.ckks.rns import RnsBasis


class CkksEncoder:
    """Encode/decode complex vectors to/from CKKS plaintexts."""

    def __init__(self, context: CkksContext):
        self.context = context
        n = context.n
        self.slot_count = n // 2
        # slot t <-> DFT bin j_t = (3^t mod 2n - 1) / 2; the conjugate
        # lives at exponent 2n - 3^t, i.e. bin n - 1 - j_t.
        self._slot_bins = (powers_mod(3, self.slot_count, 2 * n) - 1) // 2
        k = np.arange(n)
        self._twist = np.exp(1j * np.pi * k / n)  # ζ^k
        self._untwist = np.conj(self._twist)

    # ------------------------------------------------------------------
    def _values_to_coeffs(self, values: np.ndarray) -> np.ndarray:
        """Inverse canonical embedding: slot values -> real coefficients."""
        n = self.context.n
        v = np.zeros(n, dtype=np.complex128)
        v[self._slot_bins] = values
        v[n - 1 - self._slot_bins] = np.conj(values)
        b = np.fft.fft(v) / n  # b_k = (1/n) Σ_j v_j e^{-2πi jk/n}
        m = b * self._untwist
        return m.real

    def _coeffs_to_values(self, coeffs: np.ndarray) -> np.ndarray:
        """Canonical embedding: real coefficients -> slot values."""
        n = self.context.n
        b = coeffs.astype(np.complex128) * self._twist
        v = np.fft.ifft(b) * n  # v_j = Σ_k b_k e^{+2πi jk/n}
        return v[self._slot_bins]

    # ------------------------------------------------------------------
    def encode(
        self,
        values: Union[Sequence[complex], complex, float, int],
        scale: float = None,
        level_count: int = None,
        to_ntt: bool = True,
        extended: bool = False,
    ) -> Plaintext:
        """Encode a vector of at most ``n/2`` complex values.

        Scalars broadcast to every slot.  Short vectors are zero-padded.
        The plaintext is produced in NTT form by default, matching the
        representation HEAX keeps all operands in.  ``extended`` encodes
        over the level's key basis (its data primes plus the special
        prime) -- the operand of :meth:`Evaluator.linear_sweep`, which
        multiplies key-switch accumulators before their Modulus Switch.
        """
        ctx = self.context
        if scale is None:
            scale = ctx.params.scale
        if level_count is None:
            level_count = ctx.k
        if isinstance(values, (int, float, complex)):
            vec = np.full(self.slot_count, complex(values), dtype=np.complex128)
        else:
            vec = np.asarray(list(values), dtype=np.complex128)
            if len(vec) > self.slot_count:
                raise ValueError(
                    f"too many values: {len(vec)} > {self.slot_count} slots"
                )
            if len(vec) < self.slot_count:
                vec = np.concatenate(
                    [vec, np.zeros(self.slot_count - len(vec), dtype=np.complex128)]
                )
        coeffs = self._values_to_coeffs(vec) * scale
        rounded = np.rint(coeffs)
        at_level = ctx.key_basis_at_level if extended else ctx.basis_at_level
        basis = at_level(level_count)
        # a coefficient at or past q/2 would wrap to another value mod q;
        # written so that a NaN or inf peak (non-finite input) fails too
        peak = float(np.abs(rounded).max())
        if not 2 * peak < basis.product:
            raise ValueError(
                f"scaled coefficient magnitude {peak:.3g} is not below the "
                f"q/2 = {basis.product / 2:.3g} budget of the "
                f"{len(basis)}-prime encode basis"
            )
        if peak < 2.0**62:
            # single-word signed coefficients: hand the int64 vector to
            # the backend's native RNS decomposition (np.rint rounds
            # half-to-even exactly like Python round on floats)
            int_coeffs = rounded.astype(np.int64)
        else:  # pragma: no cover - needs an astronomically large scale
            int_coeffs = [int(round(c)) for c in coeffs.tolist()]
        poly = RnsPolynomial.from_int_coeffs(
            int_coeffs, basis.moduli, backend=ctx.backend
        )
        if to_ntt:
            poly = ctx.to_ntt(poly)
        return Plaintext(poly, float(scale))

    def decode(self, plaintext: Plaintext) -> np.ndarray:
        """Decode a plaintext back to its ``n/2`` complex slot values."""
        ctx = self.context
        poly = plaintext.poly
        if poly.is_ntt:
            poly = ctx.from_ntt(poly)
        basis = RnsBasis(poly.moduli)
        # exact CRT of the whole (resident) residue matrix at once
        ints = basis.compose_centered_rows(poly.rows)
        coeffs = np.array([float(v) for v in ints], dtype=np.float64)
        return self._coeffs_to_values(coeffs / plaintext.scale)
