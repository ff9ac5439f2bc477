"""Residue number system (RNS) tooling.

Full-RNS CKKS represents every big-modulus polynomial as a tuple of
word-sized residue polynomials (Section 2, "Residue Number System").  This
module provides:

* :class:`RnsBasis` -- an ordered set of pairwise-coprime word-sized
  moduli with CRT compose/decompose and the punctured-product constants
  ``π_i = q / p_i`` and ``[π_i^{-1}]_{p_i}``.
* the **gadget decomposition** of Section 2 used by key switching
  (Algorithm 7): ``g^{-1}(a) = ([a]_{p_0}, ..., [a]_{p_l})`` with gadget
  vector ``g_i = π_i [π_i^{-1}]_{p_i}``.

Whole-polynomial base conversion (:meth:`RnsBasis.decompose_rows`)
routes through the active polynomial backend so that reducing ``n``
coefficients into every residue row is one vectorized pass per prime
instead of ``n * k`` Python modulo operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.ckks.backend import get_backend
from repro.ckks.backend.numpy_backend import _WORD_SAFE_BOUND, _scalar_mul
from repro.ckks.modarith import Modulus


@dataclass(frozen=True)
class RnsBasis:
    """An ordered RNS basis of pairwise-coprime word-sized moduli."""

    moduli: tuple

    def __init__(self, moduli: Sequence[Modulus]):
        values = [m.value for m in moduli]
        if len(set(values)) != len(values):
            raise ValueError("RNS moduli must be distinct")
        for i, a in enumerate(values):
            for b in values[i + 1 :]:
                if _gcd(a, b) != 1:
                    raise ValueError(f"moduli {a} and {b} are not coprime")
        object.__setattr__(self, "moduli", tuple(moduli))

    def __len__(self) -> int:
        return len(self.moduli)

    def __iter__(self):
        return iter(self.moduli)

    def __getitem__(self, i: int) -> Modulus:
        return self.moduli[i]

    @property
    def product(self) -> int:
        """The big modulus ``q = prod p_i``."""
        q = 1
        for m in self.moduli:
            q *= m.value
        return q

    def punctured_product(self, i: int) -> int:
        """``π_i = q / p_i``."""
        return self.product // self.moduli[i].value

    def punctured_inverse(self, i: int) -> int:
        """``[π_i^{-1}]_{p_i}``."""
        p = self.moduli[i].value
        return pow(self.punctured_product(i) % p, -1, p)

    def decompose(self, value: int) -> List[int]:
        """Map an integer in ``[0, q)`` to its residue vector."""
        return [value % m.value for m in self.moduli]

    def decompose_rows(self, coeffs: Sequence[int]) -> List[List[int]]:
        """RNS-decompose a whole coefficient vector: one row per prime.

        The vector form of :meth:`decompose`, dispatched to the active
        polynomial backend (coefficients may be signed or multi-word;
        backends fall back to exact big-int reduction when needed).
        """
        be = get_backend()
        return be.to_rows(be.decompose_native(self.moduli, coeffs))

    def compose(self, residues: Sequence[int]) -> int:
        """CRT-reconstruct the integer in ``[0, q)`` from residues.

        Implements ``a = sum_i a_i π_i [π_i^{-1}]_{p_i}  (mod q)``
        (the inverse mapping of Section 2).
        """
        if len(residues) != len(self.moduli):
            raise ValueError("residue count does not match basis size")
        q = self.product
        acc = 0
        for i, (r, m) in enumerate(zip(residues, self.moduli)):
            pi = self.punctured_product(i)
            acc += (r % m.value) * pi * self.punctured_inverse(i)
        return acc % q

    def compose_centered(self, residues: Sequence[int]) -> int:
        """CRT-reconstruct into the centered interval ``(-q/2, q/2]``."""
        a = self.compose(residues)
        q = self.product
        return a - q if a > q // 2 else a

    # ------------------------------------------------------------------
    # whole-vector composition (the decode hot path)
    # ------------------------------------------------------------------
    def _garner_inverse(self, i: int, j: int) -> int:
        """``(p_i mod p_j)^-1 mod p_j`` (cached; the Garner constants)."""
        cache = getattr(self, "_garner_cache", None)
        if cache is None:
            cache = {}
            object.__setattr__(self, "_garner_cache", cache)
        key = (i, j)
        inv = cache.get(key)
        if inv is None:
            p_i, p_j = self.moduli[i].value, self.moduli[j].value
            inv = pow(p_i % p_j, -1, p_j)
            cache[key] = inv
        return inv

    def compose_rows(self, rows) -> List[int]:
        """CRT-reconstruct a whole residue matrix: one integer per
        coefficient, each in ``[0, q)``.

        The vector form of :meth:`compose`, used by decode.  When every
        prime is word-size safe, the mixed-radix
        (Garner) digits are computed as vectorized ``uint64`` passes --
        ``O(k^2)`` array kernels instead of ``n`` big-int CRT sums with
        full-``q``-size products -- and only the final radix assembly
        touches Python integers (``k`` small multiply-adds per
        coefficient).  Exact, and bit-identical to the scalar path.
        """
        k = len(self.moduli)
        if len(rows) != k:
            raise ValueError("residue row count does not match basis size")
        digits = self._garner_digits_numpy(rows)
        if digits is None:  # scalar fallback
            # materialize array rows first: np.uint64 scalars entering the
            # big-int CRT sum would overflow instead of widening
            rows = [
                r.tolist() if hasattr(r, "tolist") else r for r in rows
            ]
            n = len(rows[0])
            return [
                self.compose([rows[j][i] for j in range(k)]) for i in range(n)
            ]
        radices = [m.value for m in self.moduli]
        cols = [d.tolist() for d in digits]
        out = []
        for i in range(len(cols[0])):
            acc = cols[k - 1][i]
            for j in range(k - 2, -1, -1):
                acc = cols[j][i] + radices[j] * acc
            out.append(acc)
        return out

    def _garner_digits_numpy(self, rows):
        """Vectorized mixed-radix digits ``d_j`` with ``x = Σ d_j Π_{i<j} p_i``,
        or ``None`` when the fast path does not apply."""
        if any(m.value >= _WORD_SAFE_BOUND for m in self.moduli):
            return None
        try:
            mats = (
                rows
                if isinstance(rows, np.ndarray) and rows.dtype == np.uint64
                else np.asarray(rows, dtype=np.uint64)
            )
        except (OverflowError, ValueError, TypeError):
            return None
        digits = [mats[0] % np.uint64(self.moduli[0].value)]
        for j in range(1, len(self.moduli)):
            p_j = self.moduli[j].value
            pj = np.uint64(p_j)
            t = (mats[j] % pj)[None, :]
            for i in range(j):
                # t = (t - d_i) * (p_i^-1 mod p_j)  (mod p_j)
                d_red = digits[i] % pj
                t += pj - d_red
                np.minimum(t, t - pj, out=t)  # conditional subtraction
                _scalar_mul(t, self._garner_inverse(i, j), p_j, t)
            digits.append(t[0])
        return digits

    def compose_centered_rows(self, rows) -> List[int]:
        """Vector :meth:`compose_centered`: one centered int per coefficient."""
        q = self.product
        half = q // 2
        return [v - q if v > half else v for v in self.compose_rows(rows)]

    def drop_last(self) -> "RnsBasis":
        """Basis with the last modulus removed (rescaling / mod-switch)."""
        if len(self.moduli) <= 1:
            raise ValueError("cannot drop the only modulus")
        return RnsBasis(self.moduli[:-1])

    def extend(self, modulus: Modulus) -> "RnsBasis":
        """Basis with one extra modulus appended (e.g. the special prime)."""
        return RnsBasis(self.moduli + (modulus,))

    def gadget_vector(self) -> List[int]:
        """Section-2 gadget ``g_i = π_i [π_i^{-1}]_{p_i}`` over this basis.

        Satisfies ``<g, g^{-1}(a)> ≡ a (mod q)`` and, crucially for
        Algorithm 7, ``g_i ≡ 1 (mod p_i)`` and ``g_i ≡ 0 (mod p_j)`` for
        ``j != i``.
        """
        return [
            self.punctured_product(i) * self.punctured_inverse(i)
            for i in range(len(self.moduli))
        ]

    def gadget_decompose(self, residues: Sequence[int]) -> List[int]:
        """``g^{-1}``: the residue vector itself (full-RNS decomposition)."""
        if len(residues) != len(self.moduli):
            raise ValueError("residue count does not match basis size")
        return [r % m.value for r, m in zip(residues, self.moduli)]


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a
