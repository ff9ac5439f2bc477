"""Pure-Python reference backend -- the bit-exact ground truth.

This backend is the original per-coefficient implementation of the
polynomial kernels, kept verbatim as the semantic specification every
optimized backend is tested against (the same role SEAL's debug paths
and the paper's Algorithms 1-4 pseudocode play).  NTT/INTT delegate to
:class:`repro.ckks.ntt.NTTTables`, whose butterfly loops implement
Algorithms 3 and 4 with the MulRed (Algorithm 2) twiddle fast path;
dyadic operations use the Barrett reduction of Algorithm 1 via
:class:`repro.ckks.modarith.Modulus`.

It is deliberately unclever: correctness and readability over speed.
Use the ``numpy`` backend for anything performance-sensitive.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.ckks.backend.base import PolynomialBackend
from repro.ckks.modarith import Modulus
from repro.ckks.ntt import NTTTables


def _as_list(row) -> Sequence[int]:
    """Normalize a row to Python ints before per-coefficient arithmetic.

    Rows may arrive in an array backend's native form (uint64 ndarray
    views of a resident matrix); numpy scalars must not leak into the
    Python big-int arithmetic below -- ``np.uint64 * np.uint64`` wraps
    at ``2^64`` instead of widening, and mixed ``int``/``np.uint64``
    operations degrade to float64 on older numpy -- so they are
    materialized here, at the kernel boundary.
    """
    return row.tolist() if hasattr(row, "tolist") else row


class ReferenceBackend(PolynomialBackend):
    """Per-coefficient Python loops; the specification backend."""

    name = "reference"

    # ------------------------------------------------------------------
    # NTT
    # ------------------------------------------------------------------
    def ntt_forward(self, tables: NTTTables, row: Sequence[int]) -> List[int]:
        return tables.forward(_as_list(row))

    def ntt_inverse(self, tables: NTTTables, row: Sequence[int]) -> List[int]:
        return tables.inverse(_as_list(row))

    # ------------------------------------------------------------------
    # dyadic arithmetic
    # ------------------------------------------------------------------
    def add(self, modulus: Modulus, a: Sequence[int], b: Sequence[int]) -> List[int]:
        p = modulus.value
        row = [x + y for x, y in zip(_as_list(a), _as_list(b))]
        return [v - p if v >= p else v for v in row]

    def sub(self, modulus: Modulus, a: Sequence[int], b: Sequence[int]) -> List[int]:
        p = modulus.value
        row = [x - y for x, y in zip(_as_list(a), _as_list(b))]
        return [v + p if v < 0 else v for v in row]

    def negate(self, modulus: Modulus, a: Sequence[int]) -> List[int]:
        p = modulus.value
        return [0 if x == 0 else p - x for x in _as_list(a)]

    def dyadic_mul(self, modulus: Modulus, a: Sequence[int], b: Sequence[int]) -> List[int]:
        mul = modulus.mul
        return [mul(x, y) for x, y in zip(_as_list(a), _as_list(b))]

    def dyadic_mac(
        self,
        modulus: Modulus,
        acc: Sequence[int],
        x: Sequence[int],
        y: Sequence[int],
    ) -> List[int]:
        p = modulus.value
        mul = modulus.mul
        out = []
        for s, a, b in zip(_as_list(acc), _as_list(x), _as_list(y)):
            v = s + mul(a, b)
            out.append(v - p if v >= p else v)
        return out

    # ------------------------------------------------------------------
    # scalar operations
    # ------------------------------------------------------------------
    def scalar_mul(self, modulus: Modulus, a: Sequence[int], scalar: int) -> List[int]:
        mul = modulus.mul
        return [mul(x, scalar) for x in _as_list(a)]

    def scalar_mac(
        self, modulus: Modulus, acc: Sequence[int], a: Sequence[int], scalar: int
    ) -> List[int]:
        p = modulus.value
        mul = modulus.mul
        out = []
        for s, x in zip(_as_list(acc), _as_list(a)):
            v = s + mul(x, scalar)
            out.append(v - p if v >= p else v)
        return out

    # ------------------------------------------------------------------
    # RNS base conversion
    # ------------------------------------------------------------------
    def reduce_mod(self, modulus: Modulus, row: Sequence[int]) -> List[int]:
        p = modulus.value
        return [x % p for x in _as_list(row)]
