"""Pure-Python reference backend -- the bit-exact ground truth.

Per-coefficient loops over canonical lists of Python ints, kept as the
semantic specification every optimized backend is tested against (the
same role SEAL's debug paths and the paper's Algorithms 1-4 pseudocode
play).  NTT/INTT delegate to :class:`repro.ckks.ntt.NTTTables`, whose
butterfly loops implement Algorithms 3 and 4 with the MulRed
(Algorithm 2) twiddle fast path; dyadic operations use the Barrett
reduction of Algorithm 1 via :class:`repro.ckks.modarith.Modulus`.  A
matrix kernel is its row function mapped over the rows.

It is deliberately unclever: correctness and readability over speed.
Use the ``numpy`` backend for anything performance-sensitive.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.ckks.backend.base import PolynomialBackend, canonical_rows
from repro.ckks.modarith import Modulus


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


# ----------------------------------------------------------------------
# the row functions: one residue row under one modulus
# ----------------------------------------------------------------------
def _add(modulus: Modulus, a, b) -> List[int]:
    p = modulus.value
    row = [x + y for x, y in zip(_as_list(a), _as_list(b))]
    return [v - p if v >= p else v for v in row]


def _sub(modulus: Modulus, a, b) -> List[int]:
    p = modulus.value
    row = [x - y for x, y in zip(_as_list(a), _as_list(b))]
    return [v + p if v < 0 else v for v in row]


def _negate(modulus: Modulus, a) -> List[int]:
    p = modulus.value
    return [0 if x == 0 else p - x for x in _as_list(a)]


def _mul(modulus: Modulus, a, b) -> List[int]:
    mul = modulus.mul
    return [mul(x, y) for x, y in zip(_as_list(a), _as_list(b))]


def _mac(modulus: Modulus, acc, x, y) -> List[int]:
    p = modulus.value
    mul = modulus.mul
    out = []
    for s, a, b in zip(_as_list(acc), _as_list(x), _as_list(y)):
        v = s + mul(a, b)
        out.append(v - p if v >= p else v)
    return out


def _scalar_mul(modulus: Modulus, a, scalar: int) -> List[int]:
    mul = modulus.mul
    return [mul(x, scalar) for x in _as_list(a)]


def _reduce(modulus: Modulus, row) -> List[int]:
    p = modulus.value
    return [x % p for x in _as_list(row)]


def _galois(modulus: Modulus, row, mapping) -> List[int]:
    p = modulus.value
    row = _as_list(row)
    out = [0] * len(mapping)
    for idx, (dest, flip) in enumerate(mapping):
        v = row[idx]
        out[dest] = (p - v) if (flip and v) else v
    return out


class ReferenceBackend(PolynomialBackend):
    """Per-coefficient Python loops; the specification backend."""

    name = "reference"

    # ------------------------------------------------------------------
    # handles: the native form is the canonical list form
    # ------------------------------------------------------------------
    def from_rows(self, rows):
        return canonical_rows(rows)

    def to_rows(self, handle):
        return canonical_rows(handle)

    def copy_rows(self, handle):
        if hasattr(handle, "copy") and hasattr(handle, "dtype"):
            return handle.copy()
        return [r.copy() if hasattr(r, "dtype") else list(r) for r in handle]

    def set_row(self, handle, i, row):
        if len(row) != len(handle[i]):
            raise ValueError(f"row width mismatch: {len(row)} into {len(handle[i])}")
        handle[i] = row

    def select_rows(self, handle, indices):
        return [handle[i] for i in indices]

    def native_stack(self, stack):
        return stack

    # ------------------------------------------------------------------
    # one modulus per row
    # ------------------------------------------------------------------
    def _map_rows(self, row_kernel, moduli, *handles):
        """``row_kernel(m_i, *rows_i)`` for every row ``i``."""
        self._check_rows_count(moduli, *handles)
        return [row_kernel(*args) for args in zip(moduli, *handles)]

    def add_rows(self, moduli, a, b):
        return self._map_rows(_add, moduli, a, b)

    def sub_rows(self, moduli, a, b):
        return self._map_rows(_sub, moduli, a, b)

    def negate_rows(self, moduli, a):
        return self._map_rows(_negate, moduli, a)

    def dyadic_mul_rows(self, moduli, a, b):
        return self._map_rows(_mul, moduli, a, b)

    def dyadic_mac_rows(self, moduli, acc, x, y):
        return self._map_rows(_mac, moduli, acc, x, y)

    def scalar_mul_rows(self, moduli, a, scalars):
        self._check_rows_count(moduli, a)
        if len(scalars) != len(moduli):
            raise ValueError(f"{len(scalars)} scalars for {len(moduli)} moduli")
        return [_scalar_mul(m, x, s) for m, x, s in zip(moduli, a, scalars)]

    def ntt_forward_rows(self, tables_list, rows):
        self._check_rows_count(tables_list, rows)
        return [t.forward(_as_list(r)) for t, r in zip(tables_list, rows)]

    def ntt_inverse_rows(self, tables_list, rows):
        self._check_rows_count(tables_list, rows)
        return [t.inverse(_as_list(r)) for t, r in zip(tables_list, rows)]

    def galois_rows(self, moduli, handle, mapping):
        self._check_rows_count(moduli, handle)
        self._check_width(handle, [mapping])
        return [_galois(m, row, mapping) for m, row in zip(moduli, handle)]

    # ------------------------------------------------------------------
    # one modulus per stack
    # ------------------------------------------------------------------
    def ntt_forward_stack(self, tables, stack):
        return [tables.forward(_as_list(row)) for row in stack]

    def ntt_inverse_stack(self, tables, stack):
        return [tables.inverse(_as_list(row)) for row in stack]

    def reduce_mod_stack(self, modulus, stack):
        return [_reduce(modulus, row) for row in stack]

    def sub_stack(self, modulus, a, b):
        other = self._rows_of(b, len(a))
        self._check_width(a, other)
        return [_sub(modulus, x, y) for x, y in zip(a, other)]

    def scalar_mul_stack(self, modulus, a, scalar):
        return [_scalar_mul(modulus, x, scalar) for x in a]

    def dyadic_stack_reduce(self, modulus, x, y):
        digits = len(y)
        if not digits or len(x) % digits:
            raise ValueError(f"stack length mismatch: {len(x)} vs {len(y)} rows")
        if not len(x):
            raise ValueError("cannot reduce an empty stack")
        self._check_width(x, y)
        count = len(x) // digits
        out = []
        for b in range(count):
            acc = _mul(modulus, x[b], y[0])
            for i in range(1, digits):
                acc = _mac(modulus, acc, x[i * count + b], y[i])
            out.append(acc)
        return out

    def permute_ntt_stack(self, stack, table):
        rows = [_as_list(row) for row in stack]
        own = self._gathered_rows(rows, table)
        if own is None:
            return [[row[s] for s in table] for row in rows]
        return [[row[s] for s in _as_list(t)] for row, t in zip(own, table)]

    def decompose_native(self, moduli, coeffs):
        coeffs = _as_list(coeffs)
        return [_reduce(m, coeffs) for m in moduli]
