"""Transform-count and data-residency instrumentation: a delegating
backend wrapper.

Two budgets become assertable quantities through this wrapper:

* the **transform budget** of the hoisting fast path (a hoisted matvec
  must pay the Algorithm-7 fan-out once, not once per rotation) --
  counted as the *rows* each transform kernel processed;
* the **residency budget** of the backend-native storage work (HEAX
  Section 4: operands stay resident in on-chip memories across
  pipeline stages) -- counted as boundary *conversions* between the
  canonical Python-list interchange form and the inner backend's
  native matrices.  ``lift_rows`` counts rows boxed lists -> native,
  ``lower_rows`` counts rows materialized native -> lists.  A fully
  resident operation chain performs **zero** of either.

:class:`CountingBackend` wraps any real backend, forwards every kernel
unchanged (results stay bit-identical to the inner backend), and
tallies both budgets.  Counts are in rows -- one stacked call over
``R`` rows counts ``R`` -- so they are representation-independent and
identical across backends.

Usage::

    be = CountingBackend("numpy")
    ctx = CkksContext(params, backend=be)
    ... run the operation under test ...
    assert be.counts["ntt_forward"] == expected_forward_rows
    assert be.conversion_rows == 0   # hot chain stayed resident

Counted keys: ``ntt_forward`` / ``ntt_inverse`` (transform rows),
``galois_permute`` (coefficient-domain signed permutations),
``ntt_permute`` (NTT-domain gather permutations), ``dyadic_mul`` /
``dyadic_mac`` (DyadMult rows, the stack-reduce counting one mul plus
``R - 1`` MAC rows), and ``lift_rows`` / ``lower_rows`` (residency
conversions).
"""

from __future__ import annotations

from collections import Counter

from repro.ckks.backend.base import PolynomialBackend, is_row


def _python_rows(handle) -> int:
    """Rows stored as Python sequences (would need boxing to lift)."""
    if hasattr(handle, "dtype"):
        return 0
    return sum(1 for r in handle if not hasattr(r, "dtype"))


def _array_rows(handle) -> int:
    """Rows stored as native arrays (would need materializing to lower)."""
    if hasattr(handle, "dtype"):
        return len(handle)
    return sum(1 for r in handle if hasattr(r, "dtype"))


class CountingBackend(PolynomialBackend):
    """Delegates every kernel to an inner backend, tallying row counts."""

    name = "counting"

    def __init__(self, inner=None):
        from repro.ckks.backend import resolve_backend

        self.inner = resolve_backend(inner)
        self.counts: Counter = Counter()

    @property
    def cache_token(self) -> str:
        """Native representations are the inner backend's, so cached
        operands are shareable exactly with that inner backend -- and
        not with a counting wrapper around a *different* inner."""
        return f"counting:{self.inner.cache_token}"

    @property
    def native_is_python(self) -> bool:  # type: ignore[override]
        return self.inner.native_is_python

    def reset(self) -> None:
        self.counts.clear()

    @property
    def transform_rows(self) -> int:
        """Total NTT + INTT rows -- the hardware-visible transform budget."""
        return self.counts["ntt_forward"] + self.counts["ntt_inverse"]

    @property
    def conversion_rows(self) -> int:
        """Total lift + lower rows -- the residency (DRAM-round-trip) budget."""
        return self.counts["lift_rows"] + self.counts["lower_rows"]

    # ------------------------------------------------------------------
    # residency accounting helpers
    # ------------------------------------------------------------------
    def _note_handles(self, *handles) -> None:
        """Charge the conversions the inner backend will perform to bring
        these residue matrices into its native representation."""
        if self.inner.native_is_python:
            for h in handles:
                self.counts["lower_rows"] += _array_rows(h)
        else:
            for h in handles:
                self.counts["lift_rows"] += _python_rows(h)

    def _note_operand(self, operand) -> None:
        """Like :meth:`_note_handles` for a row-or-stack dyadic operand."""
        if is_row(operand):
            if not self.inner.native_is_python and not hasattr(operand, "dtype"):
                self.counts["lift_rows"] += 1
        else:
            self._note_handles(operand)

    # ------------------------------------------------------------------
    # the 27 primitives, each delegated once; the derived names reach
    # the inner backend through these, so their counts and residency
    # notes come out right by construction
    # ------------------------------------------------------------------
    def from_rows(self, rows):
        self._note_handles(rows)
        return self.inner.from_rows(rows)

    def to_rows(self, handle):
        self.counts["lower_rows"] += _array_rows(handle)
        return self.inner.to_rows(handle)

    def copy_rows(self, handle):
        self._note_handles(handle)
        return self.inner.copy_rows(handle)

    def set_row(self, handle, i, row):
        return self.inner.set_row(handle, i, row)

    def select_rows(self, handle, indices):
        return self.inner.select_rows(handle, indices)

    def native_stack(self, stack):
        self._note_handles(stack)
        return self.inner.native_stack(stack)

    def add_rows(self, moduli, a, b):
        self._note_handles(a, b)
        return self.inner.add_rows(moduli, a, b)

    def sub_rows(self, moduli, a, b):
        self._note_handles(a, b)
        return self.inner.sub_rows(moduli, a, b)

    def negate_rows(self, moduli, a):
        self._note_handles(a)
        return self.inner.negate_rows(moduli, a)

    def dyadic_mul_rows(self, moduli, a, b):
        self.counts["dyadic_mul"] += len(a)
        self._note_handles(a, b)
        return self.inner.dyadic_mul_rows(moduli, a, b)

    def dyadic_mac_rows(self, moduli, acc, x, y):
        self.counts["dyadic_mac"] += len(acc)
        self._note_handles(acc, x, y)
        return self.inner.dyadic_mac_rows(moduli, acc, x, y)

    def scalar_mul_rows(self, moduli, a, scalars):
        self._note_handles(a)
        return self.inner.scalar_mul_rows(moduli, a, scalars)

    def ntt_forward_rows(self, tables_list, rows):
        self.counts["ntt_forward"] += len(tables_list)
        self._note_handles(rows)
        return self.inner.ntt_forward_rows(tables_list, rows)

    def ntt_inverse_rows(self, tables_list, rows):
        self.counts["ntt_inverse"] += len(tables_list)
        self._note_handles(rows)
        return self.inner.ntt_inverse_rows(tables_list, rows)

    def galois_rows(self, moduli, handle, mapping):
        self.counts["galois_permute"] += len(handle)
        self._note_handles(handle)
        return self.inner.galois_rows(moduli, handle, mapping)

    def ntt_forward_stack(self, tables, stack):
        self.counts["ntt_forward"] += len(stack)
        self._note_handles(stack)
        return self.inner.ntt_forward_stack(tables, stack)

    def ntt_inverse_stack(self, tables, stack):
        self.counts["ntt_inverse"] += len(stack)
        self._note_handles(stack)
        return self.inner.ntt_inverse_stack(tables, stack)

    def reduce_mod_stack(self, modulus, stack):
        self._note_handles(stack)
        return self.inner.reduce_mod_stack(modulus, stack)

    def sub_stack(self, modulus, a, b):
        self._note_handles(a)
        self._note_operand(b)
        return self.inner.sub_stack(modulus, a, b)

    def scalar_mul_stack(self, modulus, a, scalar):
        self._note_handles(a)
        return self.inner.scalar_mul_stack(modulus, a, scalar)

    def dyadic_stack_reduce(self, modulus, x, y):
        count = len(x) // max(1, len(y))
        self.counts["dyadic_mul"] += count
        self.counts["dyadic_mac"] += len(x) - count
        self._note_handles(x, y)
        return self.inner.dyadic_stack_reduce(modulus, x, y)

    def permute_ntt_stack(self, stack, table):
        # rows gathered: one per table of a matrix of them (a one-row
        # stack is shared), else one per stack row
        own = self._gathered_rows(stack, table)
        self.counts["ntt_permute"] += len(stack if own is None else own)
        self._note_handles(stack)
        return self.inner.permute_ntt_stack(stack, table)

    def decompose_native(self, moduli, coeffs):
        return self.inner.decompose_native(moduli, coeffs)

    # the wire kernels produce the *inner* backend's native form
    def pack_rows(self, handle):
        return self.inner.pack_rows(handle)

    def unpack_rows(self, data, count, n, out=None):
        return self.inner.unpack_rows(data, count, n, out)

    def pack_rows_bits(self, handle, bounds):
        return self.inner.pack_rows_bits(handle, bounds)

    def unpack_rows_bits(self, data, n, bounds, out=None):
        return self.inner.unpack_rows_bits(data, n, bounds, out)

    def __repr__(self) -> str:
        return f"<CountingBackend inner={self.inner!r} counts={dict(self.counts)}>"
