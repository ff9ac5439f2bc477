"""Polynomials over ``Z_p[X]/(X^n+1)`` and their RNS form.

An :class:`RnsPolynomial` is the central data object of the library: a
vector of residue polynomials (one per RNS modulus), together with a
flag recording whether the data is in NTT (evaluation) form.  HEAX and
SEAL keep ciphertexts in NTT form by default so that multiplication is
dyadic (Algorithm 5); the flag lets the evaluator check domain
discipline instead of silently producing garbage.

Data residency
--------------
Residue data is held in an *opaque backend-native handle*
(``self.rows``): a contiguous ``(L, n)`` ``uint64`` matrix on the numpy
backend, canonical lists on the reference backend.  Every arithmetic
method dispatches whole matrices to the backend's ``*_rows`` kernels,
so chained operations never round-trip through Python lists -- the
software analogue of HEAX keeping operands resident in on-chip
memories across pipeline stages (paper Section 4, Figure 2).  The
historical ``.residues`` attribute survives as an **explicit
materialize-to-lists accessor** (a snapshot copy) for tests, debugging
and wire-format compatibility; code that needs to *write* a row uses
:meth:`RnsPolynomial.set_row`.

:class:`Plaintext` and :class:`Ciphertext` wrap RNS polynomials with the
CKKS metadata (scale, level).

Each operation takes an optional ``backend`` argument; when omitted,
the process-wide active backend is used.  Code that holds a
:class:`repro.ckks.context.CkksContext` passes ``ctx.backend`` so that
a context-pinned backend is honored end to end.  A polynomial created
under one backend may be consumed under another: handles are
re-homed on first use (``Backend.from_rows`` is idempotent and
value-preserving), at a conversion cost the
:class:`repro.ckks.backend.CountingBackend` makes visible.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.ckks.backend import get_backend
from repro.ckks.backend.base import canonical_stack
from repro.ckks.modarith import Modulus


class RnsPolynomial:
    """A polynomial in ``R_q`` stored as per-prime residue polynomials."""

    __slots__ = ("n", "moduli", "rows", "is_ntt")

    def __init__(
        self,
        n: int,
        moduli: Sequence[Modulus],
        residues=None,
        is_ntt: bool = False,
    ):
        self.n = n
        self.moduli = list(moduli)
        if residues is None:
            residues = [[0] * n for _ in self.moduli]
        if len(residues) != len(self.moduli):
            raise ValueError("residue component count must match moduli count")
        shape = getattr(residues, "shape", None)
        if shape is not None:
            if len(shape) != 2 or shape[1] != n:
                raise ValueError("residue polynomial has wrong length")
        else:
            for r in residues:
                if len(r) != n:
                    raise ValueError("residue polynomial has wrong length")
        #: Opaque residue-matrix handle (backend-native representation).
        self.rows = residues
        self.is_ntt = is_ntt

    # ------------------------------------------------------------------
    # residency / row access
    # ------------------------------------------------------------------
    @property
    def residues(self) -> List[List[int]]:
        """Materialized canonical rows: a list-of-lists-of-int *snapshot*.

        Compatibility/inspection accessor only -- mutating the returned
        lists never affects the polynomial (use :meth:`set_row`), and
        every access pays a full lower-to-lists conversion.  Hot paths
        go through the native handle instead.
        """
        return canonical_stack(self.rows)

    def native_rows(self, backend=None):
        """The residue matrix in ``backend``'s native form (cached).

        Re-homes ``self.rows`` in place, so repeated operations under
        one backend pay at most one boundary conversion.
        """
        be = backend if backend is not None else get_backend()
        self.rows = be.from_rows(self.rows)
        return self.rows

    def row(self, i: int):
        """Residue row ``i`` in its current native form (may be a view).

        Treat as read-only; materialize with :attr:`residues` instead
        when a mutable canonical list is wanted.
        """
        return self.rows[i]

    def set_row(self, i: int, row, backend=None) -> None:
        """Overwrite residue row ``i`` (the write API tests/keygen use)."""
        be = backend if backend is not None else get_backend()
        be.set_row(self.rows, i, row)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_int_coeffs(
        cls,
        coeffs: Sequence[int],
        moduli: Sequence[Modulus],
        backend=None,
    ) -> "RnsPolynomial":
        """Reduce signed integer coefficients into every RNS component
        (coefficient form)."""
        be = backend if backend is not None else get_backend()
        n = len(coeffs)
        return cls(n, moduli, be.decompose_native(list(moduli), coeffs))

    def clone(self, backend=None) -> "RnsPolynomial":
        be = backend if backend is not None else get_backend()
        return RnsPolynomial(
            self.n,
            self.moduli,
            be.copy_rows(self.rows),
            self.is_ntt,
        )

    @property
    def level_count(self) -> int:
        """Number of RNS components currently carried."""
        return len(self.moduli)

    # ------------------------------------------------------------------
    # arithmetic (domain-agnostic: NTT and coefficient forms both support
    # coefficient-wise add/negate; dyadic multiply is only meaningful
    # on matching domains and equals ring multiplication only in NTT form)
    # ------------------------------------------------------------------
    def _check_compatible(self, other: "RnsPolynomial") -> None:
        if self.n != other.n:
            raise ValueError("ring degree mismatch")
        if [m.value for m in self.moduli] != [m.value for m in other.moduli]:
            raise ValueError("RNS basis mismatch")
        if self.is_ntt != other.is_ntt:
            raise ValueError("NTT-form mismatch (transform before combining)")

    def add(self, other: "RnsPolynomial", backend=None) -> "RnsPolynomial":
        self._check_compatible(other)
        be = backend if backend is not None else get_backend()
        out = be.add_rows(
            self.moduli, self.native_rows(be), other.native_rows(be)
        )
        return RnsPolynomial(self.n, self.moduli, out, self.is_ntt)

    def negate(self, backend=None) -> "RnsPolynomial":
        be = backend if backend is not None else get_backend()
        out = be.negate_rows(self.moduli, self.native_rows(be))
        return RnsPolynomial(self.n, self.moduli, out, self.is_ntt)

    def dyadic_multiply(self, other: "RnsPolynomial", backend=None) -> "RnsPolynomial":
        """Coefficient-wise product; equals ring product in NTT form."""
        self._check_compatible(other)
        be = backend if backend is not None else get_backend()
        out = be.dyadic_mul_rows(
            self.moduli, self.native_rows(be), other.native_rows(be)
        )
        return RnsPolynomial(self.n, self.moduli, out, self.is_ntt)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RnsPolynomial)
            and self.n == other.n
            and self.is_ntt == other.is_ntt
            and [m.value for m in self.moduli] == [m.value for m in other.moduli]
            and canonical_stack(self.rows) == canonical_stack(other.rows)
        )


def restrict_to_moduli(
    poly: RnsPolynomial, moduli: Sequence[Modulus], backend=None
) -> RnsPolynomial:
    """Project an RNS polynomial onto a sub-basis of its moduli.

    Because each RNS component is independent (the ring isomorphism of
    Section 2), restricting to fewer primes is pure row selection -- this
    is how level-``l`` operations reuse keys generated at the top level.
    The selection stays in the polynomial's native representation (row
    views on an array backend), so no conversion is paid.
    """
    be = backend if backend is not None else get_backend()
    index = {m.value: i for i, m in enumerate(poly.moduli)}
    indices = []
    for m in moduli:
        if m.value not in index:
            raise ValueError(f"modulus {m.value} not present in polynomial")
        indices.append(index[m.value])
    return RnsPolynomial(
        poly.n, list(moduli), be.select_rows(poly.rows, indices), poly.is_ntt
    )


class Plaintext:
    """A CKKS plaintext: an RNS polynomial plus its encoding scale."""

    __slots__ = ("poly", "scale")

    def __init__(self, poly: RnsPolynomial, scale: float):
        self.poly = poly
        self.scale = scale

    @property
    def n(self) -> int:
        return self.poly.n


class Ciphertext:
    """A CKKS ciphertext: ``size`` RNS polynomials sharing scale and basis.

    A freshly encrypted ciphertext has ``size == 2``; an un-relinearized
    product has ``size == 3`` (decryptable as ``<ct, (1, s, s^2)>``).
    """

    __slots__ = ("polys", "scale", "origin")

    def __init__(self, polys: List[RnsPolynomial], scale: float):
        if not polys:
            raise ValueError("ciphertext needs at least one polynomial")
        #: ``(lane, b)`` on element ``b`` of a ``CiphertextBatch.split()``,
        #: which ``join`` reads to hand that lane back whole; else ``None``
        self.origin = None
        n = polys[0].n
        basis = [m.value for m in polys[0].moduli]
        for p in polys[1:]:
            if p.n != n or [m.value for m in p.moduli] != basis:
                raise ValueError("ciphertext polynomials must share ring/basis")
        self.polys = polys
        self.scale = scale

    @property
    def size(self) -> int:
        return len(self.polys)

    @property
    def n(self) -> int:
        return self.polys[0].n

    @property
    def level_count(self) -> int:
        return self.polys[0].level_count

    @property
    def moduli(self) -> List[Modulus]:
        return self.polys[0].moduli

    @property
    def is_ntt(self) -> bool:
        return self.polys[0].is_ntt

    def __repr__(self) -> str:
        return (
            f"Ciphertext(size={self.size}, n={self.n}, "
            f"k={self.level_count}, scale={self.scale:g})"
        )
