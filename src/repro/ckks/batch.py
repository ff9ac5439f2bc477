"""The lane: ``N`` same-shape ciphertexts as the evaluator's unit of work.

HEAX has one datapath per primitive; ciphertext-level parallelism
(Figure 7 / Section 5.2) is the host keeping that one NTT/MULT/KeySwitch
pipeline full with a queue of independent ciphertexts, not a second
implementation.  :class:`CiphertextBatch` is the software form of that
queue slot -- a *lane* of ``N >= 1`` ciphertexts that share ring degree,
component count, RNS basis, NTT form and scale -- and
:class:`repro.ckks.evaluator.Evaluator` runs every operation over a
whole lane; a plain :class:`~repro.ckks.poly.Ciphertext` is the lane of
one.

Layout: per polynomial component one **modulus-major** ``(L·N, n)``
residue matrix -- row ``i·N + b`` is element ``b`` under RNS modulus
``i``.  At ``N = 1`` that *is* ``RnsPolynomial.rows``, so joining and
splitting a single ciphertext is the identity; the ``N`` rows of one
modulus are the contiguous block ``[i·N, (i+1)·N)`` the backend's
stacked per-modulus kernels (NTT, flooring) consume, and element ``b``
is the strided view ``rows[b::N]``.  ``split`` stamps each element with
the lane it is a view of and ``join`` hands that lane back whole when
given exactly its split, in order -- anything else copies.

Lanes are homogeneous by construction: mixed-level or ragged inputs are
rejected at :meth:`CiphertextBatch.join` time, mirroring the fixed lane
shape a hardware pipeline imposes.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.ckks.modarith import Modulus
from repro.ckks.poly import Ciphertext, RnsPolynomial

#: Relative tolerance when requiring two operands' scales to match.
SCALE_RTOL = 1e-9


def check_scales(a: float, b: float) -> None:
    """Require two positive operand scales to match within :data:`SCALE_RTOL`.

    Non-positive (or NaN) scales are rejected up front: with
    ``max(a, b) <= 0`` the relative-tolerance bound is non-positive, so
    the mismatch test below would degenerate and accept *any* pair --
    e.g. a zero scale against ``2^40``.  A valid CKKS scale is always
    ``> 1``, so nothing legitimate is lost.
    """
    if not (a > 0 and b > 0):  # also catches NaN, which fails every compare
        raise ValueError(
            f"non-positive scale: {a:g} vs {b:g}; ciphertext metadata is corrupt"
        )
    if abs(a - b) > SCALE_RTOL * max(a, b):
        raise ValueError(
            f"scale mismatch: {a:g} vs {b:g}; rescale/encode to align"
        )


class CiphertextBatch:
    """A lane of ``N`` same-shape ciphertexts.

    ``comps[j]`` is polynomial component ``j`` of the whole lane as one
    modulus-major ``(L·N, n)`` residue matrix (see the module
    docstring).  Fresh from :meth:`join` a component of a wider lane is
    a list of row views; the evaluator lifts it to the backend's native
    matrix on first use.
    """

    __slots__ = ("n", "count", "moduli", "scale", "is_ntt", "comps")

    def __init__(
        self,
        n: int,
        count: int,
        moduli: Sequence[Modulus],
        comps: List,
        scale: float,
        is_ntt: bool = True,
    ):
        if count < 1:
            raise ValueError("a ciphertext batch needs at least one element")
        if not comps:
            raise ValueError("a ciphertext batch needs at least one component")
        self.n = n
        self.count = count
        self.moduli = list(moduli)
        self.comps = comps
        self.scale = scale
        self.is_ntt = is_ntt

    # ------------------------------------------------------------------
    # construction / deconstruction
    # ------------------------------------------------------------------
    @classmethod
    def from_ciphertexts(cls, ciphertexts: Sequence[Ciphertext]) -> "CiphertextBatch":
        """Stack ``N`` ciphertexts; rejects ragged or mixed-level inputs."""
        cts = list(ciphertexts)
        if not cts:
            raise ValueError("cannot batch zero ciphertexts")
        first = cts[0]
        lane = first.origin and first.origin[0]
        if lane is not None and len(cts) == lane.count and all(
            ct.origin == (lane, b) and ct.scale == lane.scale
            for b, ct in enumerate(cts)
        ):
            # exactly ``lane.split()``, in order: these elements' rows
            # *are* the lane's matrices, so a chain of lane ops copies
            # nothing between steps.  Anything else copies, below.
            return lane
        if not first.scale > 0:
            raise ValueError(
                f"non-positive ciphertext scale {first.scale:g}"
            )
        basis = [m.value for m in first.moduli]
        for idx, ct in enumerate(cts[1:], start=1):
            if ct.n != first.n:
                raise ValueError(
                    f"ragged batch: element {idx} has ring degree {ct.n}, "
                    f"element 0 has {first.n}"
                )
            if ct.size != first.size:
                raise ValueError(
                    f"ragged batch: element {idx} has size {ct.size}, "
                    f"element 0 has {first.size}"
                )
            if [m.value for m in ct.moduli] != basis:
                raise ValueError(
                    f"mixed-level batch: element {idx} carries a different "
                    "RNS basis; rescale/mod-switch all elements to a common "
                    "level first"
                )
            if ct.is_ntt != first.is_ntt:
                raise ValueError("batch elements must share NTT form")
            try:
                # the shared helper also rejects non-positive scales, which
                # would otherwise degenerate the relative-tolerance test
                check_scales(ct.scale, first.scale)
            except ValueError:
                raise ValueError(
                    f"batch elements must share scale: {ct.scale:g} vs {first.scale:g}"
                ) from None
        if len(cts) == 1:
            # the lane of one: the ciphertext's own matrices, no copy
            comps = [p.rows for p in first.polys]
        else:
            # native row views, modulus-major: joining is pure addressing
            # over the already-resident per-ciphertext matrices; the
            # evaluator's first touch fuses them into one (L·N, n) matrix
            comps = [
                [
                    ct.polys[j].row(i)
                    for i in range(len(first.moduli))
                    for ct in cts
                ]
                for j in range(first.size)
            ]
        return cls(first.n, len(cts), first.moduli, comps, first.scale, first.is_ntt)

    #: ``join`` is the symmetric partner of :meth:`split`.
    join = from_ciphertexts

    def split(self) -> List[Ciphertext]:
        """Unstack into ``N`` :class:`Ciphertext` objects.

        Element ``b``'s polynomials are the strided *views*
        ``comps[j][b::N]`` of the resident lane matrices (at ``N = 1``
        the whole matrix) -- no materialization, so a
        split-then-serialize flush packs bytes straight from native
        storage.  Views are read-only by convention (as everywhere in
        the residency design); use ``clone()`` on an element before
        mutating rows in place.
        """
        step = self.count
        elements = [
            Ciphertext(
                [
                    RnsPolynomial(self.n, self.moduli, comp[b::step], self.is_ntt)
                    for comp in self.comps
                ],
                self.scale,
            )
            for b in range(step)
        ]
        for b, element in enumerate(elements):
            element.origin = (self, b)
        return elements

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Polynomial component count (2 fresh, 3 un-relinearized)."""
        return len(self.comps)

    @property
    def level_count(self) -> int:
        return len(self.moduli)

    @property
    def row_moduli(self) -> List[Modulus]:
        """The modulus of every row of a component matrix, in order."""
        return [m for m in self.moduli for _ in range(self.count)]
