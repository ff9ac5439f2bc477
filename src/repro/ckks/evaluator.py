"""Server-side evaluation primitives -- the operations HEAX accelerates.

* ``add`` / ``sub``                      -- CKKS.Add (Section 3.2)
* ``multiply``                           -- Algorithm 5 (dyadic, size α+β-1)
* ``multiply_plain`` / ``add_plain``     -- ciphertext-plaintext variants
* ``rescale``                            -- Algorithm 6 (RNS flooring)
* ``decompose`` / ``apply_keyswitch``    -- Algorithm 7, split in two phases
* ``keyswitch_polynomial``               -- the two phases fused
* ``relinearize``                        -- CKKS.Relin (keyswitch of c2)
* ``rotate`` / ``conjugate``             -- Galois automorphism + KeySwitch
* ``rotate_hoisted``                     -- decompose once, rotate many
* ``linear_sweep``                       -- ``Σ pt_d ⊙ rot_d(ct)``, floored once

One implementation, one unit of work: every operation runs over a
**lane** of ``N >= 1`` same-shape ciphertexts
(:class:`repro.ckks.batch.CiphertextBatch`), and a plain
:class:`~repro.ckks.poly.Ciphertext` is accepted everywhere as the lane
of one (and gets a ``Ciphertext`` back).  This is HEAX's own shape: one
NTT/MULT/KeySwitch datapath per primitive, with ciphertext-level
parallelism (Figure 7, Section 5.2) being nothing but a queue of
independent ciphertexts keeping that datapath full.  A lane component is
one modulus-major ``(L·N, n)`` matrix, so element-wise operations are a
single whole-matrix ``*_rows`` kernel whatever ``N`` is, and the
per-modulus transforms of rescaling and key switching take the
contiguous ``N``-row block of each modulus into one stacked kernel.
A lane result is bit-identical, element by element, to running each
element alone (stacked kernels are row-independent).

All ciphertext polynomials are kept in RNS + NTT form throughout, exactly
as in SEAL/HEAX; the only INTT/NTT conversions happen inside KeySwitch and
rescaling, mirroring the hardware dataflow of Figure 5.

Key switching is a two-phase pipeline.  :meth:`Evaluator.decompose` is
the expensive half -- the per-digit INTT plus the NTT fan-out to every
other prime (Figure 5's INTT0/NTT0 layers), executed as *stacked* NTT
calls per target modulus over all (digit, element) rows -- and yields a
reusable :class:`KeySwitchDigits`.  :meth:`Evaluator.apply_keyswitch` is
the cheap half: dyadic MACs against a (cached, stacked) key plus the
final Modulus Switch, whose two accumulators share one stacked transform
per modulus.  Rotations exploit the
split twice over: the Galois automorphism of an NTT-form polynomial is a
sign-free slot permutation, and because the automorphism commutes with
RNS decomposition, one decomposition serves *every* rotation of the same
lane (*hoisting*).  And they run it the way HEAX's KeySwitch does
(Figure 5): the decomposed input stays where it is and the keys stream
past it.  ``Σ_i σ(D_i)⊙K_i = σ(Σ_i D_i⊙σ⁻¹(K_i))`` slot for slot, so the
keys are permuted once, when their stacked operand is built
(:meth:`repro.ckks.keys.GaloisKeySet.stacked`), and a sweep of ``R``
rotations is one key MAC and one gather of the ``2R`` accumulators per
modulus -- never a permuted digit, never the fan-out again.  A single
``rotate`` is the one-step sweep.

The per-coefficient inner loops all dispatch to the context's polynomial
backend, so the same evaluator code runs against the pure-Python
reference kernels or the vectorized numpy ones unchanged.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Sequence, Tuple, Union

from repro.ckks.batch import CiphertextBatch, check_scales
from repro.ckks.context import CkksContext
from repro.ckks.keys import GaloisKey, GaloisKeySet, KswitchKey, RelinKey
from repro.ckks.modarith import Modulus
from repro.ckks.poly import Ciphertext, Plaintext, RnsPolynomial

#: What every operation accepts and returns in kind: a lane, or the
#: lane of one.
Operand = Union[Ciphertext, CiphertextBatch]

def rows_for(poly: RnsPolynomial, moduli) -> List:
    """Select the residue rows of a full-basis key poly for these moduli.

    Rows stay in the polynomial's native representation (views on an
    array backend) -- selection is addressing, not conversion.
    """
    index = {m.value: i for i, m in enumerate(poly.moduli)}
    rows = poly.rows
    return [rows[index[m.value]] for m in moduli]


class KeySwitchDigits:
    """The reusable product of :meth:`Evaluator.decompose`.

    ``stacks[j]`` holds, for extended-basis modulus ``j``, the ``L``
    gadget digits of all ``count`` lane elements in NTT form as one
    backend-native digit-major ``(L·count, n)`` row-stack (row
    ``i·count + b`` is digit ``i`` of element ``b``) -- for a single
    polynomial exactly the ``(L, n)`` operand a stacked key column MACs
    against.  The object is immutable by convention, and under rotation
    it is *stationary*: an automorphism is applied to the keys (once,
    when :meth:`GaloisKeySet.stacked` builds their operand) and to the
    accumulators, never to the digits, so one decomposition backs any
    number of ``apply_keyswitch`` calls and every rotation of a sweep.
    """

    __slots__ = ("n", "data_moduli", "ext_moduli", "stacks", "count")

    def __init__(
        self,
        n: int,
        data_moduli: Sequence[Modulus],
        ext_moduli: Sequence[Modulus],
        stacks: List,
        count: int,
    ):
        self.n = n
        self.data_moduli = list(data_moduli)
        self.ext_moduli = list(ext_moduli)
        self.stacks = stacks
        self.count = count


_SWEEP_BASIS = (
    "RNS basis mismatch: linear_sweep plaintexts are NTT-form over the "
    "level's key basis (data primes + special prime)"
)


class SweepTerms(NamedTuple):
    """The plaintext operand of :meth:`Evaluator.linear_sweep`, stacked once
    (:meth:`Evaluator.sweep_terms`), so that a sweep run again copies no
    plaintext row: every dot reads ``[:R]``, ``[R:]`` or a whole stack."""

    n: int
    #: prime values of the key basis the plaintexts are encoded over
    basis: List[int]
    scale: float
    #: Galois elements of the ``R`` rotated terms, in term order
    elts: Tuple[int, ...]
    #: per basis modulus one backend-native ``(R + U, n)`` stack: the
    #: rotated terms' rows in that order, then (``U = 1`` if any term is
    #: unrotated) the sum of the unrotated terms' rows
    stacks: List


class Evaluator:
    """Implements every homomorphic operation of Section 3, lane-wide."""

    def __init__(self, context: CkksContext):
        self.context = context

    # ------------------------------------------------------------------
    # lanes: a Ciphertext is the lane of one
    # ------------------------------------------------------------------
    def _lane(self, ct: Operand) -> CiphertextBatch:
        """The operand as a lane whose components are backend-native.

        A :class:`Ciphertext` becomes the lane of one over its own
        (re-homed, never copied) matrices; a batch fresh from ``join``
        pays its one fuse-to-matrix here, in place, not on every kernel
        call.
        """
        be = self.context.backend
        if isinstance(ct, CiphertextBatch):
            ct.comps = [be.from_rows(comp) for comp in ct.comps]
            return ct
        return CiphertextBatch(
            ct.n,
            1,
            ct.moduli,
            [p.native_rows(be) for p in ct.polys],
            ct.scale,
            ct.is_ntt,
        )

    @staticmethod
    def _emit(like: Operand, lane: CiphertextBatch, comps, scale=None, moduli=None):
        """A result shaped like ``lane``, returned in ``like``'s kind."""
        out = CiphertextBatch(
            lane.n,
            lane.count,
            lane.moduli if moduli is None else moduli,
            comps,
            lane.scale if scale is None else scale,
            lane.is_ntt,
        )
        return out if isinstance(like, CiphertextBatch) else out.split()[0]

    @staticmethod
    def _check_pair(a: CiphertextBatch, b) -> None:
        """Operand compatibility: ``b`` is a lane or a plaintext polynomial.

        Ring degree, RNS basis *values* (not just level count) and NTT
        form must all match, so a mismatched operand raises instead of
        producing garbage.
        """
        if isinstance(b, CiphertextBatch) and a.count != b.count:
            raise ValueError(f"batch size mismatch: {a.count} vs {b.count}")
        if a.n != b.n:
            raise ValueError("ring degree mismatch")
        if a.level_count != b.level_count:
            raise ValueError(
                f"level mismatch: {a.level_count} vs {b.level_count}"
            )
        if [m.value for m in a.moduli] != [m.value for m in b.moduli]:
            raise ValueError("RNS basis mismatch")
        if a.is_ntt != b.is_ntt:
            raise ValueError("NTT-form mismatch (transform before combining)")

    def _spread(self, pt: Plaintext, lane: CiphertextBatch):
        """A plaintext's ``(L, n)`` rows repeated to the lane's row order."""
        be = self.context.backend
        rows = pt.poly.native_rows(be)
        if lane.count == 1:
            return rows
        return be.select_rows(
            rows, [i for i in range(len(rows)) for _ in range(lane.count)]
        )

    # ------------------------------------------------------------------
    # addition family
    # ------------------------------------------------------------------
    def add(self, ct0: Operand, ct1: Operand) -> Operand:
        """CKKS.Add: componentwise sum (sizes may differ)."""
        a, b = self._lane(ct0), self._lane(ct1)
        check_scales(a.scale, b.scale)
        self._check_pair(a, b)
        be = self.context.backend
        big, small = (a, b) if a.size >= b.size else (b, a)
        rm = big.row_moduli
        comps = [
            be.add_rows(rm, big.comps[j], small.comps[j])
            if j < small.size
            else be.copy_rows(big.comps[j])
            for j in range(big.size)
        ]
        return self._emit(ct0, a, comps)

    def sub(self, ct0: Operand, ct1: Operand) -> Operand:
        """Componentwise difference."""
        a, b = self._lane(ct0), self._lane(ct1)
        check_scales(a.scale, b.scale)
        self._check_pair(a, b)
        be = self.context.backend
        rm = a.row_moduli
        comps = []
        for j in range(max(a.size, b.size)):
            if j < a.size and j < b.size:
                comps.append(be.sub_rows(rm, a.comps[j], b.comps[j]))
            elif j < a.size:
                comps.append(be.copy_rows(a.comps[j]))
            else:
                comps.append(be.negate_rows(rm, b.comps[j]))
        return self._emit(ct0, a, comps)

    def negate(self, ct: Operand) -> Operand:
        lane = self._lane(ct)
        be = self.context.backend
        rm = lane.row_moduli
        return self._emit(ct, lane, [be.negate_rows(rm, c) for c in lane.comps])

    def _combine_plain(self, ct: Operand, pt: Plaintext, kernel) -> Operand:
        lane = self._lane(ct)
        check_scales(lane.scale, pt.scale)
        self._check_pair(lane, pt.poly)
        be = self.context.backend
        comps = [kernel(lane.row_moduli, lane.comps[0], self._spread(pt, lane))]
        comps += [be.copy_rows(c) for c in lane.comps[1:]]
        return self._emit(ct, lane, comps)

    def add_plain(self, ct: Operand, pt: Plaintext) -> Operand:
        """Add an (NTT-form, level-matched) plaintext to ``c0``."""
        return self._combine_plain(ct, pt, self.context.backend.add_rows)

    def sub_plain(self, ct: Operand, pt: Plaintext) -> Operand:
        return self._combine_plain(ct, pt, self.context.backend.sub_rows)

    # ------------------------------------------------------------------
    # multiplication family (Algorithm 5)
    # ------------------------------------------------------------------
    def multiply(self, ct0: Operand, ct1: Operand) -> Operand:
        """Algorithm 5 generalized: (α, β) -> α+β-1 component product.

        For the common size-2 × size-2 case this is exactly the printed
        algorithm: ``c0 = a0 b0``, ``c1 = a0 b1 + a1 b0``, ``c2 = a1 b1``,
        all dyadic since operands are in NTT form.
        """
        a, b = self._lane(ct0), self._lane(ct1)
        self._check_pair(a, b)
        be = self.context.backend
        rm = a.row_moduli
        out: List = [None] * (a.size + b.size - 1)
        for i, x in enumerate(a.comps):
            for j, y in enumerate(b.comps):
                out[i + j] = (
                    be.dyadic_mul_rows(rm, x, y)
                    if out[i + j] is None
                    else be.dyadic_mac_rows(rm, out[i + j], x, y)
                )
        return self._emit(ct0, a, out, scale=a.scale * b.scale)

    def square(self, ct: Operand) -> Operand:
        """Homomorphic squaring (saves one dyadic product vs multiply)."""
        lane = self._lane(ct)
        if lane.size != 2:
            return self.multiply(ct, ct)
        be = self.context.backend
        rm = lane.row_moduli
        a0, a1 = lane.comps
        cross = be.dyadic_mul_rows(rm, a0, a1)
        comps = [
            be.dyadic_mul_rows(rm, a0, a0),
            be.add_rows(rm, cross, cross),
            be.dyadic_mul_rows(rm, a1, a1),
        ]
        return self._emit(ct, lane, comps, scale=lane.scale * lane.scale)

    def multiply_plain(self, ct: Operand, pt: Plaintext) -> Operand:
        """Ciphertext-plaintext product (the MULT module's C-P mode)."""
        lane = self._lane(ct)
        self._check_pair(lane, pt.poly)
        be = self.context.backend
        rm = lane.row_moduli
        spread = self._spread(pt, lane)
        comps = [be.dyadic_mul_rows(rm, c, spread) for c in lane.comps]
        return self._emit(ct, lane, comps, scale=lane.scale * pt.scale)

    # ------------------------------------------------------------------
    # rescaling (Algorithm 6)
    # ------------------------------------------------------------------
    @staticmethod
    def _blocks(comp, level: int, count: int) -> List:
        """The per-modulus ``count``-row blocks of a modulus-major matrix."""
        return [comp[i * count : (i + 1) * count] for i in range(level)]

    def _floor_divide(self, parts: Sequence[Sequence], moduli: Sequence[Modulus]) -> List:
        """Algorithm-6 flooring of ``K`` same-basis accumulators.

        ``parts[k][i]`` is accumulator ``k``'s ``N``-row block under
        modulus ``i`` -- the components of a rescaled lane, or the two
        key-switch accumulators.  ``a = INTT(c_last)``; for every
        remaining prime ``p_i``:
        ``c'_i = [p_last^{-1} (c_i - NTT([a]_{p_i}))]``.  All of them
        flow through the identical Modulus-Switch dataflow, so all
        ``K·N`` rows share **one** stacked kernel per modulus and every
        intermediate stays backend-resident.  Returns each accumulator's
        floored modulus-major matrix.
        """
        ctx = self.context
        be = ctx.backend
        count = len(parts[0][0])
        last_mod = moduli[-1]

        def stacked(i):
            if len(parts) == 1:
                return parts[0][i]  # one block is a stack already: no copy
            return be.native_stack([row for part in parts for row in part[i]])

        a = be.ntt_inverse_stack(ctx.tables(last_mod), stacked(-1))
        floored = []
        for i, m in enumerate(moduli[:-1]):
            r_ntt = be.ntt_forward_stack(ctx.tables(m), be.reduce_mod_stack(m, a))
            diff = be.sub_stack(m, stacked(i), r_ntt)
            floored.append(
                be.scalar_mul_stack(m, diff, ctx.rescale_inverse(last_mod, m))
            )
        return [
            be.from_rows(
                [row for s in floored for row in s[k * count : (k + 1) * count]]
            )
            for k in range(len(parts))
        ]

    def rescale(self, ct: Operand) -> Operand:
        """CKKS.Rescale: floor-divide every component by the last prime.

        The scale drops by exactly that prime, so callers typically choose
        primes close to the scale to keep it stable across levels.  All
        components of all lane elements floor together, in one stacked
        transform per modulus.
        """
        lane = self._lane(ct)
        if not lane.is_ntt:
            raise ValueError("flooring operates on NTT-form polynomials")
        if lane.level_count < 2:
            raise ValueError("cannot rescale at the last level")
        parts = [
            self._blocks(c, lane.level_count, lane.count) for c in lane.comps
        ]
        return self._emit(
            ct,
            lane,
            self._floor_divide(parts, lane.moduli),
            scale=lane.scale / lane.moduli[-1].value,
            moduli=lane.moduli[:-1],
        )

    # ------------------------------------------------------------------
    # key switching (Algorithm 7, two-phase)
    # ------------------------------------------------------------------
    def _decompose(self, lane: CiphertextBatch, k: int) -> KeySwitchDigits:
        """Phase 1 of Algorithm 7 on component ``k`` of a lane.

        For every digit ``i`` (data prime), return to coefficient form
        (line 3) and fan the digit out to every *other* extended-basis
        prime (lines 6-7); the ``i == j`` block reuses the NTT-form input
        (line 9).  The fan-out runs as **one stacked forward NTT per
        target modulus** over all (digit, element) rows.
        """
        ctx = self.context
        be = ctx.backend
        if not lane.is_ntt:
            raise ValueError("key switching operates on NTT-form input")
        level, count = lane.level_count, lane.count
        ext_moduli = lane.moduli + [ctx.special_modulus]
        blocks = self._blocks(lane.comps[k], level, count)
        coeff = [
            be.ntt_inverse_stack(ctx.tables(m), block)
            for m, block in zip(lane.moduli, blocks)
        ]
        stacks = []
        for j, m_j in enumerate(ext_moduli):
            others = [coeff[i] for i in range(level) if i != j]
            if len(others) > 1:  # one block is a stack already: no copy
                others = [be.native_stack([row for block in others for row in block])]
            fanned = (
                be.ntt_forward_stack(ctx.tables(m_j), be.reduce_mod_stack(m_j, others[0]))
                if others  # a single-level basis has nothing to fan out
                else []
            )
            if j < level:
                split = j * count
                fanned = [*fanned[:split], *blocks[j], *fanned[split:]]
            stacks.append(be.native_stack(fanned))
        return KeySwitchDigits(lane.n, lane.moduli, ext_moduli, stacks, count)

    def decompose(self, target: RnsPolynomial) -> KeySwitchDigits:
        """Phase 1 of Algorithm 7: the RNS gadget decomposition.

        The result is key-independent: :meth:`apply_keyswitch` can
        consume it against any key over the same basis, which is what
        makes hoisted rotations (and cheap relinearize-vs-rotate reuse)
        possible.  One polynomial is a one-component lane of one.
        """
        rows = target.native_rows(self.context.backend)
        return self._decompose(
            CiphertextBatch(target.n, 1, target.moduli, [rows], 1.0, target.is_ntt), 0
        )

    def _keyswitch_macs(self, digits: KeySwitchDigits, ksk: KswitchKey) -> List[List]:
        """The DyadMult half of phase 2 -> ``[c][j]``, accumulator ``c``'s
        unfloored ``N``-row block under extended-basis modulus ``j``.

        One fused ``dyadic_stack_reduce`` per (key column, modulus)
        against the pre-stacked, backend-native key columns
        (:meth:`KswitchKey.stacked_columns`) -- each key row is shared
        by its digit's ``N``-row block.
        """
        be = self.context.backend
        ext_moduli = digits.ext_moduli
        return [
            [
                be.dyadic_stack_reduce(m, digits.stacks[j], column[j])
                for j, m in enumerate(ext_moduli)
            ]
            for column in ksk.stacked_columns(ext_moduli, be)
        ]

    def _apply_keyswitch(self, digits: KeySwitchDigits, ksk: KswitchKey) -> Tuple:
        """Phase 2 of Algorithm 7 -> the ``(f0, f1)`` lane matrices: the
        MACs, then the Floor by the special prime (line 19) of both."""
        macs = self._keyswitch_macs(digits, ksk)
        return tuple(self._floor_divide(macs, digits.ext_moduli))

    def apply_keyswitch(
        self, digits: KeySwitchDigits, ksk: KswitchKey
    ) -> Tuple[RnsPolynomial, RnsPolynomial]:
        """Phase 2 of Algorithm 7: dyadic MACs + Modulus Switch."""
        f0, f1 = self._apply_keyswitch(digits, ksk)
        return (
            RnsPolynomial(digits.n, digits.data_moduli, f0, is_ntt=True),
            RnsPolynomial(digits.n, digits.data_moduli, f1, is_ntt=True),
        )

    def keyswitch_polynomial(
        self, target: RnsPolynomial, ksk: KswitchKey
    ) -> Tuple[RnsPolynomial, RnsPolynomial]:
        """Algorithm 7 core: switch one NTT-form polynomial to the new key.

        Returns the pair ``(f0, f1)`` over the target's basis such that a
        ciphertext decryptable via ``target * s_old`` becomes decryptable
        under ``s`` after adding ``(f0, f1)``.

        The structure mirrors the hardware dataflow (Figure 5) in its
        two-phase form: :meth:`decompose` (INTT0 + the NTT0 fan-out
        layer) then :meth:`apply_keyswitch` (DyadMult accumulation and
        Modulus Switch).  Bit-identical to the textbook single-loop
        formulation kept as the oracle in ``tests/ckks/differential.py``.
        """
        return self.apply_keyswitch(self.decompose(target), ksk)

    def relinearize(self, ct: Operand, relin_key: RelinKey) -> Operand:
        """CKKS.Relin: reduce a size-3 ciphertext back to size 2."""
        lane = self._lane(ct)
        if lane.size != 3:
            raise ValueError(
                f"relinearize expects size-3 ciphertext, got {lane.size}"
            )
        be = self.context.backend
        f0, f1 = self._apply_keyswitch(self._decompose(lane, 2), relin_key)
        rm = lane.row_moduli
        comps = [
            be.add_rows(rm, lane.comps[0], f0),
            be.add_rows(rm, lane.comps[1], f1),
        ]
        return self._emit(ct, lane, comps)

    def multiply_relin(
        self, ct0: Operand, ct1: Operand, relin_key: RelinKey
    ) -> Operand:
        """Fused MULT + Relin -- the composite operation of Table 8."""
        return self.relinearize(self.multiply(ct0, ct1), relin_key)

    # ------------------------------------------------------------------
    # rotation / conjugation: always the hoisted dataflow
    # ------------------------------------------------------------------
    def _rotation_macs(self, digits: KeySwitchDigits, j: int, keys, tables):
        """The DyadMult half of phase 2 for all ``R`` rotations of a sweep
        under extended modulus ``j``: the digits never move, the keys
        stream (Figure 5).

        ``keys`` is the sweep's ``(L·2R, n)`` operand under that modulus
        (:meth:`GaloisKeySet.stacked`, every row already under its
        rotation's ``σ⁻¹``), ``tables`` the ``(2R, n)`` gathers that line
        up with its ``2R`` rows.  One ``dyadic_stack_reduce`` with the
        key rows as the blocks and the ``L`` digit rows as the shared
        operand (both columns and all rotations share one float cast of
        each digit), then one gather that puts every accumulator under
        its own rotation.  Returns the ``2R·N`` rows, row ``(c·R + d)·N
        + b`` column ``c`` of rotation ``d`` for lane element ``b`` --
        for a lane of one the gather itself.  A lane loops over its
        narrower side: the elements while ``N <= 2R``, else the key rows
        with the ``N`` digit rows as the blocks -- a function of ``(2R,
        N)`` alone, the same products either way.
        """
        be = self.context.backend
        m, stack = digits.ext_moduli[j], digits.stacks[j]
        rows, count = len(tables), digits.count
        if count > rows:
            per = [
                be.permute_ntt_stack(
                    be.dyadic_stack_reduce(m, stack, keys[r::rows]), tables[r]
                )
                for r in range(rows)
            ]
            return [row for block in per for row in block]
        per = [
            be.permute_ntt_stack(
                be.dyadic_stack_reduce(m, keys, stack[b::count]), tables
            )
            for b in range(count)
        ]
        return per[0] if count == 1 else [g[r] for r in range(rows) for g in per]

    def apply_galois(
        self, ct: Operand, galois_elt: int, key: GaloisKey
    ) -> Operand:
        """Automorphism + key switch back to ``s``: the one-element sweep
        under a throwaway set of this one key (its stacked operand is
        not kept; rotate through a :class:`GaloisKeySet` to reuse it)."""
        if key.galois_elt != galois_elt:
            raise ValueError("Galois key does not match the requested element")
        keys = GaloisKeySet({galois_elt: key})
        return self.apply_galois_hoisted(ct, [galois_elt], keys)[0]

    def apply_galois_hoisted(
        self,
        ct: Operand,
        galois_elts: Iterable[int],
        galois_keys: GaloisKeySet,
    ) -> List[Operand]:
        """Apply several automorphisms to *one* operand, hoisting the
        key-switch decomposition.

        ``σ_g`` commutes with the RNS gadget decomposition up to the
        choice of digit representative (the permuted digits of ``c1``
        are the *centered* digits of ``σ_g(c1)``: a valid, slightly
        smaller-noise decomposition) and is a sign-free slot permutation
        in the NTT domain, so ``Σ_i σ(D_i)⊙K_i = σ(Σ_i D_i⊙σ⁻¹(K_i))``.
        The fan-out (:meth:`decompose`) therefore runs **once**, its
        digits are never permuted, and all elements share one key MAC
        and one gather per modulus (:meth:`_rotation_macs`); each then
        pays its own Modulus Switch and the gather of ``c0``.  This is
        the only rotation path -- one rotation is the one-element sweep
        -- so hoisting is bit-identical to rotating one at a time.
        """
        be = self.context.backend
        lane = self._lane(ct)
        if lane.size != 2:
            raise ValueError("relinearize before applying Galois automorphisms")
        elts, count = list(galois_elts), lane.count
        if not elts:
            return []
        digits = self._decompose(lane, 1)
        tables, columns = galois_keys.stacked(elts, digits.ext_moduli, self.context)
        macs = [
            self._rotation_macs(digits, j, keys, tables[: 2 * len(elts)])
            for j, keys in enumerate(columns)
        ]
        outs = []
        for d in range(len(elts)):
            f0, f1 = self._floor_divide(
                [
                    [g[at * count : (at + 1) * count] for g in macs]
                    for at in (d, len(elts) + d)
                ],
                digits.ext_moduli,
            )
            c0 = be.permute_ntt_stack(lane.comps[0], tables[d])
            outs.append(
                self._emit(ct, lane, [be.add_rows(lane.row_moduli, c0, f0), f1])
            )
        return outs

    def rotate_hoisted(
        self, ct: Operand, steps: Iterable[int], galois_keys: GaloisKeySet
    ) -> List[Operand]:
        """Rotate one operand by many steps for one decomposition.

        The hoisting fast path for every rotate-heavy composite
        (``matvec_diagonal`` being the canonical case: ``dim - 1``
        rotations of the same input).  Results are bit-identical to
        ``[rotate(ct, s, keys) for s in steps]`` on every backend.
        """
        ctx = self.context
        elts = [ctx.galois_element_for_step(step) for step in steps]
        return self.apply_galois_hoisted(ct, elts, galois_keys)

    def rotate(
        self, ct: Operand, step: int, galois_keys: GaloisKeySet
    ) -> Operand:
        """Cyclically rotate message slots left by ``step``."""
        return self.rotate_hoisted(ct, [step], galois_keys)[0]

    def conjugate(self, ct: Operand, galois_keys: GaloisKeySet) -> Operand:
        """Complex-conjugate every slot."""
        elt = self.context.conjugation_element
        return self.apply_galois_hoisted(ct, [elt], galois_keys)[0]

    # ------------------------------------------------------------------
    # the key-switched linear combination (a diagonal matvec is one)
    # ------------------------------------------------------------------
    def sweep_terms(self, terms: Sequence[Tuple[int, Plaintext]]) -> "SweepTerms":
        """Stack the ``(step, plaintext)`` terms of a :meth:`linear_sweep`
        once (see :class:`SweepTerms`); a caller that runs the same sweep
        again passes the result instead of the terms."""
        ctx = self.context
        be = ctx.backend
        terms = list(terms)
        if not terms:
            raise ValueError("linear_sweep needs at least one term")
        first = terms[0][1]
        moduli = first.poly.moduli
        basis = [m.value for m in moduli]
        for _, pt in terms:
            check_scales(first.scale, pt.scale)
            shape = (pt.n, pt.poly.is_ntt, [m.value for m in pt.poly.moduli])
            if shape != (first.n, True, basis):
                raise ValueError(_SWEEP_BASIS)
        elts = [ctx.galois_element_for_step(step) for step, _ in terms]
        mats = [pt.poly.native_rows(be) for (_, pt), e in zip(terms, elts) if e != 1]
        still = [pt.poly.native_rows(be) for (_, pt), e in zip(terms, elts) if e == 1]
        for extra in still[1:]:  # a product is linear in its plaintext
            still[0] = be.add_rows(moduli, still[0], extra)
        mats += still[:1]
        return SweepTerms(
            first.n,
            basis,
            first.scale,
            tuple(e for e in elts if e != 1),
            [be.native_stack([mat[j] for mat in mats]) for j in range(len(basis))],
        )

    def linear_sweep(
        self,
        ct: Operand,
        terms: Union["SweepTerms", Sequence[Tuple[int, Plaintext]]],
        galois_keys: GaloisKeySet,
    ) -> Operand:
        """``Σ_d pt_d ⊙ rotate(ct, step_d)`` with one decomposition and
        **one** Modulus Switch (step 0 is the unrotated term).

        A plaintext product and a sum are linear, so the rotations'
        key-switch accumulators need not leave the extended basis
        ``Q·P`` one by one.  Per extended modulus, three products: the
        key MAC of :meth:`_rotation_macs` (all ``2R`` accumulators from
        the one unpermuted digit stack, one gather) and, on the two
        contiguous halves of that gather, a ``dyadic_stack_reduce``
        against the ``R`` stacked plaintext rows (the key MAC's own
        shape: block ``d`` shares row ``d``); the two sums are floored by
        the special prime once.  What never left ``Q`` is a dot per data
        prime: ``Σ pt_d ⊙ σ_d(c0)`` over one gather of the ``c0`` row
        under every table, and the unrotated term on ``c1``.  So the
        plaintexts live over the level's *key basis*
        (``CkksEncoder.encode(..., extended=True)``) at one scale, and
        arrive stacked (:meth:`sweep_terms`) or are stacked here.  Same
        value, level and scale as the unfused ``Σ
        multiply_plain(rotate(ct, d), pt_d)`` with one flooring error
        instead of ``R`` -- not the same bits; bit-identical across
        backends and lane widths like every other operation.
        """
        ctx = self.context
        be = ctx.backend
        lane = self._lane(ct)
        if lane.size != 2 or not lane.is_ntt:
            raise ValueError("linear_sweep takes a relinearized, NTT-form operand")
        if not isinstance(terms, SweepTerms):
            terms = self.sweep_terms(terms)
        level, count = lane.level_count, lane.count
        ext_moduli = lane.moduli + [ctx.special_modulus]
        if (terms.n, terms.basis) != (lane.n, [m.value for m in ext_moduli]):
            raise ValueError(_SWEEP_BASIS)
        rotations, plains = len(terms.elts), terms.stacks
        c0, c1 = (self._blocks(comp, level, count) for comp in lane.comps)
        floored: List = []
        if rotations:
            tables, columns = galois_keys.stacked(terms.elts, ext_moduli, ctx)
            digits = self._decompose(lane, 1)
            half = rotations * count
            sums: Tuple[List, List] = [], []
            for j, m in enumerate(ext_moduli):
                # modulus by modulus: a gather is weighed and dropped
                # before the next is built (one sweep-tall buffer live)
                macs = self._rotation_macs(digits, j, columns[j], tables[: 2 * rotations])
                for c in (0, 1):
                    sums[c].append(
                        be.dyadic_stack_reduce(
                            m, macs[c * half : (c + 1) * half], plains[j][:rotations]
                        )
                    )
                del macs
            floored = self._floor_divide(sums, ext_moduli)
            # c0 under every rotation, then (if a term is unrotated) as
            # it is: the order of the plaintext stack
            gathers = tables[rotations : rotations + len(plains[0])]
            c0 = (
                be.permute_ntt_stack(block, gathers)
                if count == 1
                else [r for t in gathers for r in be.permute_ntt_stack(block, t)]
                for block in c0
            )

        def in_q(blocks, lo):
            """What never leaves ``Q``: per data prime the dot of
            ``blocks`` with the plaintext rows ``[lo:]``, modulus-major."""
            return be.from_rows(
                [
                    row
                    for m, block, rows in zip(lane.moduli, blocks, plains)
                    for row in be.dyadic_stack_reduce(m, block, rows[lo:])
                ]
            )

        comps = [in_q(c0, 0)]
        if len(plains[0]) > rotations:
            comps.append(in_q(c1, rotations))
        if floored:
            rm = lane.row_moduli
            comps = [
                be.add_rows(rm, comp, f) for comp, f in zip(comps, floored)
            ] + floored[len(comps):]
        return self._emit(ct, lane, comps, scale=lane.scale * terms.scale)
