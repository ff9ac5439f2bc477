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
lane (*hoisting*) -- each extra rotation costs only permutations, MACs
and the Modulus Switch, never the fan-out.  A single ``rotate`` is the
one-step sweep.

The per-coefficient inner loops all dispatch to the context's polynomial
backend, so the same evaluator code runs against the pure-Python
reference kernels or the vectorized numpy ones unchanged.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple, Union

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
    against.  The object is immutable by convention: hoisted rotation
    *permutes into fresh stacks* rather than mutating, so one
    decomposition can back any number of ``apply_keyswitch`` calls.
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
            others = [row for i in range(level) if i != j for row in coeff[i]]
            fanned = (
                be.ntt_forward_stack(
                    ctx.tables(m_j),
                    be.reduce_mod_stack(m_j, be.native_stack(others)),
                )
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
    def _hoist(self, ct: Operand) -> Tuple[CiphertextBatch, KeySwitchDigits]:
        """The lane and the decomposition of its ``c1`` (size-2 only)."""
        lane = self._lane(ct)
        if lane.size != 2:
            raise ValueError("relinearize before applying Galois automorphisms")
        return lane, self._decompose(lane, 1)

    def _permuted(self, digits: KeySwitchDigits, table) -> KeySwitchDigits:
        """``digits`` under an NTT-domain automorphism, in fresh stacks."""
        be = self.context.backend
        return KeySwitchDigits(
            digits.n,
            digits.data_moduli,
            digits.ext_moduli,
            [be.permute_ntt_stack(s, table) for s in digits.stacks],
            digits.count,
        )

    def _apply_galois_digits(
        self,
        like: Operand,
        lane: CiphertextBatch,
        digits: KeySwitchDigits,
        key: GaloisKey,
    ) -> Operand:
        """Automorphism + key switch from a pre-decomposed ``c1``.

        ``σ_g`` commutes with the RNS gadget decomposition up to the
        choice of digit representative: permuting the decomposed digits
        in the NTT domain yields the *centered* representative of
        ``σ_g(c1)``'s digits (entries in ``(-p_i, p_i)`` instead of
        ``[0, p_i)``), which is a valid -- in fact slightly
        smaller-noise -- gadget decomposition.  This digit-permuting
        dataflow is therefore the only rotation path, and hoisting
        (reusing ``digits`` across many elements) is bit-identical to
        single rotations by construction.  The NTT-domain automorphism
        is a sign-free gather, so rows under different moduli (and
        different lane elements) share one ``permute_ntt_stack`` call.
        """
        ctx = self.context
        be = ctx.backend
        table = ctx.galois_table_ntt(key.galois_elt)
        f0, f1 = self._apply_keyswitch(self._permuted(digits, table), key)
        c0 = be.permute_ntt_stack(lane.comps[0], table)
        return self._emit(like, lane, [be.add_rows(lane.row_moduli, c0, f0), f1])

    def apply_galois(
        self, ct: Operand, galois_elt: int, key: GaloisKey
    ) -> Operand:
        """Automorphism + key switch back to ``s`` (size-2 input only).

        Runs entirely in the NTT domain: decompose ``c1``, gather-permute
        the digits and ``c0`` (no ``from_ntt``/``to_ntt`` round trip),
        then stacked MACs + Modulus Switch.
        """
        if key.galois_elt != galois_elt:
            raise ValueError("Galois key does not match the requested element")
        lane, digits = self._hoist(ct)
        return self._apply_galois_digits(ct, lane, digits, key)

    def apply_galois_hoisted(
        self,
        ct: Operand,
        galois_elts: Iterable[int],
        galois_keys: GaloisKeySet,
    ) -> List[Operand]:
        """Apply several automorphisms to *one* operand, hoisting the
        key-switch decomposition.

        Because ``σ_g`` commutes with the RNS gadget decomposition (it
        acts residue-wise and exactly), the digits of ``σ_g(c1)`` are the
        NTT-domain permutation of the digits of ``c1``.  So the fan-out
        (:meth:`decompose`, the ``O(L·(L+1))``-transform phase) runs
        **once**, and every requested element costs only gather
        permutations, stacked MACs against its Galois key, and the
        Modulus Switch -- bit-identical to calling :meth:`apply_galois`
        per element.
        """
        lane, digits = self._hoist(ct)
        return [
            self._apply_galois_digits(
                ct, lane, digits, galois_keys.key_for_element(elt)
            )
            for elt in galois_elts
        ]

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
    def linear_sweep(
        self,
        ct: Operand,
        terms: Sequence[Tuple[int, Plaintext]],
        galois_keys: GaloisKeySet,
    ) -> Operand:
        """``Σ_d pt_d ⊙ rotate(ct, step_d)`` with one decomposition and
        **one** Modulus Switch (step 0 is the unrotated term).

        A plaintext product and a sum are linear, so the rotations'
        key-switch accumulators need not leave the extended basis
        ``Q·P`` one by one: per rotated term the hoisted digits are
        permuted and MAC'd against its Galois key as in
        :meth:`rotate_hoisted`, but both ``(L+1)``-block accumulators are
        *kept*; per extended modulus one ``dyadic_stack_reduce`` weighs
        the ``R`` accumulator blocks by the ``R`` plaintext rows (the key
        MAC's own shape: block ``d`` shares row ``d``) and the sum is
        floored by the special prime once.  What never left ``Q``
        (``Σ pt_d ⊙ σ_d(c0)``, the unrotated term on ``c1``) is one more
        dot per data prime.  So the plaintexts live over the level's
        *key basis* (``CkksEncoder.encode(..., extended=True)``) at one
        scale.  Same value, level and scale as the unfused ``Σ
        multiply_plain(rotate(ct, d), pt_d)`` with one flooring error
        instead of ``R`` -- not the same bits; bit-identical across
        backends and lane widths like every other operation.
        """
        ctx = self.context
        be = ctx.backend
        lane = self._lane(ct)
        terms = list(terms)
        if lane.size != 2 or not lane.is_ntt:
            raise ValueError("linear_sweep takes a relinearized, NTT-form operand")
        if not terms:
            raise ValueError("linear_sweep needs at least one term")
        level, count = lane.level_count, lane.count
        ext_moduli = lane.moduli + [ctx.special_modulus]
        basis = [m.value for m in ext_moduli]
        for _, pt in terms:
            check_scales(terms[0][1].scale, pt.scale)
            shape = (pt.n, pt.poly.is_ntt, [m.value for m in pt.poly.moduli])
            if shape != (lane.n, True, basis):
                raise ValueError(
                    "RNS basis mismatch: linear_sweep plaintexts are NTT-form "
                    "over the level's key basis (data primes + special prime)"
                )
        plains = [pt.poly.native_rows(be) for _, pt in terms]
        elts = [ctx.galois_element_for_step(step) for step, _ in terms]
        rotated = [d for d, elt in enumerate(elts) if elt != 1]
        unrotated = [d for d, elt in enumerate(elts) if elt == 1]

        def rows_of(which, moduli):
            """Per modulus the stack of plaintext rows of the terms ``which``."""
            return [
                be.native_stack([plains[d][i] for d in which])
                for i in range(len(moduli))
            ]

        def weighted(moduli, parts, rows):
            """Per modulus ``i`` the N-row block ``Σ_k rows[i][k] ⊙ parts[k][i]``."""
            return [
                be.dyadic_stack_reduce(
                    m, be.native_stack([r for part in parts for r in part[i]]), rows[i]
                )
                for i, m in enumerate(moduli)
            ]

        def in_q(mats, which):
            parts = [self._blocks(mat, level, count) for mat in mats]
            blocks = weighted(lane.moduli, parts, rows_of(which, lane.moduli))
            return be.from_rows([row for block in blocks for row in block])

        digits = self._decompose(lane, 1) if rotated else None
        c0s, accumulators = [], []
        for elt in elts:
            if elt == 1:
                c0s.append(lane.comps[0])
                continue
            table = ctx.galois_table_ntt(elt)
            key = galois_keys.key_for_element(elt)
            macs = self._keyswitch_macs(self._permuted(digits, table), key)
            accumulators.append(macs)
            c0s.append(be.permute_ntt_stack(lane.comps[0], table))
        comps = [in_q(c0s, range(len(terms)))]
        if unrotated:
            comps.append(in_q([lane.comps[1]] * len(unrotated), unrotated))
        if rotated:
            rows = rows_of(rotated, ext_moduli)  # shared by both accumulators
            sums = [
                weighted(ext_moduli, [acc[c] for acc in accumulators], rows)
                for c in (0, 1)
            ]
            floored = self._floor_divide(sums, ext_moduli)
            rm = lane.row_moduli
            comps = [
                be.add_rows(rm, comp, f) for comp, f in zip(comps, floored)
            ] + floored[len(comps):]
        return self._emit(ct, lane, comps, scale=lane.scale * terms[0][1].scale)
