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

All ciphertext polynomials are kept in RNS + NTT form throughout, exactly
as in SEAL/HEAX; the only INTT/NTT conversions happen inside KeySwitch and
rescaling, mirroring the hardware dataflow of Figure 5.

Key switching is a two-phase pipeline.  :meth:`Evaluator.decompose` is
the expensive half -- the per-digit INTT plus the NTT fan-out to every
other prime (Figure 5's INTT0/NTT0 layers), executed as *stacked* NTT
calls per target modulus -- and yields a reusable
:class:`KeySwitchDigits`.  :meth:`Evaluator.apply_keyswitch` is the
cheap half: dyadic MACs against a (cached, stacked) key plus the final
Modulus Switch.  Rotations exploit the split twice over: the Galois
automorphism of an NTT-form polynomial is a sign-free slot permutation
(:meth:`CkksContext.apply_galois_ntt`), and because the automorphism
commutes with RNS decomposition, one decomposition serves *every*
rotation of the same ciphertext (*hoisting*) -- each extra rotation
costs only permutations, MACs and the Modulus Switch, never the fan-out.

The per-coefficient inner loops (NTT fan-out, dyadic multiply-accumulate,
base conversion, flooring) all dispatch to the context's polynomial
backend, so the same evaluator code runs against the pure-Python
reference kernels or the vectorized numpy ones unchanged.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro.ckks.context import CkksContext
from repro.ckks.keys import GaloisKey, GaloisKeySet, KswitchKey, RelinKey
from repro.ckks.modarith import Modulus
from repro.ckks.poly import Ciphertext, Plaintext, RnsPolynomial

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


def rows_for(poly: RnsPolynomial, moduli) -> List:
    """Select the residue rows of a full-basis key poly for these moduli.

    Rows stay in the polynomial's native representation (views on an
    array backend) -- selection is addressing, not conversion.
    """
    index = {m.value: i for i, m in enumerate(poly.moduli)}
    rows = poly.rows
    return [rows[index[m.value]] for m in moduli]


#: Backward-compatible private alias (pre-batch-layer name).
_rows_for = rows_for


class KeySwitchDigits:
    """The reusable product of :meth:`Evaluator.decompose`.

    ``stacks[j]`` holds, for extended-basis modulus ``j``, the ``L``
    gadget-digit rows in NTT form as one backend-native ``(L, n)``
    row-stack -- exactly the operand layout
    :meth:`Evaluator.apply_keyswitch` MACs against a stacked key column.
    The object is immutable by convention: hoisted rotation *permutes
    into fresh stacks* rather than mutating, so one decomposition can
    back any number of ``apply_keyswitch`` calls.
    """

    __slots__ = ("n", "data_moduli", "ext_moduli", "stacks")

    def __init__(
        self,
        n: int,
        data_moduli: Sequence[Modulus],
        ext_moduli: Sequence[Modulus],
        stacks: List,
    ):
        self.n = n
        self.data_moduli = list(data_moduli)
        self.ext_moduli = list(ext_moduli)
        self.stacks = stacks

    @property
    def level_count(self) -> int:
        """Gadget digit count ``L`` (one per data prime at this level)."""
        return len(self.data_moduli)


class Evaluator:
    """Implements every homomorphic operation of Section 3."""

    def __init__(self, context: CkksContext):
        self.context = context

    # ------------------------------------------------------------------
    # scale/level discipline
    # ------------------------------------------------------------------
    _check_scales = staticmethod(check_scales)

    @staticmethod
    def _check_levels(a: Ciphertext, b) -> None:
        if a.level_count != b.level_count:
            raise ValueError(
                f"level mismatch: {a.level_count} vs {b.level_count}"
            )

    # ------------------------------------------------------------------
    # addition family
    # ------------------------------------------------------------------
    def add(self, ct0: Ciphertext, ct1: Ciphertext) -> Ciphertext:
        """CKKS.Add: componentwise sum (sizes may differ)."""
        self._check_scales(ct0.scale, ct1.scale)
        self._check_levels(ct0, ct1)
        be = self.context.backend
        big, small = (ct0, ct1) if ct0.size >= ct1.size else (ct1, ct0)
        polys = [
            big.polys[i].add(small.polys[i], backend=be)
            if i < small.size
            else big.polys[i].clone(backend=be)
            for i in range(big.size)
        ]
        return Ciphertext(polys, ct0.scale)

    def sub(self, ct0: Ciphertext, ct1: Ciphertext) -> Ciphertext:
        """Componentwise difference."""
        self._check_scales(ct0.scale, ct1.scale)
        self._check_levels(ct0, ct1)
        be = self.context.backend
        size = max(ct0.size, ct1.size)
        polys = []
        for i in range(size):
            if i < ct0.size and i < ct1.size:
                polys.append(ct0.polys[i].sub(ct1.polys[i], backend=be))
            elif i < ct0.size:
                polys.append(ct0.polys[i].clone(backend=be))
            else:
                polys.append(ct1.polys[i].negate(backend=be))
        return Ciphertext(polys, ct0.scale)

    def negate(self, ct: Ciphertext) -> Ciphertext:
        be = self.context.backend
        return Ciphertext([p.negate(backend=be) for p in ct.polys], ct.scale)

    def add_plain(self, ct: Ciphertext, pt: Plaintext) -> Ciphertext:
        """Add an (NTT-form, level-matched) plaintext to ``c0``."""
        self._check_scales(ct.scale, pt.scale)
        self._check_levels(ct, pt)
        be = self.context.backend
        polys = [ct.polys[0].add(pt.poly, backend=be)] + [
            p.clone(backend=be) for p in ct.polys[1:]
        ]
        return Ciphertext(polys, ct.scale)

    def sub_plain(self, ct: Ciphertext, pt: Plaintext) -> Ciphertext:
        self._check_scales(ct.scale, pt.scale)
        self._check_levels(ct, pt)
        be = self.context.backend
        polys = [ct.polys[0].sub(pt.poly, backend=be)] + [
            p.clone(backend=be) for p in ct.polys[1:]
        ]
        return Ciphertext(polys, ct.scale)

    # ------------------------------------------------------------------
    # multiplication family (Algorithm 5)
    # ------------------------------------------------------------------
    def multiply(self, ct0: Ciphertext, ct1: Ciphertext) -> Ciphertext:
        """Algorithm 5 generalized: (α, β) -> α+β-1 component product.

        For the common size-2 × size-2 case this is exactly the printed
        algorithm: ``c0 = a0 b0``, ``c1 = a0 b1 + a1 b0``, ``c2 = a1 b1``,
        all dyadic since operands are in NTT form.
        """
        self._check_levels(ct0, ct1)
        be = self.context.backend
        alpha, beta = ct0.size, ct1.size
        out: List[RnsPolynomial] = [None] * (alpha + beta - 1)
        for i in range(alpha):
            for j in range(beta):
                term = ct0.polys[i].dyadic_multiply(ct1.polys[j], backend=be)
                out[i + j] = (
                    term if out[i + j] is None else out[i + j].add(term, backend=be)
                )
        return Ciphertext(out, ct0.scale * ct1.scale)

    def square(self, ct: Ciphertext) -> Ciphertext:
        """Homomorphic squaring (saves one dyadic product vs multiply)."""
        if ct.size != 2:
            return self.multiply(ct, ct)
        be = self.context.backend
        a0, a1 = ct.polys
        c0 = a0.dyadic_multiply(a0, backend=be)
        cross = a0.dyadic_multiply(a1, backend=be)
        c1 = cross.add(cross, backend=be)
        c2 = a1.dyadic_multiply(a1, backend=be)
        return Ciphertext([c0, c1, c2], ct.scale * ct.scale)

    def multiply_plain(self, ct: Ciphertext, pt: Plaintext) -> Ciphertext:
        """Ciphertext-plaintext product (the MULT module's C-P mode)."""
        self._check_levels(ct, pt)
        be = self.context.backend
        polys = [p.dyadic_multiply(pt.poly, backend=be) for p in ct.polys]
        return Ciphertext(polys, ct.scale * pt.scale)

    # ------------------------------------------------------------------
    # rescaling (Algorithm 6)
    # ------------------------------------------------------------------
    def _floor_divide_rows(
        self,
        rows_per_poly: List[List],
        moduli: Sequence[Modulus],
        n: int,
    ) -> List[RnsPolynomial]:
        """Algorithm-6 flooring of ``K`` same-basis accumulators at once.

        ``rows_per_poly[k][i]`` is accumulator ``k``'s native residue row
        under modulus ``i``.  All ``K`` polynomials flow through the
        identical Modulus-Switch dataflow, so their per-modulus
        transforms run as ``K``-row stacked kernels -- one launch where
        flooring them one by one would pay ``K`` -- and every
        intermediate stays backend-resident (no canonical-list
        round-trip anywhere in the pipeline).
        """
        ctx = self.context
        be = ctx.backend
        last_mod = moduli[-1]
        count = len(rows_per_poly)
        a = be.ntt_inverse_stack(
            ctx.tables(last_mod),
            be.native_stack([rows[-1] for rows in rows_per_poly]),
        )
        out_moduli = list(moduli[:-1])
        out_rows: List[List] = [[] for _ in range(count)]
        for i, m in enumerate(out_moduli):
            inv_last = ctx.rescale_inverse(last_mod, m)
            r_ntt = be.ntt_forward_stack(
                ctx.tables(m), be.reduce_mod_stack(m, a)
            )
            diff = be.sub_stack(
                m,
                be.native_stack([rows[i] for rows in rows_per_poly]),
                r_ntt,
            )
            scaled = be.scalar_mul_stack(m, diff, inv_last)
            for k in range(count):
                out_rows[k].append(scaled[k])
        return [
            RnsPolynomial(n, out_moduli, be.from_rows(rows), is_ntt=True)
            for rows in out_rows
        ]

    def _floor_divide_last(self, poly: RnsPolynomial) -> RnsPolynomial:
        """RNS flooring: divide by the last RNS prime and drop it.

        Implements Algorithm 6: ``a = INTT(c_last)``; for every remaining
        prime ``p_i``: ``c'_i = [p_last^{-1} (c_i - NTT([a]_{p_i}))]``.
        """
        if not poly.is_ntt:
            raise ValueError("flooring operates on NTT-form polynomials")
        if poly.level_count < 2:
            raise ValueError("need at least two RNS components to floor")
        h = poly.native_rows(self.context.backend)
        return self._floor_divide_rows([list(h)], poly.moduli, poly.n)[0]

    def _floor_divide_pair(
        self,
        rows0: List,
        rows1: List,
        moduli: Sequence[Modulus],
        n: int,
    ) -> Tuple[RnsPolynomial, RnsPolynomial]:
        """Algorithm-6 flooring of two same-basis accumulators at once."""
        f0, f1 = self._floor_divide_rows([rows0, rows1], moduli, n)
        return f0, f1

    def rescale(self, ct: Ciphertext) -> Ciphertext:
        """CKKS.Rescale: floor-divide every component by the last prime.

        The scale drops by exactly that prime, so callers typically choose
        primes close to the scale to keep it stable across levels.  All
        components floor together: one ``size``-row stacked transform per
        modulus instead of ``size`` separate Modulus-Switch pipelines.
        """
        if not ct.is_ntt:
            raise ValueError("flooring operates on NTT-form polynomials")
        if ct.level_count < 2:
            raise ValueError("cannot rescale at the last level")
        be = self.context.backend
        last = ct.moduli[-1].value
        polys = self._floor_divide_rows(
            [list(p.native_rows(be)) for p in ct.polys], ct.moduli, ct.n
        )
        return Ciphertext(polys, ct.scale / last)

    # ------------------------------------------------------------------
    # key switching (Algorithm 7, two-phase)
    # ------------------------------------------------------------------
    def decompose(self, target: RnsPolynomial) -> KeySwitchDigits:
        """Phase 1 of Algorithm 7: the RNS gadget decomposition.

        For every digit ``i`` (data prime), return to coefficient form
        (line 3) and fan the digit out to every *other* extended-basis
        prime (lines 6-7); the ``i == j`` row reuses the NTT-form input
        (line 9).  The fan-out runs as **one stacked forward NTT per
        target modulus** -- all digits destined for modulus ``j``
        transform in a single backend call -- instead of the historical
        Python-level ``(i, j)`` double loop of single-row transforms.

        The result is key-independent: :meth:`apply_keyswitch` can
        consume it against any key over the same basis, which is what
        makes hoisted rotations (and cheap relinearize-vs-rotate reuse)
        possible.
        """
        ctx = self.context
        be = ctx.backend
        if not target.is_ntt:
            raise ValueError("key switching operates on NTT-form input")
        level = target.level_count
        data_moduli = list(target.moduli)
        ext_moduli = data_moduli + [ctx.special_modulus]
        target_rows = target.native_rows(be)
        # line 3, all digits: one INTT per data prime, the whole digit
        # matrix staying backend-resident
        coeff = be.ntt_inverse_rows(
            [ctx.tables(m) for m in data_moduli], target_rows
        )
        stacks = []
        for j, m_j in enumerate(ext_moduli):
            pass_idx = j if j < level else None  # line 9: self-row reuse
            idxs = [i for i in range(level) if i != pass_idx]
            if not idxs:
                # single-level basis: the only digit is the pass-through
                stacks.append(
                    be.native_stack(be.select_rows(target_rows, [pass_idx]))
                )
                continue
            fanned = be.ntt_forward_stack(
                ctx.tables(m_j),
                be.reduce_mod_stack(m_j, be.select_rows(coeff, idxs)),
            )
            if pass_idx is not None:
                fanned = be.insert_row(
                    fanned, pass_idx, be.get_row(target_rows, pass_idx)
                )
            stacks.append(be.native_stack(fanned))
        return KeySwitchDigits(target.n, data_moduli, ext_moduli, stacks)

    def apply_keyswitch(
        self, digits: KeySwitchDigits, ksk: KswitchKey
    ) -> Tuple[RnsPolynomial, RnsPolynomial]:
        """Phase 2 of Algorithm 7: dyadic MACs + Modulus Switch.

        One fused ``dyadic_stack_reduce`` per (key column, extended
        modulus) -- the key arrives pre-stacked and backend-native from
        :meth:`KswitchKey.stacked_columns` -- followed by the Floor by
        the special prime (line 19) on both accumulators at once.
        """
        be = self.context.backend
        ext_moduli = digits.ext_moduli
        col0, col1 = ksk.stacked_columns(ext_moduli, be)
        acc0 = [
            be.dyadic_stack_reduce(m, digits.stacks[j], col0[j])
            for j, m in enumerate(ext_moduli)
        ]
        acc1 = [
            be.dyadic_stack_reduce(m, digits.stacks[j], col1[j])
            for j, m in enumerate(ext_moduli)
        ]
        return self._floor_divide_pair(acc0, acc1, ext_moduli, digits.n)

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
        Modulus Switch).  Bit-identical to the historical single-loop
        formulation, kept below as
        :meth:`keyswitch_polynomial_unhoisted`.
        """
        return self.apply_keyswitch(self.decompose(target), ksk)

    def keyswitch_polynomial_unhoisted(
        self, target: RnsPolynomial, ksk: KswitchKey
    ) -> Tuple[RnsPolynomial, RnsPolynomial]:
        """The pre-hoisting Algorithm-7 loop: one (digit, modulus) pair
        per iteration, single-row kernels throughout.

        Kept as the baseline the fast path is benchmarked and
        differential-tested against
        (``benchmarks/bench_keyswitch_hoisting.py``); new code should
        call :meth:`keyswitch_polynomial`.
        """
        ctx = self.context
        be = ctx.backend
        if not target.is_ntt:
            raise ValueError("key switching operates on NTT-form input")
        level = target.level_count
        data_moduli = list(target.moduli)
        special = ctx.special_modulus
        ext_moduli = data_moduli + [special]
        n = target.n

        acc0 = RnsPolynomial(n, ext_moduli, is_ntt=True)
        acc1 = RnsPolynomial(n, ext_moduli, is_ntt=True)
        for i in range(level):
            p_i = data_moduli[i]
            # line 3: back to coefficient domain for this component
            a = be.ntt_inverse(ctx.tables(p_i), target.row(i))
            d0, d1 = ksk.digit(i)
            d0_rows = _rows_for(d0, ext_moduli)
            d1_rows = _rows_for(d1, ext_moduli)
            for j, m_j in enumerate(ext_moduli):
                if m_j.value == p_i.value:
                    b_ntt = target.row(i)  # line 9: already in NTT form
                else:
                    b = be.reduce_mod(m_j, a)  # line 6: Mod(a, p_j)
                    b_ntt = be.ntt_forward(ctx.tables(m_j), b)  # line 7
                # lines 11-12 / 16-17: dyadic multiply-accumulate
                acc0.set_row(
                    j, be.dyadic_mac(m_j, acc0.row(j), b_ntt, d0_rows[j]), backend=be
                )
                acc1.set_row(
                    j, be.dyadic_mac(m_j, acc1.row(j), b_ntt, d1_rows[j]), backend=be
                )
        # line 19: Floor by the special prime (Modulus Switch)
        return self._floor_divide_last(acc0), self._floor_divide_last(acc1)

    def relinearize(self, ct: Ciphertext, relin_key: RelinKey) -> Ciphertext:
        """CKKS.Relin: reduce a size-3 ciphertext back to size 2."""
        if ct.size != 3:
            raise ValueError(f"relinearize expects size-3 ciphertext, got {ct.size}")
        be = self.context.backend
        f0, f1 = self.keyswitch_polynomial(ct.polys[2], relin_key)
        return Ciphertext(
            [ct.polys[0].add(f0, backend=be), ct.polys[1].add(f1, backend=be)],
            ct.scale,
        )

    def multiply_relin(
        self, ct0: Ciphertext, ct1: Ciphertext, relin_key: RelinKey
    ) -> Ciphertext:
        """Fused MULT + Relin -- the composite operation of Table 8."""
        return self.relinearize(self.multiply(ct0, ct1), relin_key)

    # ------------------------------------------------------------------
    # rotation / conjugation
    # ------------------------------------------------------------------
    def _apply_galois_ct(self, ct: Ciphertext, galois_elt: int) -> Ciphertext:
        """Automorphism of a ciphertext entirely in the NTT domain.

        A sign-free gather permutation per polynomial (see
        :meth:`CkksContext.apply_galois_ntt`) -- no ``from_ntt``/``to_ntt``
        round trip, bit-identical to the coefficient-domain path kept in
        :meth:`_apply_galois_ct_coeff`.
        """
        ctx = self.context
        return Ciphertext(
            [ctx.apply_galois_ntt(p, galois_elt) for p in ct.polys], ct.scale
        )

    def _apply_galois_ct_coeff(self, ct: Ciphertext, galois_elt: int) -> Ciphertext:
        """The pre-hoisting coefficient-domain automorphism (baseline)."""
        ctx = self.context
        polys = []
        for p in ct.polys:
            coeff = ctx.from_ntt(p)
            polys.append(ctx.to_ntt(ctx.apply_galois(coeff, galois_elt)))
        return Ciphertext(polys, ct.scale)

    def _apply_galois_digits(
        self,
        ct: Ciphertext,
        digits: KeySwitchDigits,
        galois_elt: int,
        key: GaloisKey,
    ) -> Ciphertext:
        """Automorphism + key switch from a pre-decomposed ``c1``.

        ``σ_g`` commutes with the RNS gadget decomposition up to the
        choice of digit representative: permuting the decomposed digits
        in the NTT domain yields the *centered* representative of
        ``σ_g(c1)``'s digits (entries in ``(-p_i, p_i)`` instead of
        ``[0, p_i)``), which is a valid -- in fact slightly
        smaller-noise -- gadget decomposition.  This digit-permuting
        dataflow is therefore the canonical rotation path, and hoisting
        (reusing ``digits`` across many elements) is bit-identical to
        single rotations by construction.
        """
        ctx = self.context
        be = ctx.backend
        table = ctx.galois_table_ntt(galois_elt)
        permuted = KeySwitchDigits(
            digits.n,
            digits.data_moduli,
            digits.ext_moduli,
            [be.permute_ntt_stack(s, table) for s in digits.stacks],
        )
        f0, f1 = self.apply_keyswitch(permuted, key)
        c0 = ctx.apply_galois_ntt(ct.polys[0], galois_elt)
        return Ciphertext([c0.add(f0, backend=be), f1], ct.scale)

    def apply_galois(
        self, ct: Ciphertext, galois_elt: int, key: GaloisKey
    ) -> Ciphertext:
        """Automorphism + key switch back to ``s`` (size-2 input only).

        Runs entirely in the NTT domain: decompose ``c1``, gather-permute
        the digits and ``c0`` (no ``from_ntt``/``to_ntt`` round trip),
        then stacked MACs + Modulus Switch.  One rotation is exactly the
        ``len(steps) == 1`` case of :meth:`rotate_hoisted`.
        """
        if ct.size != 2:
            raise ValueError("relinearize before applying Galois automorphisms")
        if key.galois_elt != galois_elt:
            raise ValueError("Galois key does not match the requested element")
        digits = self.decompose(ct.polys[1])
        return self._apply_galois_digits(ct, digits, galois_elt, key)

    def rotate(
        self, ct: Ciphertext, step: int, galois_keys: GaloisKeySet
    ) -> Ciphertext:
        """Cyclically rotate message slots left by ``step``."""
        elt = self.context.galois_element_for_step(step)
        return self.apply_galois(ct, elt, galois_keys.key_for_element(elt))

    def conjugate(self, ct: Ciphertext, galois_keys: GaloisKeySet) -> Ciphertext:
        """Complex-conjugate every slot."""
        elt = self.context.conjugation_element
        return self.apply_galois(ct, elt, galois_keys.key_for_element(elt))

    # ------------------------------------------------------------------
    # hoisted rotations (decompose once, apply many Galois keys)
    # ------------------------------------------------------------------
    def apply_galois_hoisted(
        self,
        ct: Ciphertext,
        galois_elts: Iterable[int],
        galois_keys: GaloisKeySet,
    ) -> List[Ciphertext]:
        """Apply several automorphisms to *one* ciphertext, hoisting the
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
        if ct.size != 2:
            raise ValueError("relinearize before applying Galois automorphisms")
        digits = self.decompose(ct.polys[1])
        return [
            self._apply_galois_digits(
                ct, digits, elt, galois_keys.key_for_element(elt)
            )
            for elt in galois_elts
        ]

    def rotate_hoisted(
        self, ct: Ciphertext, steps: Iterable[int], galois_keys: GaloisKeySet
    ) -> List[Ciphertext]:
        """Rotate one ciphertext by many steps for one decomposition.

        The hoisting fast path for every rotate-heavy composite
        (``matvec_diagonal`` being the canonical case: ``dim - 1``
        rotations of the same input).  Results are bit-identical to
        ``[rotate(ct, s, keys) for s in steps]`` on every backend.
        """
        ctx = self.context
        elts = [ctx.galois_element_for_step(step) for step in steps]
        return self.apply_galois_hoisted(ct, elts, galois_keys)

    def rotate_unhoisted(
        self, ct: Ciphertext, step: int, galois_keys: GaloisKeySet
    ) -> Ciphertext:
        """The pre-hoisting rotation: coefficient-domain automorphism
        round trip plus the single-row key-switch loop.

        Baseline for benchmarks and differential tests; production code
        should use :meth:`rotate` (NTT-domain automorphism, stacked
        key switch) or :meth:`rotate_hoisted`.
        """
        if ct.size != 2:
            raise ValueError("relinearize before applying Galois automorphisms")
        elt = self.context.galois_element_for_step(step)
        key = galois_keys.key_for_element(elt)
        rotated = self._apply_galois_ct_coeff(ct, elt)
        f0, f1 = self.keyswitch_polynomial_unhoisted(rotated.polys[1], key)
        return Ciphertext(
            [rotated.polys[0].add(f0, backend=self.context.backend), f1],
            ct.scale,
        )
