"""Key generation: secret/public keys and key-switching key material.

Implements CKKS.KeyGen, SymEnc-based public keys, and KskGen /
CKKS.RlkGen / CKKS.GlkGen from Section 3 of the paper.

A key-switching key for target key ``s'`` under secret ``s`` is, per
digit ``i`` of the RNS gadget decomposition (Section 2),

    (d0_i, d1_i) = SymEnc(P * g_i * s', s)   over the extended modulus QP,

where ``g_i = π_i [π_i^{-1}]_{p_i}`` satisfies ``g_i ≡ δ_{ij} (mod p_j)``.
In RNS form the encoded term therefore contributes ``[P]_{p_i} [s']_{p_i}``
to residue row ``i`` only, and nothing to the special-prime row -- the
structure Algorithm 7 exploits.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.ckks.backend.numpy_backend import _CHUNK_WORDS
from repro.ckks.context import CkksContext
from repro.ckks.poly import RnsPolynomial, restrict_to_moduli
from repro.ckks.sampling import (
    KEY_SEED_BYTES,
    Sampler,
    derive_key_seed,
    expand_uniform_poly,
)


class SecretKey:
    """Secret key ``s``: a ternary polynomial stored in NTT form over QP."""

    def __init__(self, poly_ntt: RnsPolynomial):
        self.poly = poly_ntt

    def restricted(self, moduli) -> RnsPolynomial:
        return restrict_to_moduli(self.poly, moduli)


class PublicKey:
    """Public key ``(b, a) = SymEnc(0, s)`` over the data basis, NTT form.

    ``seed`` (when set) is the 32-byte expansion seed ``a`` was derived
    from (:func:`repro.ckks.sampling.expand_uniform_poly`, index 0), so
    the key can travel as seed + ``b`` only.
    """

    def __init__(
        self, b: RnsPolynomial, a: RnsPolynomial, seed: Optional[bytes] = None
    ):
        self.b = b
        self.a = a
        self.seed = seed


class KswitchKey:
    """Key-switching key: one ``(d0_i, d1_i)`` pair per gadget digit.

    Every pair lives over the full key basis (all data primes plus the
    special prime) in NTT form; a level uses a prefix of the digits and
    its own rows of each (:meth:`level_views`).

    ``seed`` (when set) is the key's 32-byte expansion seed: digit
    ``i``'s uniform column ``d1_i`` equals
    ``expand_uniform_poly(seed, i, n, key_moduli)``, so wire format v2
    can ship the seed plus the ``d0`` columns only (half the blob) and
    the receiver regenerates the ``d1`` columns bit-identically.
    """

    def __init__(
        self,
        digits: List[Tuple[RnsPolynomial, RnsPolynomial]],
        seed: Optional[bytes] = None,
    ):
        if not digits:
            raise ValueError("key-switching key needs at least one digit")
        if seed is not None and len(seed) != KEY_SEED_BYTES:
            raise ValueError(
                f"expansion seed must be {KEY_SEED_BYTES} bytes, "
                f"got {len(seed)}"
            )
        self.digits = digits
        self.seed = seed
        #: per backend representation the key stacked once over its full
        #: basis (:meth:`stacked`); keys are immutable after generation so
        #: entries never need invalidation.
        self._stacked: Dict[object, list] = {}

    @property
    def digit_count(self) -> int:
        return len(self.digits)

    def digit(self, i: int) -> Tuple[RnsPolynomial, RnsPolynomial]:
        return self.digits[i]

    def level_views(self, ext_moduli, stacks, rows_per_digit: int) -> list:
        """Per modulus of a level's extended basis (its data primes plus
        the special prime) the rows that level uses of ``stacks``, one
        digit-major stack of ``rows_per_digit`` rows a digit per key
        modulus: a lower level drops the *last* digits, so they are the
        contiguous prefix views."""
        level = len(ext_moduli) - 1
        if not 1 <= level <= self.digit_count:
            raise ValueError(
                f"basis implies {level} digits; key has {self.digit_count}"
            )
        index = {m.value: j for j, m in enumerate(self.digits[0][0].moduli)}
        return [stacks[index[m.value]][: level * rows_per_digit] for m in ext_moduli]

    def stacked(self, ext_moduli, backend) -> list:
        """The key as it is, as a key-switch operand: per modulus of
        ``ext_moduli`` one backend-native ``(L·2, n)`` stack, row ``i·2 +
        c`` digit ``i`` of column ``c`` -- :meth:`GaloisKeySet.stacked`'s
        ``R = 1`` layout under the identity.  Stacked once per backend
        representation over the key's full basis; every level is served
        :meth:`level_views` of that copy."""
        token = backend.cache_token
        if token not in self._stacked:
            # native row views: stacking is addressing, not boxing
            self._stacked[token] = [
                backend.native_stack(
                    [pair[c].row(j) for pair in self.digits for c in (0, 1)]
                )
                for j in range(len(self.digits[0][0].moduli))
            ]
        return self.level_views(ext_moduli, self._stacked[token], 2)


class RelinKey(KswitchKey):
    """Relinearization key: ``KskGen(s^2, s)``."""


class GaloisKey(KswitchKey):
    """Rotation key for one Galois element: ``KskGen(σ_g(s), s)``."""

    def __init__(self, galois_elt: int, digits, seed: Optional[bytes] = None):
        super().__init__(digits, seed)
        self.galois_elt = galois_elt


class GaloisKeySet:
    """A bundle of Galois keys addressed by Galois element.

    Rotations run data-stationary (HEAX Figure 5: the decomposed input
    stays, the keys stream past it), so the one cached stacked form of
    these keys, :meth:`stacked`, is already under ``σ_g⁻¹``:
    ``Σ_i σ(D_i)⊙K_i = σ(Σ_i D_i⊙σ⁻¹(K_i))`` slot for slot.
    """

    def __init__(self, keys: Dict[int, GaloisKey]):
        self._keys = dict(keys)
        #: (backend representation, element tuple) -> (gather tables,
        #: full-basis operand per key modulus), least recently used first
        self._stacked: "OrderedDict[Tuple, Tuple]" = OrderedDict()

    def key_for_element(self, galois_elt: int) -> GaloisKey:
        try:
            return self._keys[galois_elt]
        except KeyError:
            raise KeyError(
                f"no Galois key for element {galois_elt}; generate it first"
            ) from None

    def __contains__(self, galois_elt: int) -> bool:
        return galois_elt in self._keys

    def elements(self) -> List[int]:
        return sorted(self._keys)

    def stacked(self, galois_elts, ext_moduli, context: CkksContext) -> Tuple:
        """The key operand of a sweep of ``R`` rotations -> ``(tables, columns)``.

        ``columns[j]``, for modulus ``j`` of the level's extended basis,
        is one backend-native ``(L·2R, n)`` stack: row ``i·2R + c·R + d``
        is digit ``i``, column ``c`` of rotation ``d``'s key under
        ``σ_d⁻¹`` -- the block operand that one ``dyadic_stack_reduce``
        against the *unpermuted* ``(L, n)`` digits turns into all ``2R``
        accumulators.  ``tables``, ``(2R + 1, n)``, is the gather matrix
        ``[σ_0 .. σ_{R-1}, σ_0 .. σ_{R-1}, id]`` that finishes them: rows
        ``[:2R]`` line up with the accumulators, ``[R:]`` with ``c0``
        under every rotation plus an unrotated term.

        Built from the key polynomials on first use, once per (backend
        representation, element tuple) over the keys' full basis; every
        level is served prefix views (:meth:`KswitchKey.level_views`).
        Least recently used operands go once the stacked rows exceed
        twice the set's polynomial rows (a key used alone and in one
        sweep keeps both forms).
        """
        elts = tuple(galois_elts)
        keys = [self.key_for_element(elt) for elt in elts]
        cache = self._stacked
        cache_key = (context.backend.cache_token, elts)
        if cache_key not in cache:
            cache[cache_key] = self._stack(keys, context)
            budget = 2 * sum(
                2 * key.digit_count * len(key.digits[0][0].moduli)
                for key in self._keys.values()
            )
            while len(cache) > 1 and budget < sum(
                len(column) for _, columns in cache.values() for column in columns
            ):
                cache.popitem(last=False)
        cache.move_to_end(cache_key)
        tables, columns = cache[cache_key]
        return tables, keys[0].level_views(ext_moduli, columns, 2 * len(elts))

    @staticmethod
    def _stack(keys: List[GaloisKey], context: CkksContext) -> Tuple:
        be = context.backend
        digits, moduli = keys[0].digit_count, keys[0].digits[0][0].moduli
        forward = [context.galois_table_ntt(key.galois_elt) for key in keys]
        tables = np.stack(forward + forward + [context.galois_table_ntt(1)])
        # row i·2R + c·R + d of every modulus goes under σ_d⁻¹
        inverse = np.tile(
            [
                context.galois_table_ntt(pow(key.galois_elt, -1, 2 * context.n))
                for key in keys
            ],
            (2 * digits, 1),
        )
        columns = [
            # native row views in, one gather per modulus out: each key
            # row is read where its polynomial holds it
            be.permute_ntt_stack(
                [
                    key.digits[i][c].row(j)
                    for i in range(digits)
                    for c in (0, 1)
                    for key in keys
                ],
                inverse,
            )
            for j in range(len(moduli))
        ]
        return tables, columns


class KeyGenerator:
    """Generates all key material for a context (CKKS.KeyGen et al.).

    ``expansion_seed`` (32 bytes) opts into seed-expandable keys: the
    uniform ``a`` columns of the public key and every key-switching key
    are expanded deterministically from per-key seeds derived from it
    (:func:`repro.ckks.sampling.derive_key_seed`), and generated keys
    carry their seed so wire format v2 ships 32 bytes in place of every
    ``a`` column.  Secret, error, and ternary draws still come from
    ``sampler`` -- the seed only replaces *public* randomness.  The
    default (``None``) keeps the legacy sampling order bit-identical
    (the frozen golden vectors depend on it).

    Key-switching keys come from one routine, :meth:`_kswitch_keys`, in
    batches that draw what one key at a time would (:meth:`galois_keys`).
    """

    def __init__(
        self,
        context: CkksContext,
        seed: Optional[int] = None,
        expansion_seed: Optional[bytes] = None,
    ):
        self.context = context
        self.sampler = Sampler(seed)
        if expansion_seed is not None and len(expansion_seed) != KEY_SEED_BYTES:
            raise ValueError(
                f"expansion_seed must be {KEY_SEED_BYTES} bytes, "
                f"got {len(expansion_seed)}"
            )
        self.expansion_seed = expansion_seed
        self._secret = self._generate_secret()
        # -s: SymEnc(0, s)'s b = e + a·(-s) is one multiply-accumulate
        self._negated = self._secret.poly.negate(backend=context.backend)

    # ------------------------------------------------------------------
    def _generate_secret(self) -> SecretKey:
        ctx = self.context
        s = self.sampler.ternary_poly(ctx.n, ctx.key_basis.moduli)
        return SecretKey(ctx.to_ntt(s))

    @property
    def secret_key(self) -> SecretKey:
        return self._secret

    def _uniform(self, moduli, key_seed: Optional[bytes], index: int) -> RnsPolynomial:
        """``SymEnc(0, s)``'s ``a`` over ``moduli``, in NTT form: from the
        seed expander at ``index`` when ``key_seed`` is set, else the sampler."""
        if key_seed is not None:
            return expand_uniform_poly(key_seed, index, self.context.n, moduli)
        return self.sampler.uniform_residues(self.context.n, moduli)

    def _key_seed(self, tag: bytes) -> Optional[bytes]:
        if self.expansion_seed is None:
            return None
        return derive_key_seed(self.expansion_seed, tag)

    def public_key(self) -> PublicKey:
        """Public key ``SymEnc(0, s)`` over the data basis (no special prime)."""
        ctx, be = self.context, self.context.backend
        moduli = ctx.data_basis.moduli
        key_seed = self._key_seed(b"public")
        a = self._uniform(moduli, key_seed, 0)
        e = ctx.to_ntt(self.sampler.gaussian_poly(ctx.n, moduli))
        neg_s = restrict_to_moduli(self._negated, moduli, be).rows
        b = be.dyadic_mac_rows(moduli, e.native_rows(be), a.native_rows(be), neg_s)
        return PublicKey(RnsPolynomial(ctx.n, moduli, b, is_ntt=True), a, seed=key_seed)

    # ------------------------------------------------------------------
    # key switching keys
    # ------------------------------------------------------------------
    def _kswitch_keys(self, targets: List[RnsPolynomial], tags: List[bytes]) -> list:
        """KskGen of a batch: per target, ``P * g_i * target`` encrypted
        under ``s`` per digit ``i`` -> one ``(digits, seed)`` per target.
        The draws keep one key's order (per key, per digit: ``a``, then the
        error -- always the sampler's, never derivable from wire bytes); the
        ``B·k`` errors are one signed block, transformed and multiplied by
        ``-s`` once per key modulus."""
        ctx, be = self.context, self.context.backend
        n, k, moduli = ctx.n, ctx.k, ctx.key_basis.moduli
        seeds = [self._key_seed(tag) for tag in tags]
        uniforms, errors = [], np.empty((len(targets) * k, n), dtype=np.int64)
        for t, key_seed in enumerate(seeds):
            for i in range(k):
                uniforms.append(self._uniform(moduli, key_seed, i))
                errors[t * k + i] = self.sampler._gaussian(n)
        rows, special = len(uniforms), ctx.special_modulus.value
        # each error lifted into its own (L, n) matrix, then overwritten by
        # its digit's ``b`` one key modulus at a time
        b = [be.decompose_native(moduli, e) for e in errors]
        for j, m in enumerate(moduli):
            stack = be.dyadic_mac_rows(
                [m] * rows,
                be.ntt_forward_stack(ctx.tables(m), [e[j] for e in b]),
                [u.native_rows(be)[j] for u in uniforms],
                [self._negated.row(j)] * rows,
            )
            for r in range(rows):
                be.set_row(b[r], j, stack[r])
            if j < k:  # [P]_{p_j} * [target]_{p_j} goes to digit j only
                picked = range(j, rows, k)
                term = be.scalar_mul_stack(m, [t.row(j) for t in targets], special % m.value)
                summed = be.add_rows([m] * len(targets), be.select_rows(stack, picked), term)
                for r, row in zip(picked, summed):
                    be.set_row(b[r], j, row)
        digits = [(RnsPolynomial(n, moduli, h, is_ntt=True), u) for h, u in zip(b, uniforms)]
        return [(digits[t * k : (t + 1) * k], seed) for t, seed in enumerate(seeds)]

    def relin_key(self) -> RelinKey:
        """``CKKS.RlkGen``: key switching key for ``s^2``."""
        s = self._secret.poly
        s_squared = s.dyadic_multiply(s, backend=self.context.backend)
        ((digits, key_seed),) = self._kswitch_keys([s_squared], [b"relin"])
        return RelinKey(digits, key_seed)

    def galois_keys(self, steps: Iterable[int], conjugation: bool = False) -> GaloisKeySet:
        """``CKKS.GlkGen`` for the given slot steps (and optionally the
        conjugation element): each key switches ``σ_g(s) -> s``, since a
        rotated ciphertext decrypts under ``σ_g(s)``.  A set is made in
        batches of the most whole keys whose errors fit one transform
        chunk: 4 at Set-A, 1 at Set-B and Set-C (a whole set at once costs
        resident memory and saves no transform time)."""
        ctx = self.context
        elts = list(dict.fromkeys(ctx.galois_element_for_step(step) for step in steps))
        if conjugation:
            elts.append(ctx.conjugation_element)
        batch = max(1, _CHUNK_WORDS // ctx.n // ctx.k)
        keys: Dict[int, GaloisKey] = {}
        for lo in range(0, len(elts), batch):
            chunk = elts[lo : lo + batch]
            made = self._kswitch_keys(
                [ctx.apply_galois_ntt(self._secret.poly, elt) for elt in chunk],
                [b"galois:%d" % elt for elt in chunk],
            )
            keys.update((elt, GaloisKey(elt, *key)) for elt, key in zip(chunk, made))
        return GaloisKeySet(keys)
