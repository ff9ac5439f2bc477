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
    special prime) in NTT form; Algorithm 7 restricts rows to the current
    level on the fly.

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
        #: per backend representation the two columns stacked once over
        #: the key's full basis; keys are immutable after generation so
        #: entries never need invalidation.
        self._stacked_full: Dict[object, Tuple[list, list]] = {}
        #: per (backend, level basis) the prefix views of it handed out
        self._stacked_cache: Dict[Tuple, Tuple[list, list]] = {}

    @property
    def digit_count(self) -> int:
        return len(self.digits)

    def digit(self, i: int) -> Tuple[RnsPolynomial, RnsPolynomial]:
        return self.digits[i]

    def level_views(self, ext_moduli, stacks, rows_per_digit: int = 1) -> list:
        """Per modulus of a level's extended basis (its data primes plus
        the special prime) the rows that level uses of ``stacks``, one
        digit-major stack per key modulus: a lower level drops the *last*
        digits, so they are the contiguous prefix views."""
        level = len(ext_moduli) - 1
        if not 1 <= level <= self.digit_count:
            raise ValueError(
                f"basis implies {level} digits; key has {self.digit_count}"
            )
        index = {m.value: j for j, m in enumerate(self.digits[0][0].moduli)}
        return [stacks[index[m.value]][: level * rows_per_digit] for m in ext_moduli]

    def stacked_columns(self, ext_moduli, backend) -> Tuple[list, list]:
        """Both key columns as per-modulus digit stacks, backend-native.

        Returns ``(col0, col1)`` where ``col_c[j]`` stacks digit rows
        ``d_c_0[j] .. d_c_{L-1}[j]`` under modulus ``j`` of ``ext_moduli``
        as one ``(L, n)`` row-stack -- the layout the key-switching fast
        path MACs against in a single ``dyadic_stack_reduce`` per target
        modulus.  The key is stacked **once** per backend representation,
        over its full basis (the numpy backend's uint64 lift of the whole
        key happens once, not per operation or per level); every level
        is served :meth:`level_views` of that one copy.
        """
        # the token names the backend's *native representation*, so
        # e.g. two NumpyBackend instances share entries while a
        # wrapper around a different inner backend does not
        token = getattr(backend, "cache_token", id(backend))
        cache_key = (token, tuple(m.value for m in ext_moduli))
        if cache_key not in self._stacked_cache:
            if token not in self._stacked_full:
                # native row views: stacking is addressing, not boxing
                self._stacked_full[token] = tuple(
                    [
                        backend.native_stack([pair[c].row(j) for pair in self.digits])
                        for j in range(len(self.digits[0][0].moduli))
                    ]
                    for c in (0, 1)
                )
            self._stacked_cache[cache_key] = tuple(
                self.level_views(ext_moduli, column)
                for column in self._stacked_full[token]
            )
        return self._stacked_cache[cache_key]


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

    # ------------------------------------------------------------------
    def _generate_secret(self) -> SecretKey:
        ctx = self.context
        s = self.sampler.ternary_poly(ctx.n, ctx.key_basis.moduli)
        return SecretKey(ctx.to_ntt(s))

    @property
    def secret_key(self) -> SecretKey:
        return self._secret

    def _symmetric_zero(
        self, moduli, expand: Optional[Tuple[bytes, int]] = None
    ) -> Tuple[RnsPolynomial, RnsPolynomial]:
        """``SymEnc(0, s)`` over the given basis: ``(-(a s) + e, a)``.

        ``expand=(key_seed, index)`` sources ``a`` from the seed
        expander instead of the sampler (the error draw still comes
        from the sampler -- error randomness must never be derivable
        from bytes that go on the wire).
        """
        ctx = self.context
        be = ctx.backend
        if expand is not None:
            a = expand_uniform_poly(expand[0], expand[1], ctx.n, moduli)
        else:
            a = self.sampler.uniform_residues(ctx.n, moduli)
        e = ctx.to_ntt(self.sampler.gaussian_poly(ctx.n, moduli))
        s = self._secret.restricted(moduli)
        b = a.dyadic_multiply(s, backend=be).negate(backend=be).add(e, backend=be)
        return b, a

    def _key_seed(self, tag: bytes) -> Optional[bytes]:
        if self.expansion_seed is None:
            return None
        return derive_key_seed(self.expansion_seed, tag)

    def public_key(self) -> PublicKey:
        """Public key over the data basis (no special prime)."""
        key_seed = self._key_seed(b"public")
        b, a = self._symmetric_zero(
            self.context.data_basis.moduli,
            expand=(key_seed, 0) if key_seed is not None else None,
        )
        return PublicKey(b, a, seed=key_seed)

    # ------------------------------------------------------------------
    # key switching keys
    # ------------------------------------------------------------------
    def _kswitch_key(
        self, target_ntt: RnsPolynomial, tag: bytes
    ) -> Tuple[List[Tuple[RnsPolynomial, RnsPolynomial]], Optional[bytes]]:
        """KskGen: encrypt ``P * g_i * target`` under ``s`` per digit ``i``."""
        ctx = self.context
        be = ctx.backend
        key_moduli = ctx.key_basis.moduli
        special = ctx.special_modulus
        key_seed = self._key_seed(tag)
        digits = []
        for i in range(ctx.k):
            b, a = self._symmetric_zero(
                key_moduli,
                expand=(key_seed, i) if key_seed is not None else None,
            )
            # Add [P]_{p_i} * [target]_{p_i} to residue row i of b only.
            mod_i = key_moduli[i]
            term = be.scalar_mul_stack(
                mod_i, be.select_rows(target_ntt.rows, [i]), special.value % mod_i.value
            )
            row = be.add_rows([mod_i], be.select_rows(b.rows, [i]), term)
            b.set_row(i, row[0], backend=be)
            digits.append((b, a))
        return digits, key_seed

    def relin_key(self) -> RelinKey:
        """``CKKS.RlkGen``: key switching key for ``s^2``."""
        s = self._secret.poly
        s_squared = s.dyadic_multiply(s, backend=self.context.backend)
        return RelinKey(*self._kswitch_key(s_squared, b"relin"))

    def galois_key(self, galois_elt: int) -> GaloisKey:
        """``CKKS.GlkGen`` for one automorphism ``X -> X^g``.

        Rotation applies ``σ_g`` to the ciphertext, after which it
        decrypts under ``σ_g(s)``; the key switches ``σ_g(s) -> s``.
        """
        s_rotated = self.context.apply_galois_ntt(self._secret.poly, galois_elt)
        digits, key_seed = self._kswitch_key(
            s_rotated, b"galois:%d" % galois_elt
        )
        return GaloisKey(galois_elt, digits, key_seed)

    def galois_keys(self, steps: Iterable[int], conjugation: bool = False) -> GaloisKeySet:
        """Generate rotation keys for the given slot steps (and optionally
        the conjugation key)."""
        ctx = self.context
        keys: Dict[int, GaloisKey] = {}
        for step in steps:
            elt = ctx.galois_element_for_step(step)
            if elt not in keys:
                keys[elt] = self.galois_key(elt)
        if conjugation:
            elt = ctx.conjugation_element
            keys[elt] = self.galois_key(elt)
        return GaloisKeySet(keys)
