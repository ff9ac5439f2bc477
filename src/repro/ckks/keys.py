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

from typing import Dict, Iterable, List, Optional, Tuple

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
        #: per-(backend, basis) stacked key columns; keys are immutable
        #: after generation so entries never need invalidation.
        self._stacked_cache: Dict[Tuple, Tuple[list, list]] = {}

    @property
    def digit_count(self) -> int:
        return len(self.digits)

    def digit(self, i: int) -> Tuple[RnsPolynomial, RnsPolynomial]:
        return self.digits[i]

    def stacked_columns(self, ext_moduli, backend) -> Tuple[list, list]:
        """Both key columns as per-modulus digit stacks, backend-native.

        For the extended basis ``ext_moduli`` (the level's data primes
        plus the special prime, so ``L = len(ext_moduli) - 1`` gadget
        digits are in play) returns ``(col0, col1)`` where ``col_c[j]``
        stacks digit rows ``d_c_0[j] .. d_c_{L-1}[j]`` under modulus
        ``j`` as one ``(L, n)`` row-stack.  This is the layout the
        key-switching fast path MACs against in a single
        ``dyadic_stack_reduce`` per target modulus -- and it is cached
        per (backend, basis), so the numpy backend's uint64 lift of the
        whole key happens once, not per operation.
        """
        level = len(ext_moduli) - 1
        if not 1 <= level <= self.digit_count:
            raise ValueError(
                f"basis implies {level} digits; key has {self.digit_count}"
            )
        cache_key = (
            # the token names the backend's *native representation*, so
            # e.g. two NumpyBackend instances share entries while a
            # wrapper around a different inner backend does not
            getattr(backend, "cache_token", id(backend)),
            tuple(m.value for m in ext_moduli),
        )
        cached = self._stacked_cache.get(cache_key)
        if cached is not None:
            return cached
        col0, col1 = [], []
        for m in ext_moduli:
            rows0, rows1 = [], []
            for i in range(level):
                d0, d1 = self.digits[i]
                row_index = {mm.value: r for r, mm in enumerate(d0.moduli)}
                # native row views: stacking is addressing, not boxing
                rows0.append(d0.row(row_index[m.value]))
                rows1.append(d1.row(row_index[m.value]))
            col0.append(backend.native_stack(rows0))
            col1.append(backend.native_stack(rows1))
        entry = (col0, col1)
        self._stacked_cache[cache_key] = entry
        return entry


class RelinKey(KswitchKey):
    """Relinearization key: ``KskGen(s^2, s)``."""


class GaloisKey(KswitchKey):
    """Rotation key for one Galois element: ``KskGen(σ_g(s), s)``."""

    def __init__(self, galois_elt: int, digits, seed: Optional[bytes] = None):
        super().__init__(digits, seed)
        self.galois_elt = galois_elt


class GaloisKeySet:
    """A bundle of Galois keys addressed by Galois element."""

    def __init__(self, keys: Dict[int, GaloisKey]):
        self._keys = dict(keys)

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
