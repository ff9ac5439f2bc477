"""Encryption (client-side primitive; Section 3 preliminaries).

Both symmetric (``SymEnc``) and public-key encryption are provided.  As
noted in DESIGN.md, encryption is performed directly modulo the data
modulus ``q`` (the standard RLWE construction) rather than via the
paper's special-modulus-divide variant: encryption is a client-side
operation outside the accelerator's scope, and the resulting ciphertext
distribution and noise are the standard ones either way.

All polynomial arithmetic here (NTT transforms via the context, dyadic
products via :class:`repro.ckks.poly.RnsPolynomial`) routes through the
active polynomial backend; only the randomness sampling stays scalar, so
ciphertexts are bit-identical across backends for a fixed seed -- the
property the backend equivalence tests pin down.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.ckks.context import CkksContext
from repro.ckks.keys import PublicKey, SecretKey
from repro.ckks.poly import Ciphertext, Plaintext, restrict_to_moduli
from repro.ckks.sampling import Sampler


class Encryptor:
    """Encrypts plaintexts under a public or secret key."""

    def __init__(
        self,
        context: CkksContext,
        key: Union[PublicKey, SecretKey],
        seed: Optional[int] = None,
    ):
        self.context = context
        self.sampler = Sampler(seed)
        if isinstance(key, PublicKey):
            self._public_key: Optional[PublicKey] = key
            self._secret_key: Optional[SecretKey] = None
        elif isinstance(key, SecretKey):
            self._public_key = None
            self._secret_key = key
        else:
            raise TypeError("key must be a PublicKey or SecretKey")

    def encrypt(self, plaintext: Plaintext) -> Ciphertext:
        """Encrypt a (NTT-form) plaintext into a size-2 ciphertext."""
        if self._public_key is not None:
            return self._encrypt_public(plaintext)
        return self._encrypt_symmetric(plaintext)

    # ------------------------------------------------------------------
    def _plain_basis(self, plaintext: Plaintext):
        ctx = self.context
        poly = plaintext.poly
        if not poly.is_ntt:
            poly = ctx.to_ntt(poly)
        return poly, poly.moduli

    def _encrypt_public(self, plaintext: Plaintext) -> Ciphertext:
        """``ct = u * pk + (e0 + m, e1)`` with ternary ``u``."""
        ctx = self.context
        m, moduli = self._plain_basis(plaintext)
        pk_b = restrict_to_moduli(self._public_key.b, moduli)
        pk_a = restrict_to_moduli(self._public_key.a, moduli)
        be = ctx.backend
        u, e0, e1 = ctx.to_ntt_all([
            self.sampler.ternary_poly(ctx.n, moduli),
            self.sampler.gaussian_poly(ctx.n, moduli),
            self.sampler.gaussian_poly(ctx.n, moduli),
        ])
        c0 = pk_b.dyadic_multiply(u, backend=be).add(e0, backend=be).add(m, backend=be)
        c1 = pk_a.dyadic_multiply(u, backend=be).add(e1, backend=be)
        return Ciphertext([c0, c1], plaintext.scale)

    def _encrypt_symmetric(self, plaintext: Plaintext) -> Ciphertext:
        """``SymEnc(m, s)``: sample ``a``, return ``(-(a s) + e + m, a)``."""
        ctx = self.context
        m, moduli = self._plain_basis(plaintext)
        be = ctx.backend
        a = self.sampler.uniform_residues(ctx.n, moduli)
        e = ctx.to_ntt(self.sampler.gaussian_poly(ctx.n, moduli))
        s = self._secret_key.restricted(moduli)
        c0 = (
            a.dyadic_multiply(s, backend=be)
            .negate(backend=be)
            .add(e, backend=be)
            .add(m, backend=be)
        )
        return Ciphertext([c0, a], plaintext.scale)
