"""Decryption: ``CKKS.Dec(ct, sk) = <ct, (1, s, s^2, ...)> mod q_l``.

Handles ciphertexts of any size (un-relinearized products included) by
accumulating successive powers of ``s`` in the NTT domain.  The dyadic
products and additions dispatch to the active polynomial backend via
:class:`repro.ckks.poly.RnsPolynomial`, so decryption output is
bit-identical whichever backend computed it.
"""

from __future__ import annotations

from repro.ckks.context import CkksContext
from repro.ckks.keys import SecretKey
from repro.ckks.poly import Ciphertext, Plaintext


class Decryptor:
    """Decrypts ciphertexts with the secret key."""

    def __init__(self, context: CkksContext, secret_key: SecretKey):
        self.context = context
        self.secret_key = secret_key

    def decrypt(self, ciphertext: Ciphertext) -> Plaintext:
        """Return the plaintext ``c0 + c1 s + c2 s^2 + ...`` (NTT form)."""
        if not ciphertext.is_ntt:
            raise ValueError("ciphertexts are kept in NTT form")
        be = self.context.backend
        s = self.secret_key.restricted(ciphertext.moduli)
        acc = ciphertext.polys[0].clone(backend=be)
        s_power = None
        for poly in ciphertext.polys[1:]:
            s_power = s if s_power is None else s_power.dyadic_multiply(s, backend=be)
            acc = acc.add(poly.dyadic_multiply(s_power, backend=be), backend=be)
        return Plaintext(acc, ciphertext.scale)
