"""Textbook BFV (Fan-Vercauteren) on the shared lattice substrate.

Representation: ciphertext polynomials live modulo the big integer
``q = prod p_i`` as Python-int coefficient vectors in ``[0, q)``.
Ring products are computed *exactly* over the integers via an extended
RNS basis of NTT primes whose product bounds the tensored coefficients,
then CRT-composed -- the multi-precision step that pre-RNS BFV hardware
(the paper's related work) had to build million-bit multipliers for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.ckks.modarith import Modulus
from repro.ckks.ntt import NTTTables
from repro.ckks.primes import generate_ntt_primes, is_prime
from repro.ckks.rns import RnsBasis
from repro.ckks.sampling import Sampler


@dataclass(frozen=True)
class BfvParameters:
    """BFV instance description.

    ``plain_modulus`` must be a prime ``t ≡ 1 (mod 2n)`` for batching.
    ``coeff_modulus_bits`` lists the NTT-prime sizes whose product is
    the ciphertext modulus ``q``.
    """

    n: int
    plain_modulus: int
    coeff_modulus_bits: Tuple[int, ...]
    allow_insecure: bool = False

    def __post_init__(self):
        if self.n < 4 or self.n & (self.n - 1):
            raise ValueError("ring degree must be a power of two >= 4")
        if self.n < 4096 and not self.allow_insecure:
            raise ValueError("n below the security floor; pass allow_insecure")
        if (self.plain_modulus - 1) % (2 * self.n) != 0:
            raise ValueError("plain modulus must be = 1 mod 2n for batching")
        if not is_prime(self.plain_modulus):
            raise ValueError("plain modulus must be prime")


def toy_bfv_parameters(n: int = 64, q_bits: Tuple[int, ...] = (30, 30)) -> BfvParameters:
    """Small insecure BFV parameters for tests and examples."""
    t = _find_plain_modulus(n, 17)
    return BfvParameters(n, t, tuple(q_bits), allow_insecure=True)


def _find_plain_modulus(n: int, bits: int) -> int:
    candidate = (1 << bits) + 1
    candidate -= (candidate - 1) % (2 * n)
    while candidate > 2 * n:
        if is_prime(candidate):
            return candidate
        candidate -= 2 * n
    raise ValueError("no suitable plain modulus")  # pragma: no cover


class BfvContext:
    """Precomputation: q, Δ, exact-product basis, batching tables."""

    def __init__(self, params: BfvParameters):
        self.params = params
        n = params.n
        chain = generate_ntt_primes(n, params.coeff_modulus_bits[0], 1)
        # build the ciphertext-modulus basis from the requested sizes
        from repro.ckks.primes import make_modulus_chain

        self.q_basis = RnsBasis(make_modulus_chain(n, list(params.coeff_modulus_bits)))
        self.q = self.q_basis.product
        self.t = params.plain_modulus
        self.delta = self.q // self.t
        # extended basis for exact integer tensoring: product must exceed
        # n * q^2 * 4 (coefficients of a negacyclic product of two
        # centered mod-q polys).
        need_bits = 2 * self.q.bit_length() + n.bit_length() + 3
        ext_count = math.ceil(need_bits / 29) + 1
        ext_primes = generate_ntt_primes(n, 30, ext_count + len(self.q_basis))
        ext = [p for p in ext_primes if all(p != m.value for m in self.q_basis)]
        self.ext_basis = RnsBasis([Modulus(p) for p in ext[:ext_count]])
        self._ext_tables = {
            m.value: NTTTables(n, m) for m in self.ext_basis
        }
        # batching: NTT over the plaintext modulus
        self.plain_tables = NTTTables(n, Modulus(self.t, word_bits=64))
        del chain

    @property
    def n(self) -> int:
        return self.params.n

    # ------------------------------------------------------------------
    # exact polynomial arithmetic
    # ------------------------------------------------------------------
    def centered(self, poly_mod_q: Sequence[int]) -> List[int]:
        """Lift coefficients from [0, q) to (-q/2, q/2]."""
        half = self.q // 2
        return [c - self.q if c > half else c for c in poly_mod_q]

    def exact_negacyclic_multiply(
        self, a: Sequence[int], b: Sequence[int]
    ) -> List[int]:
        """Integer (not mod-q) negacyclic product of centered inputs.

        Each operand is reduced into the extended RNS basis, multiplied
        via per-prime NTTs, and CRT-composed back to centered integers.
        All ring arithmetic runs through the active
        :class:`~repro.ckks.backend.base.PolynomialBackend` -- the same
        kernels (and the same vectorization) the CKKS side uses, so the
        numpy backend accelerates BFV tensoring too.  The pipeline is
        :meth:`NTTTables.negacyclic_multiply` on one residue matrix, a
        row per extended prime: forward NTT both operands, dyadic
        multiply, inverse NTT.
        """
        from repro.ckks.backend import get_backend

        be = get_backend()
        moduli = list(self.ext_basis)
        tables = [self._ext_tables[m.value] for m in moduli]
        fa = be.ntt_forward_rows(tables, be.decompose_native(moduli, list(a)))
        fb = be.ntt_forward_rows(tables, be.decompose_native(moduli, list(b)))
        product = be.ntt_inverse_rows(tables, be.dyadic_mul_rows(moduli, fa, fb))
        return self.ext_basis.compose_centered_rows(product)

    def ring_multiply_mod_q(self, a: Sequence[int], b: Sequence[int]) -> List[int]:
        prod = self.exact_negacyclic_multiply(self.centered(a), self.centered(b))
        return [c % self.q for c in prod]

    def add_mod_q(self, a: Sequence[int], b: Sequence[int]) -> List[int]:
        q = self.q
        return [(x + y) % q for x, y in zip(a, b)]

    def sub_mod_q(self, a: Sequence[int], b: Sequence[int]) -> List[int]:
        q = self.q
        return [(x - y) % q for x, y in zip(a, b)]

    def scale_round_t_over_q(self, value: int) -> int:
        """``round(t * value / q)`` for a centered integer ``value``."""
        num = self.t * value
        return (2 * num + self.q) // (2 * self.q) if num >= 0 else -((-2 * num + self.q) // (2 * self.q))


class BfvPlaintext:
    """A plaintext polynomial with coefficients mod t."""

    def __init__(self, coeffs: List[int], t: int):
        self.coeffs = [c % t for c in coeffs]
        self.t = t


class BfvCiphertext:
    """A list of mod-q polynomials (size 2, or 3 before relinearization)."""

    def __init__(self, polys: List[List[int]]):
        if not polys:
            raise ValueError("empty ciphertext")
        self.polys = polys

    @property
    def size(self) -> int:
        return len(self.polys)


class BfvEncoder:
    """Batching encoder: n integer slots mod t via the plaintext NTT."""

    def __init__(self, context: BfvContext):
        self.context = context

    def encode(self, values: Sequence[int]) -> BfvPlaintext:
        n, t = self.context.n, self.context.t
        if len(values) > n:
            raise ValueError(f"too many values: {len(values)} > {n}")
        slots = [v % t for v in values] + [0] * (n - len(values))
        coeffs = self.context.plain_tables.inverse(slots)
        return BfvPlaintext(coeffs, t)

    def decode(self, pt: BfvPlaintext) -> List[int]:
        return self.context.plain_tables.forward(pt.coeffs)


class BfvKeyGenerator:
    """Secret/public/relinearization keys (digit decomposition base T)."""

    def __init__(self, context: BfvContext, seed: Optional[int] = None, decomp_bits: int = 16):
        self.context = context
        self.sampler = Sampler(seed)
        self.decomp_bits = decomp_bits
        self.secret = self.sampler.ternary_coeffs(context.n)

    def public_key(self) -> Tuple[List[int], List[int]]:
        ctx = self.context
        q, n = ctx.q, ctx.n
        a = self.sampler.uniform_coeffs(n, q)
        e = self.sampler.gaussian_coeffs(n)
        b = ctx.sub_mod_q(
            [(-x) % q for x in ctx.ring_multiply_mod_q(a, [s % q for s in self.secret])],
            [(-x) % q for x in e],
        )
        return b, a

    def relin_key(self) -> List[Tuple[List[int], List[int]]]:
        """Digits i encode ``T^i s^2``: rk_i = (-(a_i s) + e_i + T^i s^2, a_i)."""
        ctx = self.context
        q, n = ctx.q, ctx.n
        s = [x % q for x in self.secret]
        s2 = ctx.ring_multiply_mod_q(s, s)
        T = 1 << self.decomp_bits
        digits = []
        power = 1
        while power < q:
            a = self.sampler.uniform_coeffs(n, q)
            e = self.sampler.gaussian_coeffs(n)
            body = ctx.add_mod_q(
                ctx.sub_mod_q([0] * n, ctx.ring_multiply_mod_q(a, s)),
                [(ei + power * x) % q for ei, x in zip(e, s2)],
            )
            digits.append((body, a))
            power <<= self.decomp_bits
        return digits


class BfvEncryptor:
    def __init__(self, context: BfvContext, public_key, seed: Optional[int] = None):
        self.context = context
        self.pk = public_key
        self.sampler = Sampler(seed)

    def encrypt(self, pt: BfvPlaintext) -> BfvCiphertext:
        ctx = self.context
        n, q = ctx.n, ctx.q
        u = [x % q for x in self.sampler.ternary_coeffs(n)]
        e0 = self.sampler.gaussian_coeffs(n)
        e1 = self.sampler.gaussian_coeffs(n)
        scaled = [(ctx.delta * c) % q for c in pt.coeffs]
        c0 = ctx.add_mod_q(
            ctx.add_mod_q(ctx.ring_multiply_mod_q(self.pk[0], u), [x % q for x in e0]),
            scaled,
        )
        c1 = ctx.add_mod_q(ctx.ring_multiply_mod_q(self.pk[1], u), [x % q for x in e1])
        return BfvCiphertext([c0, c1])


class BfvDecryptor:
    def __init__(self, context: BfvContext, secret: List[int]):
        self.context = context
        self.secret = secret

    def decrypt(self, ct: BfvCiphertext) -> BfvPlaintext:
        """``round(t (c0 + c1 s + c2 s^2 + ...) / q) mod t``."""
        ctx = self.context
        q = ctx.q
        s = [x % q for x in self.secret]
        acc = list(ct.polys[0])
        s_power = None
        for poly in ct.polys[1:]:
            s_power = s if s_power is None else ctx.ring_multiply_mod_q(s_power, s)
            acc = ctx.add_mod_q(acc, ctx.ring_multiply_mod_q(poly, s_power))
        centered = ctx.centered(acc)
        coeffs = [ctx.scale_round_t_over_q(c) % ctx.t for c in centered]
        return BfvPlaintext(coeffs, ctx.t)

    def noise_budget_bits(self, ct: BfvCiphertext) -> float:
        """``log2(q / (2 |noise|))`` -- SEAL's invariant noise budget."""
        ctx = self.context
        q, t = ctx.q, ctx.t
        s = [x % q for x in self.secret]
        acc = list(ct.polys[0])
        s_power = None
        for poly in ct.polys[1:]:
            s_power = s if s_power is None else ctx.ring_multiply_mod_q(s_power, s)
            acc = ctx.add_mod_q(acc, ctx.ring_multiply_mod_q(poly, s_power))
        worst = 0
        for c in ctx.centered(acc):
            # residue of t*c mod q, centered: the invariant noise numerator
            r = (t * c) % q
            if r > q // 2:
                r -= q
            worst = max(worst, abs(r))
        if worst == 0:
            return float(q.bit_length())
        return math.log2(q) - math.log2(2 * worst)


class BfvEvaluator:
    def __init__(self, context: BfvContext):
        self.context = context

    def add(self, a: BfvCiphertext, b: BfvCiphertext) -> BfvCiphertext:
        size = max(a.size, b.size)
        polys = []
        for i in range(size):
            if i < a.size and i < b.size:
                polys.append(self.context.add_mod_q(a.polys[i], b.polys[i]))
            else:
                polys.append(list((a.polys + b.polys)[i]))
        return BfvCiphertext(polys)

    def multiply(self, a: BfvCiphertext, b: BfvCiphertext) -> BfvCiphertext:
        """BFV tensoring: exact integer products scaled by ``t/q``.

        This is the multi-precision step: products of centered mod-q
        polynomials over the integers, then coefficient-wise
        ``round(t x / q) mod q``.
        """
        ctx = self.context
        ca = [ctx.centered(p) for p in a.polys]
        cb = [ctx.centered(p) for p in b.polys]
        out = [[0] * ctx.n for _ in range(a.size + b.size - 1)]
        for i, pa in enumerate(ca):
            for j, pb in enumerate(cb):
                prod = ctx.exact_negacyclic_multiply(pa, pb)
                tgt = out[i + j]
                for k, v in enumerate(prod):
                    tgt[k] += v
        polys = [
            [ctx.scale_round_t_over_q(c) % ctx.q for c in comp] for comp in out
        ]
        return BfvCiphertext(polys)

    def relinearize(self, ct: BfvCiphertext, relin_key, decomp_bits: int = 16) -> BfvCiphertext:
        """Base-T digit decomposition of c2 against the relin key."""
        if ct.size != 3:
            raise ValueError("relinearize expects a size-3 ciphertext")
        ctx = self.context
        q, n = ctx.q, ctx.n
        c0, c1, c2 = ct.polys
        mask = (1 << decomp_bits) - 1
        digits = []
        remaining = list(c2)
        for _ in relin_key:
            digits.append([x & mask for x in remaining])
            remaining = [x >> decomp_bits for x in remaining]
        out0, out1 = list(c0), list(c1)
        for d, (kb, ka) in zip(digits, relin_key):
            out0 = ctx.add_mod_q(out0, ctx.ring_multiply_mod_q(d, kb))
            out1 = ctx.add_mod_q(out1, ctx.ring_multiply_mod_q(d, ka))
        return BfvCiphertext([out0, out1])

    def multiply_plain(self, ct: BfvCiphertext, pt: BfvPlaintext) -> BfvCiphertext:
        ctx = self.context
        p = [c % ctx.q for c in pt.coeffs]
        return BfvCiphertext([ctx.ring_multiply_mod_q(c, p) for c in ct.polys])

    def add_plain(self, ct: BfvCiphertext, pt: BfvPlaintext) -> BfvCiphertext:
        ctx = self.context
        scaled = [(ctx.delta * c) % ctx.q for c in pt.coeffs]
        polys = [ctx.add_mod_q(ct.polys[0], scaled)] + [
            list(p) for p in ct.polys[1:]
        ]
        return BfvCiphertext(polys)
