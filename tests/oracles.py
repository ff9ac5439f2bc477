"""Slow, obviously correct forms of what ``src/`` runs fast, and test traffic.

Nothing in the library, the benchmarks or the examples calls these: each
is a scalar or big-int oracle the tests hold a kernel to, or a request
pattern only the tests send (``tests/lint/test_reachability.py`` keeps
such code out of ``src/``).  Importable as ``oracles`` from any test
(``tests/`` is on the path under pytest) and from the scripts under
``tests/`` that put it there.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from repro.ckks.ntt import bit_reversal
from repro.ckks.poly import RnsPolynomial
from repro.ckks.primes import primitive_root
from repro.ckks.rns import RnsBasis
from repro.ckks.sampling import Sampler, derive_key_seed, expand_uniform_poly
from repro.serving import framing


def pack_row_bits(row, bound: int, width: int) -> bytes:
    """Wire v2's row packing: MSB-first bit concatenation via one big-int
    accumulator, zero-padded to a whole byte."""
    acc = 0
    for v in row:
        v = int(v)
        if not 0 <= v < bound:
            raise ValueError(
                f"residue {v} outside [0, {bound}); reduce rows before packing"
            )
        acc = (acc << width) | v
    total_bits = len(row) * width
    pad = (-total_bits) % 8
    return (acc << pad).to_bytes((total_bits + pad) // 8, "big")


def unpack_row_bits(data, n: int, bound: int, width: int) -> List[int]:
    """The inverse of :func:`pack_row_bits`, refusing nonzero padding and
    residues at or above ``bound``."""
    acc = int.from_bytes(data, "big")
    pad = len(data) * 8 - n * width
    if acc & ((1 << pad) - 1):
        raise ValueError("nonzero padding bits in packed residue row")
    acc >>= pad
    mask = (1 << width) - 1
    out = [0] * n
    for i in range(n - 1, -1, -1):
        v = acc & mask
        if v >= bound:
            raise ValueError(
                f"packed residue {v} outside [0, {bound}); corrupt row"
            )
        out[i] = v
        acc >>= width
    return out


def bit_reverse(value: int, bits: int) -> int:
    """Reverse the lowest ``bits`` bits of ``value``."""
    return int(bit_reversal(1 << bits)[value & ((1 << bits) - 1)])


def bit_reverse_permutation(values: Sequence[int]) -> List[int]:
    """``values`` permuted by bit-reversal of indices."""
    return [values[i] for i in bit_reversal(len(values)).tolist()]


def negacyclic_multiply(tables, a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Multiply two standard-order polynomials in ``R_p`` through the
    scalar NTT of ``tables`` (an :class:`repro.ckks.ntt.NTTTables`)."""
    mod = tables.modulus
    prod = [mod.mul(x, y) for x, y in zip(tables.forward(a), tables.forward(b))]
    return tables.inverse(prod)


def negacyclic_convolution_reference(
    a: Sequence[int], b: Sequence[int], p: int
) -> List[int]:
    """Schoolbook negacyclic convolution (Section 3.1 formula), O(n^2).

    ``c_j = sum_{i<=j} a_i b_{j-i} - sum_{i>j} a_i b_{j-i+n}  (mod p)``.
    """
    n = len(a)
    if len(b) != n:
        raise ValueError("length mismatch")
    c = [0] * n
    for i in range(n):
        ai = a[i]
        if ai == 0:
            continue
        for j in range(n):
            k = i + j
            term = ai * b[j]
            if k < n:
                c[k] = (c[k] + term) % p
            else:
                c[k - n] = (c[k - n] - term) % p
    return [x % p for x in c]


def primitive_2nth_root(p: int, n: int) -> int:
    """The least primitive ``2n``-th root mod ``p``: from ``ψ0 = g^((p-1)/2n)``
    step through its odd powers one multiplication by ``ψ0^2`` at a time."""
    psi = pow(primitive_root(p), (p - 1) // (2 * n), p)
    best = current = psi
    step = psi * psi % p
    for _ in range(n - 1):
        current = current * step % p
        best = min(best, current)
    return best


def ntt_tables(n: int, p: int, psi: int) -> Tuple[List[int], List[int]]:
    """``root_values`` and ``inv_root_values_div2`` of ``NTTTables`` by the
    scalar recurrences: ``ψ^i`` and ``2^-1 ψ^-i`` one product at a time,
    then permuted to bit-reversed order."""
    psi_inv = pow(psi, -1, p)
    powers = [1] * n
    inv_powers = [pow(2, -1, p)] * n  # from 2^-1: the halving comes free
    for i in range(1, n):
        powers[i] = powers[i - 1] * psi % p
        inv_powers[i] = inv_powers[i - 1] * psi_inv % p
    return bit_reverse_permutation(powers), bit_reverse_permutation(inv_powers)


def slot_map(n: int) -> List[int]:
    """The encoder's slot ``t`` -> DFT bin ``(3^t mod 2n - 1) / 2``, one
    multiplication by 3 at a time."""
    bins, e = [], 1
    for _ in range(n // 2):
        bins.append((e - 1) // 2)
        e = e * 3 % (2 * n)
    return bins


def galois_map(n: int, galois_elt: int) -> List[Tuple[int, bool]]:
    """``m(X) -> m(X^g)`` on coefficients: coefficient ``i`` goes to
    ``i g mod 2n``, negated when that wraps past ``n`` (``X^n = -1``)."""
    out = []
    for i in range(n):
        e = i * galois_elt % (2 * n)
        out.append((e, False) if e < n else (e - n, True))
    return out


def apply_galois(context, poly: RnsPolynomial, galois_elt: int) -> RnsPolynomial:
    """The coefficient-domain automorphism the NTT-domain gather
    (``CkksContext.apply_galois_ntt``) must agree with."""
    if poly.is_ntt:
        raise ValueError("apply Galois in coefficient form")
    be = context.backend
    rows = be.galois_rows(
        poly.moduli, poly.native_rows(be), galois_map(poly.n, galois_elt)
    )
    return RnsPolynomial(poly.n, poly.moduli, rows, is_ntt=False)


def rows_for(poly: RnsPolynomial, moduli) -> List:
    """The residue rows of a full-basis key poly for these moduli."""
    index = {m.value: i for i, m in enumerate(poly.moduli)}
    return [poly.rows[index[m.value]] for m in moduli]


def gadget_vector(basis: RnsBasis) -> List[int]:
    """Section 2's gadget ``g_i = π_i [π_i^{-1}]_{p_i}`` over ``basis``:
    ``<g, g^{-1}(a)> ≡ a (mod q)``, and ``g_i ≡ 1 (mod p_i)``,
    ``g_i ≡ 0 (mod p_j)`` for ``j != i`` (what Algorithm 7 exploits)."""
    return [
        basis.punctured_product(i) * basis.punctured_inverse(i)
        for i in range(len(basis.moduli))
    ]


def gadget_decompose(basis: RnsBasis, residues: Sequence[int]) -> List[int]:
    """``g^{-1}``: the residue vector itself (full-RNS decomposition)."""
    if len(residues) != len(basis.moduli):
        raise ValueError("residue count does not match basis size")
    return [r % m.value for r, m in zip(residues, basis.moduli)]


def noise_budget_bits(decryptor, ciphertext, reference) -> float:
    """``log2(q_l) - log2(max |error|)``, the error being the decryption of
    ``ciphertext`` minus the plaintext ``reference``: a crude measure of
    the precision left, for noise-growth tests."""
    ctx = decryptor.context
    be = ctx.backend
    diff = decryptor.decrypt(ciphertext).poly.add(reference.poly.negate(backend=be), backend=be)
    coeff = ctx.from_ntt(diff) if diff.is_ntt else diff
    basis = RnsBasis(coeff.moduli)
    max_err = max(abs(v) for v in basis.compose_centered_rows(coeff.rows))
    return math.log2(basis.product) - (math.log2(max_err) if max_err else 0.0)


def rotation_sweep_bytes(client, values: Sequence[float], steps: Sequence[int]) -> List[bytes]:
    """One encrypted vector, one rotate request per step, from ``client``
    (a :class:`repro.serving.traffic.SyntheticClient`).

    The wire pattern of a client-side matvec: every frame carries the
    *same* payload bytes, so the members of the sweep that flush together
    share one plan input and one key-switch decomposition.
    """
    from repro.ckks.serialization import serialize_ciphertext

    payload = serialize_ciphertext(
        client.encryptor.encrypt(client.tenant.encoder.encode(list(values))),
        version=client.wire_version,
    )
    frames = []
    for step in steps:
        request_id = client._next_request_id
        client._next_request_id += 1
        frames.append(
            framing.encode_frame(
                framing.REQUEST,
                request_id,
                client.client_id,
                op="rotate",
                op_arg=step,
                payload=payload,
                frame_version=client.frame_version,
            )
        )
    return frames


class KeyGenOracle:
    """:class:`repro.ckks.keys.KeyGenerator`'s key material one key and one
    digit at a time, in scalar arithmetic after each draw's transform.

    The same draws in the same order: the ternary secret, then per key
    ``SymEnc(0, s)`` per digit -- ``a`` (seed-expanded at the digit's
    index when an expansion seed is set, else from the sampler), then the
    error -- and ``b = e - a·s``; a key-switching key's digit ``i`` adds
    ``[P]_{p_i}·[target]_{p_i}`` to row ``i`` of its ``b`` (Section 3's
    KskGen).  Every key comes back as canonical rows: ``(b, a)`` for a
    public key, a list of them (one per digit) for a key-switching key.
    """

    def __init__(self, context, seed, expansion_seed=None):
        self.context = context
        self.sampler = Sampler(seed)
        self.expansion_seed = expansion_seed
        moduli = context.key_basis.moduli
        self.secret = context.to_ntt(self.sampler.ternary_poly(context.n, moduli)).residues

    def _seed(self, tag: bytes):
        if self.expansion_seed is None:
            return None
        return derive_key_seed(self.expansion_seed, tag)

    def _symmetric_zero(self, moduli, key_seed, index: int):
        ctx = self.context
        if key_seed is not None:
            a = expand_uniform_poly(key_seed, index, ctx.n, moduli).residues
        else:
            a = self.sampler.uniform_residues(ctx.n, moduli).residues
        e = ctx.to_ntt(self.sampler.gaussian_poly(ctx.n, moduli)).residues
        b = [
            [(ej - aj * sj) % m.value for ej, aj, sj in zip(e_row, a_row, s_row)]
            for m, e_row, a_row, s_row in zip(moduli, e, a, self.secret)
        ]
        return b, a

    def _kswitch_key(self, target, tag: bytes):
        ctx = self.context
        moduli, special = ctx.key_basis.moduli, ctx.special_modulus.value
        key_seed = self._seed(tag)
        digits = []
        for i in range(ctx.k):
            b, a = self._symmetric_zero(moduli, key_seed, i)
            p = moduli[i].value
            b[i] = [(x + special * t) % p for x, t in zip(b[i], target[i])]
            digits.append((b, a))
        return digits, key_seed

    def public_key(self):
        key_seed = self._seed(b"public")
        return self._symmetric_zero(self.context.data_basis.moduli, key_seed, 0), key_seed

    def relin_key(self):
        moduli = self.context.key_basis.moduli
        squared = [
            [x * x % m.value for x in row] for m, row in zip(moduli, self.secret)
        ]
        return self._kswitch_key(squared, b"relin")

    def galois_keys(self, steps, conjugation: bool = False):
        """``{element: (digits, seed)}``, made in the order of ``steps``."""
        ctx = self.context
        elts = [ctx.galois_element_for_step(step) for step in steps]
        if conjugation:
            elts.append(ctx.conjugation_element)
        keys = {}
        for elt in elts:
            if elt not in keys:
                table = ctx.galois_table_ntt(elt)
                target = [[row[int(src)] for src in table] for row in self.secret]
                keys[elt] = self._kswitch_key(target, b"galois:%d" % elt)
        return keys
