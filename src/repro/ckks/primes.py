"""NTT-friendly prime generation and roots of unity.

HEAX (like SEAL) needs RNS moduli that are word-sized primes ``p`` with
``p ≡ 1 (mod 2n)`` so that a primitive ``2n``-th root of unity ``ψ``
exists (``ψ^n ≡ -1 mod p``), enabling the negacyclic NTT of Section 3.1.
Additionally Algorithm 2 requires ``p < 2^(w-2)``, i.e. at most 52 bits
for the 54-bit HEAX word.

The paper: "We have precomputed all of such moduli for different
parameters."  This module is that precomputation.  The root search is
one power vector of a generator's ``2n``-th root (:func:`root_powers`),
built by doubling in float-quotient words below ``2^52``
(:func:`~repro.ckks.modarith.powers_mod`), and the NTT tables are
gathers from it.
"""

from __future__ import annotations

import math
import random
from typing import List, Tuple

import numpy as np

from repro.ckks.modarith import Modulus, powers_mod

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
)

# Deterministic Miller-Rabin witness sets (Sinclair / Feitsma bounds).
_DETERMINISTIC_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_DETERMINISTIC_BOUND = 318_665_857_834_031_151_167_461  # > 2^64


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test.

    Deterministic for ``n < 3.18e23`` (covers every word-sized modulus we
    generate); probabilistic with 40 random witnesses beyond that.
    """
    if n < 2:
        return False
    for sp in _SMALL_PRIMES:
        if n == sp:
            return True
        if n % sp == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    if n < _DETERMINISTIC_BOUND:
        witnesses = [w for w in _DETERMINISTIC_WITNESSES if w < n]
    else:
        rng = random.Random(n)
        witnesses = [rng.randrange(2, n - 1) for _ in range(40)]
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def generate_ntt_primes(
    n: int, bit_size: int, count: int, word_bits: int = 54
) -> List[int]:
    """Generate ``count`` distinct primes ``p ≡ 1 (mod 2n)`` of ``bit_size`` bits.

    Candidates are scanned downward from the largest ``bit_size``-bit value
    congruent to 1 modulo ``2n`` (mirroring SEAL's ``get_primes``).  Raises
    ``ValueError`` when the congruence class is exhausted or the requested
    size violates the word-size constraint of Algorithm 2.
    """
    if bit_size > word_bits - 2:
        raise ValueError(
            f"{bit_size}-bit moduli exceed the p < 2^{word_bits - 2} bound"
        )
    if bit_size < 2:
        raise ValueError("bit_size must be at least 2")
    m = 2 * n
    upper = (1 << bit_size) - 1
    candidate = upper - ((upper - 1) % m)  # largest value ≡ 1 (mod 2n)
    primes: List[int] = []
    lower = 1 << (bit_size - 1)
    while len(primes) < count:
        if candidate <= lower:
            raise ValueError(
                f"exhausted {bit_size}-bit primes ≡ 1 mod {m}; "
                f"found only {len(primes)} of {count}"
            )
        if is_prime(candidate):
            primes.append(candidate)
        candidate -= m
    return primes


def _factorize(n: int) -> List[int]:
    """Return the distinct prime factors of ``n`` (trial division + MR split).

    Group orders here are ``p - 1`` for word-sized ``p``: trial division
    to ``2^10`` (past it Pollard's rho, ~``sqrt(d)`` steps, beats ``d/2``
    trial steps), stopping once the cofactor is prime.
    """
    factors = []
    d = 2
    while d * d <= n and d < 1 << 10:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
            if is_prime(n):  # the cofactor left: no divisor below it
                break
        d += 1 if d == 2 else 2
    if n > 1:
        if is_prime(n):
            factors.append(n)
        else:
            f = _pollard_rho(n)
            factors.extend(sorted(set(_factorize(f) + _factorize(n // f))))
    return sorted(set(factors))


def _pollard_rho(n: int) -> int:
    """Pollard's rho factorization for the rare large composite cofactor."""
    if n % 2 == 0:
        return 2
    rng = random.Random(n)
    while True:
        x = rng.randrange(2, n - 1)
        y = x
        c = rng.randrange(1, n - 1)
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(x - y, n)
        if d != n:
            return d


def primitive_root(p: int) -> int:
    """Return a generator of the multiplicative group of ``Z_p``."""
    order = p - 1
    factors = _factorize(order)
    for g in range(2, p):
        if all(pow(g, order // f, p) != 1 for f in factors):
            return g
    raise ValueError(f"no primitive root found for {p}")  # pragma: no cover


def primitive_2nth_root(p: int, n: int) -> int:
    """Return the smallest primitive ``2n``-th root of unity ``ψ`` modulo ``p``.

    Requires ``p ≡ 1 (mod 2n)``.  A primitive root satisfies
    ``ψ^n ≡ -1 (mod p)``; the numerically smallest one gives
    deterministic twiddle tables, matching SEAL's choice.
    """
    powers, j = root_powers(p, n)
    return int(powers[j])


def root_powers(p: int, n: int) -> Tuple[np.ndarray, int]:
    """The powers ``ψ0^0 .. ψ0^(2n-1)`` of ``ψ0 = g^((p-1)/2n)`` (``g`` the
    least generator), and the odd ``j`` with ``ψ0^j`` the least primitive
    ``2n``-th root.

    The primitive roots are exactly the odd powers of ``ψ0``, so the
    search is one :func:`~repro.ckks.modarith.powers_mod` vector and an
    ``argmin`` over its odd entries; ``ψ^e = ψ0^(j e mod 2n)`` lets
    :class:`~repro.ckks.ntt.NTTTables` gather its tables from the same
    vector.
    """
    m = 2 * n
    if (p - 1) % m != 0:
        raise ValueError(f"p={p} is not ≡ 1 mod {m}")
    powers = powers_mod(pow(primitive_root(p), (p - 1) // m, p), m, p)
    return powers, 2 * int(np.argmin(powers[1::2])) + 1


def make_modulus_chain(
    n: int, bit_sizes: List[int], word_bits: int = 54
) -> List[Modulus]:
    """Build a chain of distinct NTT-friendly moduli with the given bit sizes.

    Equal bit sizes draw successive primes from the same downward scan, so
    the chain is deterministic for a given ``(n, bit_sizes)``.
    """
    needed = {}
    for b in bit_sizes:
        needed[b] = needed.get(b, 0) + 1
    pool = {
        b: generate_ntt_primes(n, b, cnt, word_bits) for b, cnt in needed.items()
    }
    chain = []
    cursor = {b: 0 for b in pool}
    for b in bit_sizes:
        chain.append(Modulus(pool[b][cursor[b]], word_bits))
        cursor[b] += 1
    return chain
