"""Negacyclic number-theoretic transform (Algorithms 3 and 4).

The forward transform is the Cooley-Tukey decimation-in-time NTT with the
twiddle factors (powers of the primitive ``2n``-th root ``ψ``) stored in
bit-reversed order, as in Longa-Naehrig [52] / Microsoft SEAL.  The input
is in standard order; the output is in bit-reversed order.

The inverse transform is the Gentleman-Sande counterpart operating on
bit-reversed input and producing standard order.  Following Algorithm 4 of
the paper, each butterfly halves the sum (``(a+b)/2 mod p``) and the
stored inverse twiddles are pre-divided by two, so after ``log n`` stages
the total ``1/n`` scaling has been applied with no final pass.

Because forward output order equals inverse input order, *dyadic*
(coefficient-wise) operations can be performed directly on NTT-form data,
which is exactly the representation HEAX keeps ciphertexts in.

The scalar butterfly loops in this module are the **reference kernels**:
they define the transform (table layout, stage order, per-stage halving)
that every optimized backend in :mod:`repro.ckks.backend` must reproduce
bit for bit from the same ``uint64`` tables, and only they read the tables'
:class:`MulRedConstant` view.  Scheme code goes through the active backend.
"""

from __future__ import annotations

import functools
from typing import List, Sequence

import numpy as np

from repro.ckks.modarith import Modulus, MulRedConstant


@functools.lru_cache(maxsize=None)
def bit_reversal(n: int) -> np.ndarray:
    """Read-only table: ``i`` with its ``log2 n`` bits reversed (one per ``n``)."""
    if n < 1 or n & (n - 1):
        raise ValueError("length must be a power of two")
    table = np.zeros(1, dtype=np.int64)
    while len(table) < n:  # over 2m slots: 2 rev_m, then 2 rev_m + 1
        table = np.concatenate([2 * table, 2 * table + 1])
    table.setflags(write=False)
    return table


class NTTTables:
    """Precomputed twiddle tables for one ``(modulus, n)`` pair.

    Attributes
    ----------
    psi:
        Minimal primitive ``2n``-th root of unity modulo ``p``.
    root_values, inv_root_values_div2:
        ``Y`` of Algorithms 3 and 4, read-only ``uint64`` arrays: powers
        of ``ψ``, and of ``ψ^{-1}`` halved, in bit-reversed order.
    root_powers, inv_root_powers_div2:
        The same as :class:`MulRedConstant` lists, built on first read.
    """

    def __init__(self, n: int, modulus: Modulus, psi: int = None):
        if n < 2 or n & (n - 1):
            raise ValueError(f"n must be a power of two >= 2, got {n}")
        if (modulus.value - 1) % (2 * n) != 0:
            raise ValueError(
                f"modulus {modulus.value} does not support NTT of size {n}"
            )
        self.n = n
        self.log_n = n.bit_length() - 1
        self.modulus = modulus
        if psi is None:
            from repro.ckks.primes import primitive_2nth_root

            psi = primitive_2nth_root(modulus.value, n)
        p = modulus.value
        if pow(psi, n, p) != p - 1:
            raise ValueError("psi is not a primitive 2n-th root of unity")
        self.psi = psi
        self.inv_n = pow(n, -1, p)

        psi_inv = pow(psi, -1, p)
        powers = [1] * n
        inv_powers = [pow(2, -1, p)] * n  # from 2^-1: the halving comes free
        for i in range(1, n):
            powers[i] = powers[i - 1] * psi % p
            inv_powers[i] = inv_powers[i - 1] * psi_inv % p
        # Forward: index t holds psi^{bit_reverse(t, log n)} (SEAL's layout:
        # the level with m entries is the block [m, 2m)).  Inverse: the
        # Gentleman-Sande stages undo the forward ones in reverse order, and
        # inverting (u', v') = (u + w v, u - w v) gives u = (u' + v')/2 and
        # v = (u' - v') w^{-1}/2: index t holds psi^{-bit_reverse(t, log n)}/2.
        rev = bit_reversal(n)
        self.root_values = np.array(powers, dtype=np.uint64)[rev]
        self.inv_root_values_div2 = np.array(inv_powers, dtype=np.uint64)[rev]
        self.root_values.setflags(write=False)
        self.inv_root_values_div2.setflags(write=False)

    @functools.cached_property
    def root_powers(self) -> List[MulRedConstant]:
        """:attr:`root_values` with their Algorithm-2 ratios."""
        return [MulRedConstant(v, self.modulus) for v in self.root_values.tolist()]

    @functools.cached_property
    def inv_root_powers_div2(self) -> List[MulRedConstant]:
        """:attr:`inv_root_values_div2` with their Algorithm-2 ratios."""
        return [MulRedConstant(v, self.modulus) for v in self.inv_root_values_div2.tolist()]

    def forward(self, values: Sequence[int]) -> List[int]:
        """NTT (Algorithm 3): standard-order input, bit-reversed output."""
        a = list(values)
        n = self.n
        if len(a) != n:
            raise ValueError(f"expected {n} coefficients, got {len(a)}")
        p = self.modulus.value
        table = self.root_powers
        t = n
        m = 1
        while m < n:
            t >>= 1
            for i in range(m):
                j1 = 2 * i * t
                w = table[m + i]
                for j in range(j1, j1 + t):
                    u = a[j]
                    v = w.mul(a[j + t])
                    s = u + v
                    if s >= p:
                        s -= p
                    d = u - v
                    if d < 0:
                        d += p
                    a[j] = s
                    a[j + t] = d
            m <<= 1
        return a

    def inverse(self, values: Sequence[int]) -> List[int]:
        """INTT (Algorithm 4): bit-reversed input, standard-order output.

        Implements the paper's per-stage halving variant: the sum path is
        divided by two every stage and the difference path is multiplied
        by a pre-halved inverse twiddle, so the aggregate ``1/n`` scaling
        needs no final multiplication pass.
        """
        a = list(values)
        n = self.n
        if len(a) != n:
            raise ValueError(f"expected {n} coefficients, got {len(a)}")
        p = self.modulus.value
        table = self.inv_root_powers_div2
        t = 1
        m = n
        while m > 1:
            h = m >> 1
            j1 = 0
            for i in range(h):
                w = table[h + i]
                for j in range(j1, j1 + t):
                    u = a[j]
                    v = a[j + t]
                    s = u + v
                    if s >= p:
                        s -= p
                    # (u + v) / 2 mod p
                    a[j] = (s + p if s & 1 else s) >> 1
                    d = u - v
                    if d < 0:
                        d += p
                    a[j + t] = w.mul(d)
                j1 += 2 * t
            t <<= 1
            m = h
        return a
