"""Word-size-aware modular arithmetic.

Implements the two modular-reduction algorithms of the HEAX paper verbatim:

* **Algorithm 1 (standard Barrett reduction)** -- reduce a double-word value
  ``x`` in ``[0, (p-1)^2]`` modulo a word-sized prime ``p`` using the
  precomputed ratio ``u = floor(2^(2w) / p)``.
* **Algorithm 2 (optimized modular multiplication, "MulRed")** -- multiply
  ``x`` by a *constant* operand ``y`` with precomputed ``y' = floor(y *
  2^w / p)``.  This is the fast path used for twiddle-factor
  multiplications inside NTT butterflies; it requires ``p < 2^(w-2)``.

HEAX uses a native word size of ``w = 54`` bits (matching the 27-bit DSP
blocks of the target FPGAs; see Section 4 "Word Size and Native
Operations"), while Microsoft SEAL uses ``w = 64``.  The word size is a
parameter of :class:`Modulus` so both regimes are exercised by the tests.

:func:`powers_mod` builds the power vectors set-up needs (twiddle tables,
the root search, the encoder's slot map) by vector doubling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: HEAX native word size in bits (two fused 27-bit DSP multipliers).
HEAX_WORD_BITS = 54

#: Microsoft SEAL native word size in bits (x86-64).
SEAL_WORD_BITS = 64


def barrett_reduce(x: int, p: int, u: int, w: int) -> int:
    """Reduce ``x`` modulo ``p`` (Algorithm 1).

    ``u`` must equal ``floor(2^(2w) / p)`` and ``x`` must lie in
    ``[0, (p-1)^2]`` (a double-word value).  The quotient estimate
    ``floor(x * u / 2^(2w))`` is off by at most one, so a single
    conditional subtraction completes the reduction.
    """
    alpha = (x * u) >> (2 * w)
    z = x - alpha * p
    if z >= p:
        z -= p
    return z


def mul_red(x: int, y: int, y_prime: int, p: int, w: int) -> int:
    """Multiply ``x * y mod p`` with precomputed ratio (Algorithm 2).

    ``y_prime`` must equal ``floor(y * 2^w / p)`` and ``p < 2^(w-2)``.
    Compared with Barrett reduction this uses one fewer multi-word
    multiplication, which is why HEAX dedicates it to the constant
    (twiddle-factor) operand of each butterfly.
    """
    mask = (1 << w) - 1
    z = (x * y) & mask
    t = (x * y_prime) >> w
    z = (z - (t * p & mask)) & mask
    if z >= p:
        z -= p
    return z


def div2_mod(x: int, p: int) -> int:
    """Return ``x / 2 mod p`` for odd ``p``.

    Used by the INTT butterfly of Algorithm 4, which folds the final
    ``1/n`` scaling into a per-stage halving.
    """
    if x & 1:
        return (x + p) >> 1
    return x >> 1


#: Below this modulus a product's quotient is estimated in float64 within
#: one (the numpy backend's ``_WORD_SAFE_BOUND`` argument).
FLOAT_QUOTIENT_BOUND = 1 << 52

#: Doubling passes shorter than this run on Python ints: a numpy pass
#: costs a dozen calls whatever its length.
_SCALAR_PASS = 64


def powers_mod(base: int, count: int, q: int) -> np.ndarray:
    """``base^0 .. base^(count-1) mod q`` as ``int64``, by doubling.

    Each pass extends the vector with ``pw[k:2k] = pw[:k] * base^k``.
    For ``q < 2^52`` a long pass multiplies by the float-quotient word
    of ``c = base^k``: ``x*c/q < q`` is estimated from ``x * fl(c/q)``
    within one (two relative errors of ``2^-53`` on a value below
    ``2^52``), so ``x*c - est*q + q`` in wrapping arithmetic lies in
    ``[0, 3q)`` and two conditional subtractions make it exact.  Short
    passes, and every pass of a wider ``q``, run on Python ints.  Either
    way the result equals the recurrence ``x_{i+1} = x_i * base mod q``.
    """
    c = base % q
    head = [1 % q]
    while len(head) < count and (q >= FLOAT_QUOTIENT_BOUND or len(head) < _SCALAR_PASS):
        head += [x * c % q for x in head[: count - len(head)]]
        c = c * c % q
    pw = np.empty(count, dtype=np.int64)
    pw[: len(head)] = head
    est = np.empty(count // 2, dtype=np.float64)  # in place: a fresh
    fold = np.empty(count // 2, dtype=np.int64)  # temporary page-faults
    k = len(head)
    while k < count:
        x, r = pw[: min(k, count - k)], pw[k : 2 * k]
        f, t = est[: len(x)], fold[: len(x)]
        np.multiply(x, c / q, out=f)
        np.copyto(t, f, casting="unsafe")
        t *= q
        np.multiply(x, c, out=r)
        r -= t
        u, w = r.view(np.uint64), t.view(np.uint64)
        u += q  # [0, 3q): the estimate is off by at most one
        for _ in range(2):  # as words, min(u, u - q) takes q off u >= q
            np.subtract(u, q, out=w)
            np.minimum(u, w, out=u)
        k += len(x)
        c = c * c % q
    return pw


@dataclass(frozen=True)
class Modulus:
    """A word-sized prime modulus with Barrett precomputation.

    Parameters
    ----------
    value:
        The prime ``p``.
    word_bits:
        Native word size ``w``.  Algorithm 2 requires ``p < 2^(w-2)``;
        HEAX therefore restricts moduli to at most 52 bits when ``w = 54``.
    """

    value: int
    word_bits: int = HEAX_WORD_BITS
    barrett_ratio: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.value < 2:
            raise ValueError(f"modulus must be >= 2, got {self.value}")
        if self.value >= 1 << (self.word_bits - 2):
            raise ValueError(
                f"modulus {self.value} too large for word size "
                f"{self.word_bits} (needs p < 2^{self.word_bits - 2})"
            )
        object.__setattr__(
            self, "barrett_ratio", (1 << (2 * self.word_bits)) // self.value
        )

    def reduce(self, x: int) -> int:
        """Reduce a non-negative ``x <= (p-1)^2`` modulo ``p`` (Algorithm 1)."""
        return barrett_reduce(x, self.value, self.barrett_ratio, self.word_bits)

    def add(self, a: int, b: int) -> int:
        """Return ``a + b mod p`` for operands already in ``[0, p)``."""
        s = a + b
        if s >= self.value:
            s -= self.value
        return s

    def sub(self, a: int, b: int) -> int:
        """Return ``a - b mod p`` for operands already in ``[0, p)``."""
        d = a - b
        if d < 0:
            d += self.value
        return d

    def mul(self, a: int, b: int) -> int:
        """Return ``a * b mod p`` via Barrett reduction."""
        return self.reduce(a * b)

    def pow(self, base: int, exponent: int) -> int:
        """Return ``base ** exponent mod p``."""
        return pow(base, exponent, self.value)

    def inv(self, a: int) -> int:
        """Return the multiplicative inverse of ``a`` modulo ``p``."""
        return pow(a, -1, self.value)

    def div2(self, a: int) -> int:
        """Return ``a / 2 mod p``."""
        return div2_mod(a, self.value)


@dataclass(frozen=True)
class MulRedConstant:
    """A constant operand ``y`` with its precomputed MulRed ratio ``y'``.

    The hardware keeps these pairs in its twiddle-factor memories (here
    the ``uint64`` arrays of :class:`~repro.ckks.ntt.NTTTables`, paired on
    first scalar read): ``Y`` of Algorithms 3/4 with ``Y' = floor(Y 2^w / p)``.
    """

    value: int
    modulus: Modulus
    ratio: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0 <= self.value < self.modulus.value:
            raise ValueError("MulRed constant must be reduced mod p")
        object.__setattr__(
            self,
            "ratio",
            (self.value << self.modulus.word_bits) // self.modulus.value,
        )

    def mul(self, x: int) -> int:
        """Return ``x * y mod p`` using Algorithm 2."""
        return mul_red(
            x, self.value, self.ratio, self.modulus.value, self.modulus.word_bits
        )
