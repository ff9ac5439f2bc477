"""Randomness for RLWE: key, error, and uniform distributions.

CKKS.Setup fixes a key distribution ``χ`` (uniform ternary) and an error
distribution ``Ω`` (discrete Gaussian with standard deviation 3.2,
truncated at six sigmas -- the values used by Microsoft SEAL and the HE
security standard [1]).

Each draw is bit-identical to a seeded ``random.Random``'s per-coefficient
``randrange``/``gauss`` loop, at array speed: ``getstate()`` is loaded into
``numpy.random.MT19937`` (the same generator and tempering), whose
``random_raw`` words a draw reads in one block, keeping the unused tail.
``randrange(m)`` takes ``getrandbits(k = m.bit_length())`` candidates of
little-endian words, the last shifted right by ``32·words − k``, skipping
those ``>= m`` (Python ints past 64 bits); a block whose first ``count``
candidates all pass is returned as it is, the usual case for a prime just
below a power of two.  ``gauss`` is Box-Muller over
``random() = ((a >> 5)·2^26 + (b >> 6))·2^-53``, cosine first and the sine
carried in ``gauss_next``, and ``np.rint`` rounds half to even; a block
with nothing truncated needs no index of survivors.  Its
``log``/``cos``/``sin`` run through numpy, whose results are not libm's
(``np.log`` is one ULP off ``math.log`` on a few values in a thousand).
Only rounding can see that, so a value ``z·σ`` within ``δ = 2^-30``
(``_TIE_MARGIN``) of a tie ``k + ½``, the truncation edge ``±(bound + ½)``
among them, is recomputed with ``math``, as the carried sine always is.
δ suffices: ``|z| < 8.6`` (``sqrt(-2 ln 2^-53)``), so ``|z·σ| < 28`` at
σ = 3.2, and a relative error ``ε ≤ 2^-36`` in each transcendental -- 2^16
ULPs, over 2^13 times the few numpy and libm differ by -- moves it by
under ``28·(1.5ε + 2^-51) < 2^-30.6``; a σ below 2^16 still allows ``ε ≤
2^-50``.  Seed expansion reseeds one generator per thread, since
``np.random.MT19937()`` draws OS entropy (~200 µs) that a state load overwrites.
"""

from __future__ import annotations

import hashlib
import math
import random
import threading
from typing import List, Optional, Sequence

import numpy as np

from repro.ckks.modarith import Modulus
from repro.ckks.poly import RnsPolynomial

#: Standard deviation of the RLWE error distribution (HE standard / SEAL).
ERROR_STDDEV = 3.2

#: Truncation bound in standard deviations.
ERROR_TRUNCATION_SIGMAS = 6

#: Byte length of a key-expansion seed (wire format v2 ships this in
#: place of every ``a`` column of a seed-expandable key).
KEY_SEED_BYTES = 32

#: Gaussian values this close to a rounding tie go through ``math``.
_TIE_MARGIN = 2.0**-30

_EXPANDER = threading.local()  # each thread's seed expander


def derive_key_seed(master: bytes, tag: bytes) -> bytes:
    """Derive one key's expansion seed from a master seed and a role tag.

    Each generated key (public, relin, one per Galois element) gets its
    own independent 32-byte seed, so shipping one key's seed on the wire
    reveals nothing about any other key's ``a`` columns.
    """
    return hashlib.sha256(b"heax-key-seed:" + master + b":" + tag).digest()


def expand_uniform_poly(
    seed: bytes, index: int, n: int, moduli: Sequence[Modulus]
) -> RnsPolynomial:
    """Deterministically expand ``a <- U(R_q)`` from a 32-byte seed.

    The standard RLWE seed-expansion trick: the uniform column of a key
    is public randomness, so a key blob can ship the seed instead and
    the receiver regenerates ``a`` bit-identically.  ``index`` selects
    the gadget digit (a key-switching key holds one uniform polynomial
    per digit; the public key uses index 0).

    The rows are a :class:`Sampler` seeded by ``sha256(seed || index)``
    (the calling thread's, reseeded): bit-identical on every backend and
    platform, which the wire format's cross-backend decode equality
    relies on.
    """
    if len(seed) != KEY_SEED_BYTES:
        raise ValueError(
            f"expansion seed must be {KEY_SEED_BYTES} bytes, got {len(seed)}"
        )
    digest = hashlib.sha256(seed + index.to_bytes(4, "little")).digest()
    sampler = getattr(_EXPANDER, "sampler", None)
    if sampler is None:
        sampler = _EXPANDER.sampler = Sampler()
    sampler.reseed(int.from_bytes(digest, "big"))
    return sampler.uniform_residues(n, moduli)


def _getrandbits(words: np.ndarray, k: int) -> np.ndarray:
    """``getrandbits(k)`` from each row of ``ceil(k/32)`` words."""
    width = words.shape[1]
    word = np.uint64 if width <= 2 else int  # over 64 bits: Python ints
    cells = words if width <= 2 else words.astype(object)
    cand = cells[:, -1] >> word(32 * width - k)
    for i in range(width - 2, -1, -1):
        cand = (cand << word(32)) | cells[:, i]
    return cand


def _libm_gauss(x2pi: np.ndarray, y: np.ndarray, i: int) -> float:
    """Entry ``i`` of a block's ``z`` (cosine, sine, ...) through ``math``."""
    g2rad = math.sqrt(-2.0 * math.log(1.0 - float(y[i // 2])))
    return (math.sin if i % 2 else math.cos)(float(x2pi[i // 2])) * g2rad


class Sampler:
    """Seeded source of the three RLWE distributions (``random.Random``'s)."""

    def __init__(self, seed: Optional[int] = None):
        self._mt = np.random.MT19937()
        self.reseed(seed)

    def reseed(self, seed: Optional[int]) -> None:
        """Start over as ``random.Random(seed)``."""
        _version, internal, self._gauss_next = random.Random(seed).getstate()
        # a tuple: the setter reads an array's words 14x slower
        state = {"key": internal[:-1], "pos": internal[-1]}
        self._mt.state = {"bit_generator": "MT19937", "state": state}
        self._tail = np.empty(0, dtype=np.uint64)

    def _read(self, count: int) -> np.ndarray:
        """The next ``count`` words; a draw puts back what it leaves."""
        fresh = self._mt.random_raw(max(count - len(self._tail), 0))
        words = np.concatenate((self._tail, fresh))
        self._tail = words[count:].copy()
        return words[:count]

    def _below(self, count: int, bound: int) -> np.ndarray:
        """``count`` draws of ``randrange(bound)``."""
        k, width = bound.bit_length(), (bound.bit_length() + 31) // 32
        limit = np.uint64(bound) if width <= 2 else bound
        parts = [np.empty(0, dtype=np.uint64 if width <= 2 else object)]
        while count:
            tries = ((count + 3 * math.isqrt(count) + 8) << k) // bound
            words = self._read(tries * width).reshape(tries, width)
            cand = _getrandbits(words, k)
            if len(parts) == 1 and (cand[:count] < limit).all():  # none rejected
                self._tail = np.concatenate((words[count:].ravel(), self._tail))
                return cand[:count]
            ok = np.flatnonzero(cand < limit)[:count]
            if len(ok) == count:
                self._tail = np.concatenate((words[ok[-1] + 1 :].ravel(), self._tail))
            parts.append(cand[ok])
            count -= len(ok)
        return np.concatenate(parts)

    def _ternary(self, n: int) -> np.ndarray:
        return self._below(n, 3).astype(np.int64) - np.int64(1)

    def _gaussian(self, count: int, stddev: float = ERROR_STDDEV) -> np.ndarray:
        """``count`` values ``round(gauss(0.0, stddev))`` within the truncation."""
        bound = math.ceil(ERROR_TRUNCATION_SIGMAS * stddev)
        parts = [np.empty(0, dtype=np.int64)]
        while count:
            pairs = count // 2 + 2
            words = self._read(4 * pairs).reshape(pairs, 4)
            a = (words[:, 0::2] >> np.uint64(5)).astype(np.float64)
            u = (a * 67108864.0 + (words[:, 1::2] >> np.uint64(6))) * 2.0**-53
            x2pi, y = u[:, 0] * (2.0 * math.pi), u[:, 1]
            g2rad = np.sqrt(-2.0 * np.log(1.0 - y))
            pair = np.stack((np.cos(x2pi), np.sin(x2pi)), 1)
            z = (pair * g2rad[:, None]).ravel()  # cosine, sine, cosine, ...
            scaled = z * stddev
            near = np.abs(scaled - np.floor(scaled) - 0.5) < _TIE_MARGIN
            for i in np.flatnonzero(near).tolist():
                z[i] = _libm_gauss(x2pi, y, i)
            carry = [] if self._gauss_next is None else [self._gauss_next]
            values = np.rint(np.concatenate((carry, z)) * stddev)
            inside = np.abs(values) <= bound
            if inside[:count].all():  # none truncated
                kept, used = values[:count], count - len(carry)
            else:
                ok = np.flatnonzero(inside)[:count]
                kept = values[ok]
                used = int(ok[-1]) + 1 - len(carry) if len(ok) == count else len(z)
            self._gauss_next = _libm_gauss(x2pi, y, used) if used % 2 else None
            self._tail = np.concatenate((words[(used + 1) // 2 :].ravel(), self._tail))
            parts.append(kept.astype(np.int64))
            count -= len(kept)
        return np.concatenate(parts)

    def ternary_coeffs(self, n: int) -> List[int]:
        """Uniform ternary vector in ``{-1, 0, 1}^n`` (the key distribution χ)."""
        return self._ternary(n).tolist()

    def gaussian_coeffs(self, n: int, stddev: float = ERROR_STDDEV) -> List[int]:
        """Truncated rounded Gaussian vector (the error distribution Ω)."""
        return self._gaussian(n, stddev).tolist()

    def uniform_coeffs(self, n: int, bound: int) -> List[int]:
        """``n`` uniform Python ints in ``[0, bound)``, any ``bound >= 1``."""
        return self._below(n, bound).tolist()

    def uniform_residues(self, n: int, moduli: Sequence[Modulus]) -> RnsPolynomial:
        """Sample ``a <- U(R_q)`` directly in NTT form, as one matrix.

        The NTT is a bijection on ``Z_p^n``, so sampling uniform residues
        in the evaluation domain is distributionally identical to sampling
        in the coefficient domain and transforming -- and it is what both
        SEAL and HEAX do to avoid a pointless NTT.
        """
        rows = np.array([self._below(n, m.value) for m in moduli], np.uint64)
        return RnsPolynomial(n, list(moduli), rows.reshape(-1, n), is_ntt=True)

    def ternary_poly(self, n: int, moduli: Sequence[Modulus]) -> RnsPolynomial:
        """Ternary polynomial lifted into every RNS component (coeff form)."""
        return RnsPolynomial.from_int_coeffs(self._ternary(n), moduli)

    def gaussian_poly(self, n: int, moduli: Sequence[Modulus]) -> RnsPolynomial:
        """Error polynomial lifted into every RNS component (coeff form)."""
        return RnsPolynomial.from_int_coeffs(self._gaussian(n), moduli)
