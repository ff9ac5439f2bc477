"""Vectorized NumPy backend: every butterfly stage a few flat array passes.

The software analogue of the paper's observation that CKKS time is won
by *wide* parallelism over butterflies, not by faster scalar operations:
a transform is ``log n`` stages, each eight whole-array NumPy passes
(eleven unsigned) over all butterflies of all stacked rows at once.

**Layout: a constant-geometry ("perfect shuffle") transform.**  An
``(R, n)`` stack is one flat array ``A`` of ``N = R*n`` words.  The
forward transform loads it batch-innermost (coefficient ``j`` of row
``r`` at ``j*R + r``); every stage reads the two halves and writes the
butterflies interleaved::

    u = A[:N/2];  v = A[N/2:];  B[0::2] = u + w*v;  B[1::2] = u - w*v

After ``s`` stages the word at ``b*N/2 + 2^s*(k*R + r) + i`` is what
Algorithm 3 holds at index ``(i, b, k)`` of row ``r`` (group ``i < 2^s``,
half ``b``, offset ``k``): the pairing is always first half against
second half, butterfly ``J`` of the stage with ``m`` groups uses
``root_values[m + J mod m]``, and after ``log n`` shuffles the buffer
*is* the ``(R, n)`` result in Algorithm 3's bit-reversed order.  The
inverse mirrors it: ``u = A[0::2]``, ``v = A[1::2]``, halves written
contiguously, one transposing copy at the end.  Operands must stay 1-D
because NumPy runs an operand at full speed only when its iterator
collapses to one dimension (contiguous or one uniform stride); anything
else -- the textbook ``(m, 2t, R)`` stage views -- is copied through the
ufunc's iteration buffer on every pass, and degenerates to inner loops
of ``R`` words in the late stages.  The one 2-D operand left is a
stage's twiddle *tile* (block ``[m, 2m)`` of the table repeated to
``_TILE`` words, a scalar for ``m = 1``), broadcast over the flat array
viewed ``(-1, tile)``.

**Arithmetic: a precomputed quotient ratio per constant, the regime
chosen from ``(p, n)`` alone** (:class:`_Arith`, :class:`_TwiddleCache`).
``x*w mod p`` is ``x*w - q*p`` in wrapping 64-bit words with
``q ~ x*w/p`` estimated from a stored ``ratio ~ w/p`` -- no division:

* *signed*, ``p * (2 log2 n + 1) < 2^50`` (Set-A, Set-B's 40-bit
  primes): int64 views, ``ratio = float64(w)/p * (1 - 2^-51)``, ``q =
  trunc(float64(x) * ratio)``.  For ``|x| < 2^50`` the bias and three
  roundings move ``x*w/p`` by ``< 7 * 2^-53 * 2^50 < 1``, the truncation
  by ``< 1``: ``|x*w - q*p| < 2p`` whatever ``p`` (n = 2 admits primes
  to ``2^50 / 3``, biased like the rest).  Forward stages write ``u +- w*v``
  unfolded (8 passes), ``|x| < (2s + 1) p`` after ``s`` of them: below
  ``2^50`` by the rule.  Inverse stages multiply ``u - v`` unlifted and
  leave ``u + v`` alone but where its doubling bound would pass ``2^49``
  (then times 1: never for 36 bits at n = 4096, twice for 45, once for
  40 at 8192).  The inverse ends with two folds (its last stage leaves
  products, ``|x| < 2p``), the forward with :func:`_canonical` (7
  passes): ``q = trunc(float64(x) * (1/p)(1 + 2^-51))`` is biased *up*,
  so three roundings never take it under ``|x|/p`` (``k p`` gives ``k``,
  never the remainder ``p``) nor to ``|x|/p + 1``: ``r`` is strictly
  inside ``(-p, p)``, and ``min(r, r + p)`` unsigned lifts it.
* *float-lazy*, ``p < 2^48``: the same biased ratio on uint64.  It never
  exceeds the true quotient and is within one of it while ``4p * 7 *
  2^-53 <= 1``: ``[0, 2p)`` for every ``x < 4p``.
* *float-strict*, ``2^48 <= p < 2^52`` (the HEAX ``w = 54`` word bound):
  the unbiased ratio and ``x < p``.  ``x*w/p < 2^52`` keeps the estimate
  within one *either way*, the remainder in ``[-p, 2p)``; a lifting fold
  and the usual fold land it in ``[0, p)``.
* *Shoup-lazy*, ``4p <= 2^32``, constant multiplies only: ``ratio =
  floor(w * 2^32 / p)``, ``q = (x * ratio) >> 32`` (Algorithm 2).  The
  two floors lose less than one each: ``[0, 2p)`` for ``x < 2^32``.

The unsigned regimes run Harvey's butterflies: residues in ``[0, 4p)``
forward (a fold of ``u`` and a lift per stage, 11 passes) and ``[0,
2p)`` inverse, one final fold; strict halves every bound and folds the
product's operand too.  The inverse multiplies by the un-halved
twiddles ``2 * inv_root_values_div2 mod p`` and folds ``n^-1`` into its
last stage's two constants instead of halving every stage as Algorithm
4 does.  Outputs are canonical, bit-identical to the reference backend
(``tests/ckks/test_ntt_kernel.py``).  ``p >= 2^52`` (e.g. SEAL's 61-bit
primes) falls back to the reference backend.

**Products of two arrays: one reciprocal quotient per sum** (:func:`_dot`;
a product is a sum of one).  As the paper's DyadMult accumulators do
(Figure 6), ``S = sum_i x_i*y_i`` over ``d`` digits is accumulated
unreduced, in wrapping ``uint64`` and side by side in ``float64``; *one*
estimate ``q = trunc(fsum * r)``, ``r = (1/p)(1 - (d+3)*2^-53)``, then
gives ``S - q*p`` in wrapping arithmetic.  The float side carries at most
``d+1`` roundings per term (a product, ``d-1`` additions, the multiply
by ``r``) and ``r`` two more, which the bias outweighs: ``q`` never
exceeds the true quotient and falls short of it by less than
``m = 1 + d*p*(2d+6)*2^-53`` (``S/p < d*p``), so the remainder is in
``[0, m*p)`` and ``ceil(log2 m)`` folds by ``2^k*p, .., 2p, p`` land it
in ``[0, p)``.  The fold count is the only regime, a function of
``(p, d)`` alone (:class:`_Column`): one for a product below ``2^50``
and a 4-digit sum below ``2^47``, two for Set-B's 48-bit prime, three
for its 50-bit special prime, seven for Set-C's 52-bit one.  A sum that
fits a word (``d*(p-1)^2 < 2^63``) skips the float side: its estimate is
the cast of the integer sum.

**Per-row kernels: one prime per pass** (:func:`_runs`).  A lane's rows
are modulus-major, ``N`` rows per prime; for ``N >= 2`` the ``*_rows``
kernels visit run by run with 0-d constants, as a MULT core fixes one
prime's constants per pass (on a 2-core Xeon a pass over an ``(8,
4096)`` chunk costs 14 us that way, 33 us against the ``(R, 1)`` column,
which a lane of one keeps: a call per row costs more there).
``scalar_mul_rows`` visits runs of equal ``(prime, scalar)``.  Kernels
run row chunk by row chunk through the per-thread :func:`_scratch`, and
every result matrix is a view of a recycled slab (``_new``,
:mod:`repro.ckks.backend.resident`): a warmed kernel allocates nothing.
All boundary data stays in the canonical list-of-int row format (see
:mod:`repro.ckks.backend.base`).
"""

from __future__ import annotations

import threading
from functools import lru_cache
from itertools import groupby
from math import prod
from typing import List

import numpy as np

from repro.ckks.backend.base import PolynomialBackend, RowStack
from repro.ckks.backend.reference import ReferenceBackend
from repro.ckks.backend.resident import new as _new
from repro.ckks.modarith import Modulus
from repro.ckks.ntt import NTTTables

#: ``4p`` at most this takes the 32-bit Shoup ratio (see :class:`_Arith`).
_DIRECT_MUL_BOUND = 1 << 32

#: Float-estimated quotients are within one of the true quotient only
#: while ``a*b/p < 2^52`` stays inside the float64 mantissa; this is
#: exactly the HEAX ``p < 2^(w-2)`` bound for w = 54.
_WORD_SAFE_BOUND = 1 << 52

#: Below this bound the biased float ratio serves lazy operands up to
#: ``4p`` (``4p * 7 * 2^-53 <= 1``, see the module docstring).
_LAZY_BOUND = 1 << 48
_RATIO_BIAS = 1.0 - 2.0**-51

#: ``p * (2 log2 n + 1)`` below this is signed, its reciprocal biased up.
_SIGNED_BOUND = 1 << 50
_RECIP_BIAS = 1.0 + 2.0**-51

#: A kernel runs its stack in chunks of at most this many words
#: (``32768 / n`` rows, at least one), so that its scratch of a few
#: chunks stays L2-resident however tall the stack is.
_CHUNK_WORDS = 1 << 15

#: Sums of more digits than this (``m * p`` of the module docstring must
#: stay below ``2^64`` for every word-safe ``p``) run in blocks of this many.
_MAX_DIGITS = 32

#: Twiddle blocks of the early stages are repeated up to this many words,
#: the shortest inner loop a stage's broadcast runs.
_TILE = 1 << 10

#: Attribute name under which per-(modulus, n) twiddle arrays are cached
#: on the NTTTables instance that owns the scalar tables.
_CACHE_ATTR = "_numpy_twiddle_cache"


def _const(value: int) -> np.ndarray:
    """A 0-d uint64 operand: half the call overhead of a NumPy scalar."""
    return np.array(value, dtype=np.uint64)


_U32 = _const(32)
_ZERO = _const(0)


def _row_views(handle) -> bool:
    """True for a non-empty list of equally wide 1-D ``uint64`` arrays:
    rows of resident matrices, readable where they are."""
    if type(handle) is not list or not handle or type(handle[0]) is not np.ndarray:
        return False
    shape = handle[0].shape[:1]
    return all(
        type(r) is np.ndarray and r.dtype == np.uint64 and r.shape == shape for r in handle
    )


#: Per-thread scratch, see :func:`_scratch`.
_LOCAL = threading.local()


def _scratch(shape, count: int) -> np.ndarray:
    """``count`` uint64 arrays of ``shape`` in the calling thread's scratch.

    Slices of one buffer that grows to the largest request seen and is
    kept: a kernel's temporaries live here, its result in a recycled
    slab (``_new``).  Nothing a kernel returns may alias it.
    """
    words = count * prod(shape)
    buf = getattr(_LOCAL, "buf", None)
    if buf is None or buf.size < words:
        buf = np.empty(words, dtype=np.uint64)  # lint: disable=R1 -- kept, never returned
        _LOCAL.buf = buf
    return buf[:words].reshape(count, *shape)


def _pieces(out: np.ndarray, *operands) -> List[tuple]:
    """``(out, *operands)`` cut into the row chunks a kernel visits.

    At most ``_CHUNK_WORDS`` words of ``out`` each (at least a row).  An
    operand of one row, or a constant, serves every chunk whole.
    """
    rows, n = out.shape
    step = max(1, _CHUNK_WORDS // n)
    if rows <= step:
        return [(out, *operands)]
    return [
        tuple(v[lo : lo + step] if v.ndim and len(v) > 1 else v for v in (out, *operands))
        for lo in range(0, rows, step)
    ]


def _fold(x, c, t, out) -> None:
    """``out = x - c if x >= c else x`` without allocating: ``t`` is scratch.

    Uses the uint64 wraparound: for ``x < c``, ``x - c`` wraps above
    ``2^64 - c``, so ``min(x, x - c)`` selects the reduced value.
    """
    np.subtract(x, c, out=t)
    np.minimum(x, t, out=out)


class _Column:
    """The constants of a modulus column -- a function of the primes alone.

    ``p`` is the uint64 ``(L, 1)`` column broadcasting one prime per
    residue row (0-d for a single prime), ``rinv`` the biased reciprocals
    and ``folds`` the multiples ``2^k*p, .., 2p, p`` that reduce a sum of
    ``digits`` products after its one quotient estimate; ``fits`` when
    that sum fits a word (see the module docstring).  Built for primes
    inside the word-size envelope only.
    """

    __slots__ = ("p", "rinv", "folds", "fits")

    def __init__(self, primes: tuple, digits: int):
        top = max(primes)
        shape = (len(primes), 1) if len(primes) > 1 else ()
        self.p = np.array(primes, dtype=np.uint64).reshape(shape)
        bias = 1.0 - (digits + 3) * 2.0**-53
        self.rinv = np.asarray(1.0 / self.p.astype(np.float64) * bias)
        short = (digits * top * (2 * digits + 6) + (1 << 53) - 1).bit_length() - 53
        self.folds = [np.asarray(self.p << _const(k)) for k in reversed(range(short))]
        self.fits = digits * (top - 1) ** 2 < 1 << 63


@lru_cache(maxsize=1024)
def _column(primes: tuple, digits: int = 1) -> _Column:
    """The cached :class:`_Column` of these primes (keyed on their values)."""
    return _Column(primes, digits)


@lru_cache(maxsize=1024)
def _runs(primes: tuple) -> tuple:
    """The ``(rows, column)`` pieces a per-row kernel visits: each run of
    equal primes with 0-d constants when every run is two rows or more
    (a lane of two or more), else the ``(R, 1)`` column (a lane of one)."""
    cuts = [i for i in range(1, len(primes)) if primes[i] != primes[i - 1]]
    pieces = [slice(a, b) for a, b in zip([0, *cuts], [*cuts, len(primes)])]
    if any(r.stop - r.start < 2 for r in pieces):
        return ((slice(None), _column(primes)),)
    return tuple((r, _column((primes[r.start],))) for r in pieces)


def _dot(xs, ys, col: _Column, out: np.ndarray) -> np.ndarray:
    """``out = sum_i xs[i] * ys[i] mod p`` for reduced operands, canonical.

    ``xs`` and ``ys`` are ``digits`` blocks of ``out``'s shape, viewed as
    ``int64`` here (a ``ys`` block may be one row, shared by its digit's
    block): wrapping products and sums have the same bits signed, and
    operands below ``2^63`` cast to ``float64`` faster that way.  The
    accumulate-then-reduce-once of the module docstring: six passes per
    digit, five plus two per fold for the sum.
    """
    digits = len(xs)
    for acc, p, rinv, *rest in _pieces(out, col.p, col.rinv, *xs, *ys, *col.folds):
        legs = _scratch(acc.shape, 4)
        t, (facc, fx, fy) = legs[0], legs[1:].view(np.float64)
        sacc, st = acc.view(np.int64), t.view(np.int64)
        fy = fy[: len(rest[digits])]
        u, f = sacc, facc  # the first product lands in the accumulators
        for x, y in zip(rest[:digits], rest[digits : 2 * digits]):
            x, y = x.view(np.int64), y.view(np.int64)
            np.multiply(x, y, out=u)
            if not col.fits:
                np.copyto(fx, x)
                np.copyto(fy, y)
                np.multiply(fx, fy, out=f)
            if u is st:
                sacc += st
                if not col.fits:
                    facc += fx
            u, f = st, fx
        if col.fits:
            np.copyto(facc, sacc)
        facc *= rinv
        np.copyto(st, facc, casting="unsafe")
        t *= p
        acc -= t
        for c in rest[2 * digits :]:
            _fold(acc, c, t, acc)
    return out


class _Arith:
    """The ratio arithmetic of one prime -- a function of ``(p, signed)``.

    ``signed``: int64 ``p`` and constants, biased float64 ratios, products
    in ``(-2p, 2p)`` from ``|x| < 2^50`` (``lazy``, never ``shoup``).
    Otherwise ``shoup``: 32-bit integer ratios (``4p <= 2^32``), else
    float64 ratios; ``lazy``: products land in ``[0, 2p)`` from operands
    below ``4p`` (``p < 2^48``), else operands and products are fully reduced.
    """

    __slots__ = ("p", "p2", "shoup", "lazy", "signed")

    def __init__(self, p: int, signed: bool = False):
        self.signed = signed
        self.p = np.array(p, dtype=np.int64 if signed else np.uint64)
        self.p2 = _const(2 * p)
        self.shoup = not signed and 4 * p <= _DIRECT_MUL_BOUND
        self.lazy = signed or p < _LAZY_BOUND

    def ratio(self, w: np.ndarray) -> np.ndarray:
        """The quotient ratios of the constants ``w`` (``p``'s dtype)."""
        if self.shoup:
            return np.asarray((w << _U32) // self.p)
        bias = _RATIO_BIAS if self.lazy else 1.0
        return np.asarray(w.astype(np.float64) / np.float64(self.p) * bias)

    def pair(self, c: int):
        """The 0-d ``(w, ratio)`` operands of the reduced constant ``c``."""
        w = np.array(c, dtype=self.p.dtype)
        return w, self.ratio(w)

    def mul(self, x, w, ratio, q, fq, dest) -> None:
        """``dest = x * w mod p`` for constants ``w`` with their ratios.

        ``x`` holds residues below ``4p`` (below ``p`` when not lazy)
        and ``dest`` receives values in ``[0, 2p)`` (``[0, p)``); it may
        be ``x``; signed (int64 views), ``|x| < 2^50`` gives ``(-2p, 2p)``.
        ``q`` (``p``'s dtype) and ``fq`` (float64, unused by Shoup) are
        scratch of ``x``'s size.  A 1-D ``w`` is a twiddle tile: the flat
        operands are viewed ``(-1, tile)`` so that it broadcasts.
        """
        if w.ndim:
            shape = (-1, w.size)
            x, q, dest = x.reshape(shape), q.reshape(shape), dest.reshape(shape)
        if self.shoup:
            np.multiply(x, ratio, out=q)
            q >>= _U32
        else:
            fq = fq.reshape(x.shape)
            np.copyto(fq, x)
            fq *= ratio
            # quotients are below 2^63: the signed cast gives the same
            # bits at half the cost of the unsigned one
            np.copyto(q.view(np.int64), fq, casting="unsafe")
        q *= self.p
        np.multiply(x, w, out=dest)
        dest -= q
        if not self.lazy:
            np.add(dest, self.p, out=q)
            np.minimum(dest, q, out=dest)  # a negative wraps high: picks dest + p
            _fold(dest, self.p, q, dest)


@lru_cache(maxsize=1024)
def _scalar(p: int, scalar: int):
    """The cached ``(arith, w, ratio)`` of one constant under ``p``."""
    ar = _Arith(p)
    return (ar, *ar.pair(scalar % p))


def _addsub(op, a, b, p, out: np.ndarray) -> np.ndarray:
    """``out = a op b mod p`` (``np.add`` / ``np.subtract``), reduced operands.

    A sum lands in ``[0, 2p)`` and folds; a difference below zero wraps
    high, so ``min`` picks the lifted ``d + p``.  ``b`` is a matrix or one
    row, ``a`` a matrix or the constant 0 (a negation).
    """
    fix = np.subtract if op is np.add else np.add
    for o, x, y, c in _pieces(out, a, b, p):
        (t,) = _scratch(o.shape, 1)
        op(x, y, out=o)
        fix(o, c, out=t)
        np.minimum(o, t, out=o)
    return out


def _scalar_mul(x: np.ndarray, scalar: int, p: int, out: np.ndarray) -> np.ndarray:
    """``out = x * scalar mod p`` for a reduced ``(R, n)`` ``x``: one ratio, no division."""
    ar, w, ratio = _scalar(p, scalar)
    for o, v in _pieces(out, x):
        q, fq = _scratch(o.shape, 2)
        ar.mul(v, w, ratio, q, fq.view(np.float64), o)
        if ar.lazy:
            _fold(o, ar.p, q, o)
    return out


class _TwiddleCache(_Arith):
    """One table set's per-stage twiddle operands (built once per tables).

    ``fwd[s]`` / ``inv[s]`` is the ``(w, ratio)`` pair stage ``s`` of
    that direction multiplies by: butterfly ``J`` of the stage with ``m``
    groups uses entry ``m + J mod m`` of the table, so the operand is the
    block ``[m, 2m)`` repeated to at least ``_TILE`` words (the scalar
    entry 1 for ``m = 1``).  The inverse table is un-halved,
    ``2 * inv_root_values_div2 mod p``; ``inv`` runs ``m = n/2 .. 1``, its
    last stage multiplies the difference by ``n^-1 * w_1`` (stored as
    that stage's pair) and the sum by ``n^-1`` (``scale``).

    ``signed`` when ``p (2 log2 n + 1) < 2^50``: int64 tables, float
    ratios (Shoup primes too), ``rinv`` for :func:`_canonical`,
    ``sums[s]`` the pair inverse stage ``s`` multiplies its sum by, if
    any, ``lift`` an inverse's two folds.
    """

    __slots__ = ("fwd", "inv", "scale", "rinv", "sums", "lift")

    def __init__(self, tables: NTTTables):
        p = tables.modulus.value
        super().__init__(p, p * (2 * tables.log_n + 1) < _SIGNED_BOUND)
        n = tables.n
        inv = tables.inv_root_values_div2 * np.uint64(2) % np.uint64(p)
        self.fwd = self._stages(tables.root_values, n)
        self.inv = self._stages(inv, n)[::-1]
        self.inv[-1] = self.pair(tables.inv_n * int(inv[1]) % p)
        self.scale = self.pair(tables.inv_n)
        if self.signed:
            self.rinv = np.asarray(1.0 / p * _RECIP_BIAS)
            self.lift = (_const((1 << 64) - 2 * p), _const(p))
            self.sums, bound = [], p  # times 1 where the sum could pass 2^49
            for _ in range(tables.log_n - 1):
                self.sums.append(self.pair(1) if 2 * bound > _SIGNED_BOUND >> 1 else None)
                bound = 2 * p if self.sums[-1] else 2 * bound
            self.sums.append(self.scale)

    def _stages(self, table: np.ndarray, n: int):
        w = table.astype(self.p.dtype)
        ratio = self.ratio(w)
        stages = [self.pair(int(table[1]))]
        for m in (1 << s for s in range(1, n.bit_length() - 1)):
            reps = max(1, min(_TILE, n >> 1) // m)
            stages.append(tuple(np.tile(a[m : 2 * m], reps) for a in (w, ratio)))
        return stages


def _workspace(words: int):
    """The calling thread's transform scratch for a chunk of ``words`` words.

    Two ``words``-long buffers the stages ping-pong between, three
    half-size uint64 legs, a half-size float64 leg and (the first two legs
    again) a ``words``-long float64 one, all of :func:`_scratch`.
    """
    buf = _scratch((words,), 4)
    legs = buf[2:].reshape(4, words >> 1)
    return buf[0], buf[1], legs[:3], legs[3].view(np.float64), buf[2].view(np.float64)


def _canonical(x, tw: _TwiddleCache, q, fq, out) -> None:
    """``out = x mod p`` in ``[0, p)`` for int64 ``|x| < 2^50`` (``x`` is
    left strictly inside ``(-p, p)``; ``q``, ``fq`` are scratch)."""
    np.copyto(fq, x)
    fq *= tw.rinv
    np.copyto(q, fq, casting="unsafe")
    q *= tw.p
    x -= q
    np.add(x, tw.p, out=q)
    np.minimum(x.view(np.uint64), q.view(np.uint64), out=out)


def _signed_forward(src, dst, stages, tw: _TwiddleCache, t, fq, prod):
    """Forward ``stages``, int64 and unfolded; ``(result, other buffer)``."""
    half = len(src) >> 1
    for w, ratio in stages:
        tw.mul(src[half:], w, ratio, t, fq, prod)
        np.add(src[:half], prod, out=dst[0::2])
        np.subtract(src[:half], prod, out=dst[1::2])
        src, dst = dst, src
    return src, dst


def _signed_inverse(src, dst, stages, tw: _TwiddleCache, s, t, fq):
    """Inverse ``((w, ratio), times)`` stages, int64: ``u - v`` times ``w``
    unlifted, ``u + v`` times ``times`` if any; ``(result, other buffer)``."""
    half = len(src) >> 1
    for (w, ratio), times in stages:
        u, v, lo = src[0::2], src[1::2], dst[:half]
        np.add(u, v, out=lo if times is None else s)
        if times is not None:
            tw.mul(s, *times, t, fq, lo)
        np.subtract(u, v, out=s)
        tw.mul(s, w, ratio, t, fq, dst[half:])
        src, dst = dst, src
    return src, dst


def _forward(rows: np.ndarray, out: np.ndarray, tw: _TwiddleCache) -> None:
    """Algorithm 3 on an ``(R, n)`` chunk into ``out``, see the module docstring."""
    r, n = rows.shape
    half = (r * n) >> 1
    src, dst, (uf, t, prod), fq, wide = _workspace(r * n)
    src.reshape(n, r)[...] = rows.T
    if tw.signed:
        src, dst, t, prod = (a.view(np.int64) for a in (src, dst, t, prod))
        src, dst = _signed_forward(src, dst, tw.fwd, tw, t, fq, prod)
        _canonical(src, tw, dst, wide, out.reshape(-1))
        return
    bound = tw.p2 if tw.lazy else tw.p  # residues stay below twice this
    for w, ratio in tw.fwd:
        u, v = src[:half], src[half:]
        _fold(u, bound, t, uf)
        if not tw.lazy:
            _fold(v, bound, t, v)  # the strict product wants v < p
        tw.mul(v, w, ratio, t, fq, prod)
        np.add(uf, prod, out=dst[0::2])
        uf += bound
        np.subtract(uf, prod, out=dst[1::2])
        src, dst = dst, src
    if tw.lazy:
        _fold(src, tw.p2, dst, src)
    _fold(src, tw.p, dst, out.reshape(-1))


def _inverse(rows: np.ndarray, out: np.ndarray, tw: _TwiddleCache) -> None:
    """Algorithm 4 on an ``(R, n)`` chunk into ``out``, see the module docstring."""
    r, n = rows.shape
    half = (r * n) >> 1
    src, dst, (s, t, d), fq, _ = _workspace(r * n)
    np.copyto(src.reshape(r, n), rows)
    if tw.signed:
        src, dst, s, t = (a.view(np.int64) for a in (src, dst, s, t))
        src, dst = _signed_inverse(src, dst, zip(tw.inv, tw.sums), tw, s, t, fq)
        src, dst = (a.view(np.uint64) for a in (src, dst))
        for c in tw.lift:  # the last stage's products, (-2p, 2p): + 2p, then - p
            _fold(src, c, dst, src)
        out[...] = src.reshape(n, r).T
        return
    bound = tw.p2 if tw.lazy else tw.p  # residues stay below this
    for left, (w, ratio) in zip(range(len(tw.inv) - 1, -1, -1), tw.inv):
        u, v = src[0::2], src[1::2]
        lo, hi = dst[:half], dst[half:]
        np.add(u, v, out=s)
        if left:
            _fold(s, bound, t, lo)
        else:  # the last stage scales both legs by n^-1
            _fold(s, bound, t, s)
            tw.mul(s, *tw.scale, t, fq, lo)
        np.subtract(u, v, out=d)
        d += bound
        if not tw.lazy:
            _fold(d, bound, t, d)  # the strict product wants d < p
        tw.mul(d, w, ratio, t, fq, hi)
        src, dst = dst, src
    _fold(src, tw.p, dst, src)
    out[...] = src.reshape(n, r).T  # fused into the fold it costs 2-4x: 2-D operands


def _transform(rows: np.ndarray, tables: NTTTables, inverse: bool, out=None) -> np.ndarray:
    """Transform every row of an ``(R, n)`` stack into ``out`` (default: new)."""
    r, n = rows.shape
    if n != tables.n:
        raise ValueError(f"expected {tables.n} coefficients, got {n}")
    tw = getattr(tables, _CACHE_ATTR, None)
    if tw is None:
        tw = _TwiddleCache(tables)
        setattr(tables, _CACHE_ATTR, tw)
    if out is None:
        out = _new(rows.shape)
    core = _inverse if inverse else _forward
    for o, v in _pieces(out, rows):
        core(v, o, tw)
    return out


class NumpyBackend(PolynomialBackend):
    """Stage-vectorized uint64 kernels with reference fallback.

    The native handle is a C-contiguous ``(R, n)`` uint64 matrix -- the
    software stand-in for a BRAM-resident operand.  Per-row-modulus
    kernels visit a lane's same-prime runs (:func:`_runs`), a lane of
    one against its ``(R, 1)`` column.  A prime outside the envelope, or
    rows that are not single words, send the call to the same kernel of
    the reference backend.
    """

    name = "numpy"
    native_is_python = False

    def __init__(self):
        self._fallback = ReferenceBackend()

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @staticmethod
    def supports(modulus: Modulus) -> bool:
        """True when this prime is inside the word-size-safe envelope."""
        return modulus.value < _WORD_SAFE_BOUND

    @staticmethod
    def _matrix(handle) -> np.ndarray:
        """Lift a row-stack or residue matrix to uint64 (no-op if it is one).

        Raises ``OverflowError``/``ValueError``/``TypeError`` on rows
        that cannot be represented (signed or multi-word coefficients);
        callers fall back to the reference backend in that case.
        """
        if isinstance(handle, np.ndarray) and handle.dtype == np.uint64:
            return handle
        if _row_views(handle):
            # resident rows restacked (a lane's blocks, the digits of a
            # key switch): one copy, into a recycled matrix
            out = _new((len(handle), len(handle[0])))
            np.concatenate(handle, out=out.reshape(-1))
            return out
        return np.asarray(handle, dtype=np.uint64)

    def _lift(self, moduli, *handles):
        """The primes and lifted operands of a per-row-modulus kernel.

        ``None`` sends the call to the reference backend: a prime
        outside the envelope or rows that are not single words.  Lifted
        operands must all be ``(len(moduli), n)`` -- numpy's implicit
        broadcasting must not accept what the reference rejects.
        """
        if not len(moduli):
            return None
        primes = tuple(m.value for m in moduli)
        if max(primes) >= _WORD_SAFE_BOUND:
            return None
        try:
            mats = [self._matrix(h) for h in handles]
        except (OverflowError, ValueError, TypeError):
            return None
        shape = (len(moduli), mats[0].shape[-1])
        if any(m.shape != shape for m in mats):
            shapes = [m.shape for m in mats]
            raise ValueError(f"row count or width mismatch: {shapes} for {shape[0]} moduli")
        return (primes, *mats)

    # ------------------------------------------------------------------
    # handles
    # ------------------------------------------------------------------
    def from_rows(self, rows):
        try:
            return self._matrix(rows)
        except (OverflowError, ValueError, TypeError):
            return self._fallback.from_rows(rows)

    def to_rows(self, handle):
        if isinstance(handle, np.ndarray):
            return handle.tolist()
        return self._fallback.to_rows(handle)

    def copy_rows(self, handle):
        if isinstance(handle, np.ndarray) and handle.dtype == np.uint64:
            out = _new(handle.shape)
            np.copyto(out, handle)
            return out
        try:
            return np.array(handle, dtype=np.uint64)
        except (OverflowError, ValueError, TypeError):
            return self._fallback.copy_rows(handle)

    def set_row(self, handle, i: int, row) -> None:
        if not isinstance(handle, np.ndarray):
            return self._fallback.set_row(handle, i, row)
        if len(row) != handle.shape[1]:  # a one-wide row would broadcast
            raise ValueError(f"row width mismatch: {len(row)} into {handle.shape[1]}")
        # explicit uint64 lift: plain assignment would route python
        # ints through a signed intermediate and overflow at 2^63
        handle[i] = row if isinstance(row, np.ndarray) else np.asarray(
            row, dtype=np.uint64
        )

    def select_rows(self, handle, indices):
        if isinstance(handle, np.ndarray):
            index = np.asarray(list(indices), dtype=np.intp)
            if handle.dtype != np.uint64:
                return handle[index]
            if index.size and not -len(handle) <= index.min() <= index.max() < len(handle):
                raise IndexError(f"row index out of range for {len(handle)} rows")
            out = _new((len(index), *handle.shape[1:]))
            return np.take(handle, index, axis=0, out=out, mode="wrap")
        return self._fallback.select_rows(handle, indices)

    def native_stack(self, stack: RowStack) -> RowStack:
        """Lift to ``(R, n)`` uint64 once so later kernels skip conversion."""
        try:
            return self._matrix(stack)
        except (OverflowError, ValueError, TypeError):
            return self._fallback.native_stack(stack)  # out-of-word rows stay lists

    # ------------------------------------------------------------------
    # one modulus per row
    # ------------------------------------------------------------------
    def _per_run(self, name: str, kernel, moduli, *handles):
        """``kernel(column, out, *operands)`` over each piece of
        :func:`_runs` (the reference's kernel ``name`` outside the envelope)."""
        lifted = self._lift(moduli, *handles)
        if lifted is None:
            return getattr(self._fallback, name)(moduli, *handles)
        primes, *mats = lifted
        out = _new(mats[0].shape)
        for rows, col in _runs(primes):
            kernel(col, out[rows], *(m[rows] for m in mats))
        return out

    def add_rows(self, moduli, a, b):
        return self._per_run(
            "add_rows", lambda c, o, x, y: _addsub(np.add, x, y, c.p, o), moduli, a, b
        )

    def sub_rows(self, moduli, a, b):
        return self._per_run(
            "sub_rows", lambda c, o, x, y: _addsub(np.subtract, x, y, c.p, o), moduli, a, b
        )

    def negate_rows(self, moduli, a):
        return self._per_run(
            "negate_rows", lambda c, o, x: _addsub(np.subtract, _ZERO, x, c.p, o), moduli, a
        )

    def dyadic_mul_rows(self, moduli, a, b):
        return self._per_run(
            "dyadic_mul_rows", lambda c, o, x, y: _dot([x], [y], c, o), moduli, a, b
        )

    def dyadic_mac_rows(self, moduli, acc, x, y):
        mac = lambda c, o, s, u, v: _addsub(np.add, _dot([u], [v], c, o), s, c.p, o)  # noqa: E731
        return self._per_run("dyadic_mac_rows", mac, moduli, acc, x, y)

    def scalar_mul_rows(self, moduli, a, scalars):
        lifted = self._lift(moduli, a)
        if lifted is None:
            return self._fallback.scalar_mul_rows(moduli, a, scalars)
        if len(scalars) != len(moduli):  # the runs below would leave rows unwritten
            raise ValueError(f"{len(scalars)} scalars for {len(moduli)} moduli")
        primes, x = lifted
        out, lo = _new(x.shape), 0
        for (p, s), run in groupby(zip(primes, scalars)):  # runs of equal (p, s)
            hi, s = lo + len(list(run)), s % p
            v, o = x[lo:hi], out[lo:hi]
            if s in (2, p - 1):  # the kernels, so the bits, of add_rows(v, v) / negate_rows(v)
                op, lhs = (np.add, v) if s == 2 else (np.subtract, _ZERO)
                _addsub(op, lhs, v, _column((p,)).p, o)
            else:
                _scalar_mul(v, s, p, o)
            lo = hi
        return out

    def ntt_forward_rows(self, tables_list, rows):
        return self._ntt_rows(tables_list, rows, inverse=False)

    def ntt_inverse_rows(self, tables_list, rows):
        return self._ntt_rows(tables_list, rows, inverse=True)

    def _ntt_rows(self, tables_list, rows, inverse: bool):
        """One transform per (modulus, row) on a resident matrix.

        Each row transforms into one output matrix -- no boundary
        conversion per row; rows under out-of-envelope primes transform
        through the reference fallback and are re-lifted into the matrix.
        """
        fb = self._fallback
        try:
            mat = self._matrix(rows)
        except (OverflowError, ValueError, TypeError):
            whole = fb.ntt_inverse_rows if inverse else fb.ntt_forward_rows
            return whole(tables_list, rows)
        if len(tables_list) != mat.shape[0]:
            raise ValueError(
                f"expected {len(tables_list)} rows, got {mat.shape[0]}"
            )
        out = _new(mat.shape)
        for i, tables in enumerate(tables_list):
            if self.supports(tables.modulus):
                _transform(mat[i : i + 1], tables, inverse, out[i : i + 1])
            else:
                one = fb.ntt_inverse_stack if inverse else fb.ntt_forward_stack
                out[i] = np.asarray(one(tables, mat[i : i + 1])[0], dtype=np.uint64)
        return out

    def galois_rows(self, moduli, handle, mapping):
        lifted = self._lift(moduli, handle)
        if lifted is None:
            return self._fallback.galois_rows(moduli, handle, mapping)
        primes, arr = lifted
        self._check_width(arr, [mapping])
        n = len(mapping)
        dest = np.fromiter((d for d, _ in mapping), dtype=np.intp, count=n)
        flip = np.fromiter((f for _, f in mapping), dtype=bool, count=n)
        vals = np.where(flip[None, :] & (arr != 0), _column(primes).p - arr, arr)
        out = _new(vals.shape)
        out[:, dest] = vals
        return out

    # ------------------------------------------------------------------
    # one modulus per stack: one whole-array pass over all R rows at
    # once, returning the (R, n) uint64 array itself, so chains of
    # stacked kernels -- the batched KeySwitch dataflow -- never
    # round-trip through Python lists.
    # ------------------------------------------------------------------
    def ntt_forward_stack(self, tables: NTTTables, stack: RowStack) -> RowStack:
        if not self.supports(tables.modulus) or not len(stack):
            return self._fallback.ntt_forward_stack(tables, stack)
        return _transform(self._matrix(stack), tables, False)

    def ntt_inverse_stack(self, tables: NTTTables, stack: RowStack) -> RowStack:
        if not self.supports(tables.modulus) or not len(stack):
            return self._fallback.ntt_inverse_stack(tables, stack)
        return _transform(self._matrix(stack), tables, True)

    def reduce_mod_stack(self, modulus: Modulus, stack: RowStack) -> RowStack:
        if not self.supports(modulus) or not len(stack):
            return self._fallback.reduce_mod_stack(modulus, stack)
        try:
            arr = self._matrix(stack)
        except (OverflowError, ValueError):
            return self._fallback.reduce_mod_stack(modulus, stack)
        out, p = _new(arr.shape), _column((modulus.value,)).p
        if int(arr.max()) >= 2 * modulus.value:
            return np.remainder(arr, p, out=out)
        # residues of a prime of the same size (the usual RNS basis):
        # one fold instead of the one non-SIMD pass, a division
        _fold(arr, p, out, out)
        return out

    def sub_stack(self, modulus: Modulus, a: RowStack, b) -> RowStack:
        if not self.supports(modulus) or not len(a):
            return self._fallback.sub_stack(modulus, a, b)
        arr, other = self._matrix(a), self._matrix(b)
        if other.ndim == 1:
            other = other[None, :]  # one row against every row of the stack
        elif len(other) != len(arr):
            # as the base class's ``_rows_of``: numpy's implicit (1, n)
            # broadcasting must not accept what the reference rejects
            raise ValueError(f"stack length mismatch: {len(other)} vs {len(arr)} rows")
        self._check_width(arr, other)
        return _addsub(np.subtract, arr, other, _column((modulus.value,)).p, _new(arr.shape))

    def scalar_mul_stack(self, modulus: Modulus, a: RowStack, scalar: int) -> RowStack:
        if not self.supports(modulus) or not len(a):
            return self._fallback.scalar_mul_stack(modulus, a, scalar)
        arr = self._matrix(a)
        return _scalar_mul(arr, scalar, modulus.value, _new(arr.shape))

    def dyadic_stack_reduce(self, modulus: Modulus, x: RowStack, y: RowStack):
        digits = len(y)
        if not self.supports(modulus) or not len(x) or not digits:
            return self._fallback.dyadic_stack_reduce(modulus, x, y)
        if len(x) % digits:
            raise ValueError(f"stack length mismatch: {len(x)} vs {len(y)} rows")
        xs, ys = self._matrix(x), self._matrix(y)
        self._check_width(xs, ys)
        # digit-major: block ``i`` of ``xs`` shares key row ``ys[i]``
        xs = xs.reshape(digits, len(xs) // digits, -1)
        ys = ys[:, None, :]
        out = None
        for lo in range(0, digits, _MAX_DIGITS):
            block = slice(lo, lo + _MAX_DIGITS)
            col = _column((modulus.value,), len(xs[block]))
            part = _dot(xs[block], ys[block], col, _new(xs[0].shape))
            out = part if out is None else _addsub(np.add, out, part, col.p, out)
        return out

    def permute_ntt_stack(self, stack: RowStack, table) -> RowStack:
        if not len(stack):
            return self._fallback.permute_ntt_stack(stack, table)
        table = np.asarray(table, dtype=np.intp)
        try:
            # no arithmetic happens, so any uint64-representable rows
            # qualify regardless of the word-size envelope; a matrix of
            # tables gathers row by row, resident rows where they are
            arr = stack if table.ndim == 2 and _row_views(stack) else self._matrix(stack)
        except (OverflowError, ValueError):
            return self._fallback.permute_ntt_stack(stack, table)
        rows = self._gathered_rows(arr, table) if table.ndim == 2 else arr
        # one range check per call buys the unchecked gather (3x cheaper a
        # row); viewed unsigned, a negative index reads as a huge one
        if not table.size or table.view(np.uintp).max() >= len(arr[0]):
            # wraps or raises IndexError as a list does
            arr = self._matrix(arr)
            return arr[:, table] if table.ndim == 1 else np.take_along_axis(arr, table, 1)
        if table.ndim == 1:
            out = _new((len(arr), len(table)))
            return np.take(arr, table, axis=1, out=out, mode="clip")
        out = _new(table.shape)
        for row, index, dest in zip(rows, table, out):
            np.take(row, index, out=dest, mode="clip")
        return out

    def decompose_native(self, moduli, coeffs):
        arr = None
        if isinstance(coeffs, np.ndarray) and coeffs.dtype in (
            np.dtype(np.int64),
            np.dtype(np.uint64),
        ):
            arr = coeffs
        else:
            try:
                arr = np.asarray(coeffs, dtype=np.uint64)
            except (OverflowError, ValueError, TypeError):
                try:
                    # signed single-word coefficients (rounded encoder
                    # output): np.remainder on int64 is exact and lands
                    # in [0, p)
                    arr = np.asarray(coeffs, dtype=np.int64)
                except (OverflowError, ValueError, TypeError):
                    arr = None
        if arr is None:
            # multi-word coefficients: big-int reduction is the exact path
            return self._fallback.decompose_native(moduli, coeffs)
        out = _new((len(moduli), len(arr)))
        low = min((m.value for m in moduli), default=0)
        signed = arr.dtype == np.int64 and len(arr)
        if signed and -low < int(arr.min()) and int(arr.max()) < low:
            # every |x| < p (errors, secrets): x, or x + p wrapping in
            # uint64 for a negative x -- no division
            sign = (arr >> np.int64(63)).view(np.uint64)  # all ones if x < 0
            for i, m in enumerate(moduli):
                np.add(arr.view(np.uint64), sign & np.uint64(m.value), out=out[i])
            return out
        for i, m in enumerate(moduli):
            out[i] = np.remainder(arr, arr.dtype.type(m.value))
        return out
