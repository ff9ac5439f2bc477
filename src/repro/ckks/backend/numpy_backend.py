"""Vectorized NumPy backend: every butterfly stage a few flat array passes.

The software analogue of the paper's observation that CKKS time is won
by *wide* parallelism over butterflies, not by faster scalar operations:
a transform is ``log n`` stages, each about eleven whole-array NumPy
passes over all butterflies of all stacked rows at once.

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
``root_powers[m + J mod m]``, and after ``log n`` shuffles the buffer
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

**Arithmetic: a precomputed quotient ratio per constant, three regimes
chosen from ``p`` alone** (:class:`_Arith`).  ``x*w mod p`` is
``x*w - q*p`` in wrapping ``uint64`` with ``q ~ floor(x*w/p)`` estimated
from a stored ``ratio ~ w/p`` -- no division at run time:

* *Shoup-lazy*, ``4p <= 2^32``: ``ratio = floor(w * 2^32 / p)`` and
  ``q = (x * ratio) >> 32`` (Algorithm 2 with a 32-bit ratio).  The two
  floors lose less than one each, so for ``x < 2^32`` the estimate is the
  true quotient or one less: the remainder is in ``[0, 2p)`` with no fold.
* *float-lazy*, ``p < 2^48``: ``ratio = float64(w)/p * (1 - 2^-51)`` and
  ``q = trunc(float64(x) * ratio)``.  Three roundings of ``2^-53`` cannot
  undo the bias, so the estimate never exceeds the true quotient, and it
  is within one of it while ``4p * 7 * 2^-53 <= 1``: ``[0, 2p)`` again,
  for every ``x < 4p``.
* *float-strict*, ``2^48 <= p < 2^52`` (the HEAX ``w = 54`` word bound):
  the unbiased ratio and ``x < p``.  ``x*w/p < 2^52`` keeps the estimate
  within one *either way*, the remainder in ``[-p, 2p)``; a lifting fold
  and the usual fold land it in ``[0, p)``.

The lazy regimes run Harvey's butterflies: residues stay in ``[0, 4p)``
forward (one fold of ``u`` per stage) and ``[0, 2p)`` inverse, with one
final fold per transform.  The inverse multiplies by the un-halved
twiddles ``2 * inv_root_powers_div2 mod p`` and folds ``n^-1`` into its
last stage's two constants instead of halving every stage as Algorithm 4
does.  The strict regime runs the same butterflies with every bound
halved and one more fold, of the product's operand.  Either way the
outputs are the canonical residues, bit-identical to the reference
backend (``tests/ckks/test_ntt_kernel.py``).  ``p >= 2^52`` is
outside the word-size-safe envelope (e.g. SEAL's 61-bit primes): every
operation falls back to the reference backend.

Products of two arrays have no ratio to precompute and take
:func:`_mulmod`.  All boundary data stays in the canonical list-of-int
row format (see :mod:`repro.ckks.backend.base`).
"""

from __future__ import annotations

import threading
from typing import List, Sequence

import numpy as np

from repro.ckks.backend.base import (
    PolynomialBackend,
    RowStack,
    is_row,
)
from repro.ckks.backend.reference import ReferenceBackend
from repro.ckks.modarith import Modulus
from repro.ckks.ntt import NTTTables

#: Products of operands below this bound fit a native uint64 multiply.
_DIRECT_MUL_BOUND = 1 << 32

#: Float-estimated quotients are within one of the true quotient only
#: while ``a*b/p < 2^52`` stays inside the float64 mantissa; this is
#: exactly the HEAX ``p < 2^(w-2)`` bound for w = 54.
_WORD_SAFE_BOUND = 1 << 52

#: Below this bound the biased float ratio serves lazy operands up to
#: ``4p`` (``4p * 7 * 2^-53 <= 1``, see the module docstring).
_LAZY_BOUND = 1 << 48
_RATIO_BIAS = 1.0 - 2.0**-51

#: A transform runs its stack in chunks of at most this many words
#: (``32768 / n`` rows, at least one), so that the workspace of four
#: chunks stays L2-resident however tall the stack is.
_CHUNK_WORDS = 1 << 15

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


def _mulmod(a: np.ndarray, b, p) -> np.ndarray:
    """Exact ``a * b mod p`` for uint64 operands reduced below ``p``.

    ``p`` may be a scalar int or an already-uint64 ``(L, 1)`` modulus
    column that broadcasts one prime per residue row -- the shape the
    whole-matrix ``*_rows`` kernels use.
    """
    per_row = isinstance(p, np.ndarray)
    if per_row and p.min() < _DIRECT_MUL_BOUND <= p.max():
        # the column spans both regimes: each run of same-regime rows (a
        # lane's modulus blocks are contiguous) takes its own path
        small = p.ravel() < _DIRECT_MUL_BOUND
        edges = [0, *(np.flatnonzero(small[1:] != small[:-1]) + 1), len(small)]
        out = np.empty_like(a)
        for lo, hi in zip(edges, edges[1:]):
            out[lo:hi] = _mulmod(a[lo:hi], b[lo:hi], p[lo:hi])
        return out
    if (int(p.max()) if per_row else p) < _DIRECT_MUL_BOUND:
        prod = a * b
        prod %= p if per_row else np.uint64(p)
        return prod
    # Barrett with a float64 quotient estimate: a*b/p < 2^52 carries a
    # relative error below 2^-52, so the truncated estimate is off by at
    # most one either way and the wrapped remainder a*b - q*p lies in
    # [-p, 2p): a lifting fold (a negative wraps high, so min picks
    # r + p) and the usual final fold land it in [0, p).  Three
    # temporaries in all, however tall the stack.
    pu = p if per_row else np.uint64(p)
    quot = a.astype(np.float64) * b
    quot /= p.astype(np.float64) if per_row else p
    q = quot.astype(np.uint64)
    q *= pu
    r = a * b
    r -= q
    np.add(r, pu, out=q)
    np.minimum(r, q, out=r)
    _fold(r, pu, q, r)
    return r


def _cond_sub(x: np.ndarray, p) -> np.ndarray:
    """Lazy reduction of values in ``[0, 2p)`` into ``[0, p)``, in place.

    Uses the uint64 wraparound: for ``x < p``, ``x - p`` wraps above
    ``2^64 - p``, so ``min(x, x - p)`` selects the reduced value with a
    single temporary instead of a mask + select.  ``x`` must be a
    freshly-allocated array the caller owns (every call site passes the
    result of an arithmetic expression); it is overwritten and returned.
    ``p`` is a scalar int or a uint64 per-row modulus column.
    """
    pu = p if isinstance(p, np.ndarray) else np.uint64(p)
    np.minimum(x, x - pu, out=x)
    return x


def _submod(a: np.ndarray, b, p) -> np.ndarray:
    """``a - b mod p`` for reduced operands: wrap into ``[0, 2p)``, reduce."""
    d = a - b
    d += p if isinstance(p, np.ndarray) else np.uint64(p)  # now in (0, 2p)
    return _cond_sub(d, p)


def _fold(x, c, t, out) -> None:
    """:func:`_cond_sub` by ``c`` without allocating: ``t`` is scratch."""
    np.subtract(x, c, out=t)
    np.minimum(x, t, out=out)


class _Arith:
    """The ratio arithmetic of one prime -- a function of ``p`` alone.

    ``shoup``: 32-bit integer ratios (``4p <= 2^32``), else float64
    ratios; ``lazy``: products land in ``[0, 2p)`` from operands below
    ``4p`` (``p < 2^48``), else operands and products are fully reduced.
    """

    __slots__ = ("p", "p2", "shoup", "lazy")

    def __init__(self, p: int):
        self.p = _const(p)
        self.p2 = _const(2 * p)
        self.shoup = 4 * p <= _DIRECT_MUL_BOUND
        self.lazy = p < _LAZY_BOUND

    def ratio(self, w: np.ndarray) -> np.ndarray:
        """The quotient ratios of the uint64 constants ``w``."""
        if self.shoup:
            return np.asarray((w << _U32) // self.p)
        bias = _RATIO_BIAS if self.lazy else 1.0
        return np.asarray(w.astype(np.float64) / np.float64(self.p) * bias)

    def pair(self, c: int):
        """The 0-d ``(w, ratio)`` operands of the reduced constant ``c``."""
        w = _const(c)
        return w, self.ratio(w)

    def mul(self, x, w, ratio, q, fq, dest) -> None:
        """``dest = x * w mod p`` for constants ``w`` with their ratios.

        ``x`` holds residues below ``4p`` (below ``p`` when not lazy)
        and ``dest`` receives values in ``[0, 2p)`` (``[0, p)``); it may
        be ``x``.  ``q`` (uint64) and ``fq`` (float64, unused by Shoup)
        are scratch of ``x``'s size.  A 1-D ``w`` is a twiddle tile: the
        flat operands are viewed ``(-1, tile)`` so that it broadcasts.
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


def _scalar_mul(x: np.ndarray, scalar: int, p: int, out=None) -> np.ndarray:
    """``x * scalar mod p`` for reduced ``x``: one ratio, no division."""
    ar = _Arith(p)
    q = np.empty_like(x)
    out = np.empty_like(x) if out is None else out
    fq = None if ar.shoup else np.empty(x.shape, dtype=np.float64)
    ar.mul(x, *ar.pair(scalar % p), q, fq, out)
    if ar.lazy:
        _fold(out, ar.p, q, out)
    return out


class _TwiddleCache(_Arith):
    """One table set's per-stage twiddle operands (built once per tables).

    ``fwd[s]`` / ``inv[s]`` is the ``(w, ratio)`` pair stage ``s`` of
    that direction multiplies by: butterfly ``J`` of the stage with ``m``
    groups uses entry ``m + J mod m`` of the table, so the operand is the
    block ``[m, 2m)`` repeated to at least ``_TILE`` words (the scalar
    entry 1 for ``m = 1``).  The inverse table is un-halved,
    ``2 * inv_root_powers_div2 mod p``; ``inv`` runs ``m = n/2 .. 1``, its
    last stage multiplies the difference by ``n^-1 * w_1`` (stored as
    that stage's pair) and the sum by ``n^-1`` (``scale``).
    """

    __slots__ = ("fwd", "inv", "scale")

    def __init__(self, tables: NTTTables):
        p = tables.modulus.value
        super().__init__(p)
        n = tables.n
        fwd = [c.value for c in tables.root_powers]
        inv = [2 * c.value % p for c in tables.inv_root_powers_div2]
        self.fwd = self._stages(fwd, n)
        self.inv = self._stages(inv, n)[::-1]
        self.inv[-1] = self.pair(tables.inv_n * inv[1] % p)
        self.scale = self.pair(tables.inv_n)

    def _stages(self, table, n: int):
        w = np.array(table, dtype=np.uint64)
        ratio = self.ratio(w)
        stages = [self.pair(table[1])]
        for m in (1 << s for s in range(1, n.bit_length() - 1)):
            reps = max(1, min(_TILE, n >> 1) // m)
            stages.append(tuple(np.tile(a[m : 2 * m], reps) for a in (w, ratio)))
        return stages


#: Per-thread transform workspace, see :func:`_workspace`.
_LOCAL = threading.local()


def _workspace(words: int):
    """The calling thread's scratch for a chunk of ``words`` words.

    Two ``words``-long buffers the stages ping-pong between, three
    half-size uint64 legs and a half-size float64 leg: slices of one
    buffer that grows to the largest chunk seen and is kept, so a
    transform allocates nothing but its result and tall stacks do not
    churn the top of the heap (which glibc hands back to the OS and
    page-faults in again -- about 5 % of an 8-wide Set-A flush).
    """
    buf = getattr(_LOCAL, "buf", None)
    if buf is None or buf.size < 4 * words:
        buf = _LOCAL.buf = np.empty(4 * words, dtype=np.uint64)
    half = words >> 1
    legs = buf[2 * words : 4 * words].reshape(4, half)
    return buf[:words], buf[words : 2 * words], legs[:3], legs[3].view(np.float64)


def _forward(rows: np.ndarray, out: np.ndarray, tw: _TwiddleCache) -> None:
    """Algorithm 3 on an ``(R, n)`` chunk into ``out``, see the module docstring."""
    r, n = rows.shape
    half = (r * n) >> 1
    src, dst, (uf, t, prod), fq = _workspace(r * n)
    src.reshape(n, r)[...] = rows.T
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
    src, dst, (s, t, d), fq = _workspace(r * n)
    np.copyto(src.reshape(r, n), rows)
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
        out = np.empty(rows.shape, dtype=np.uint64)
    core = _inverse if inverse else _forward
    step = max(1, _CHUNK_WORDS // n)
    for lo in range(0, r, step):
        core(rows[lo : lo + step], out[lo : lo + step], tw)
    return out


class NumpyBackend(PolynomialBackend):
    """Stage-vectorized uint64 kernels with reference fallback."""

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

    @classmethod
    def _supports_all(cls, moduli) -> bool:
        return all(m.value < _WORD_SAFE_BOUND for m in moduli)

    @staticmethod
    def _matrix(handle) -> np.ndarray:
        """Lift a row, row-stack or residue matrix to uint64 (no-op if it is one).

        Raises ``OverflowError``/``ValueError``/``TypeError`` on rows
        that cannot be represented (signed or multi-word coefficients);
        callers fall back to the canonical-list defaults in that case.
        """
        if isinstance(handle, np.ndarray) and handle.dtype == np.uint64:
            return handle
        return np.asarray(handle, dtype=np.uint64)

    @staticmethod
    def _pcol(moduli) -> np.ndarray:
        """The ``(L, 1)`` modulus column broadcasting one prime per row."""
        return np.array([[m.value] for m in moduli], dtype=np.uint64)

    def native_stack(self, stack: RowStack) -> RowStack:
        """Lift to ``(R, n)`` uint64 once so later kernels skip conversion."""
        try:
            return self._matrix(stack)
        except (OverflowError, ValueError, TypeError):
            return stack  # out-of-word rows stay lists for the fallback path

    # ------------------------------------------------------------------
    # resident residue matrices: the native handle is a C-contiguous
    # (L, n) uint64 matrix -- the software stand-in for a BRAM-resident
    # operand.  Whole-polynomial kernels broadcast an (L, 1) modulus
    # column so one array pass covers every RNS row at once.
    # ------------------------------------------------------------------
    def make_rows(self, count: int, n: int):
        return np.zeros((count, n), dtype=np.uint64)

    def from_rows(self, rows):
        try:
            return self._matrix(rows)
        except (OverflowError, ValueError, TypeError):
            return super().from_rows(rows)

    def to_rows(self, handle):
        if isinstance(handle, np.ndarray):
            return handle.tolist()
        return super().to_rows(handle)

    def copy_rows(self, handle):
        if isinstance(handle, np.ndarray):
            return handle.copy()
        try:
            return np.array(handle, dtype=np.uint64)
        except (OverflowError, ValueError, TypeError):
            return super().copy_rows(handle)

    def set_row(self, handle, i: int, row) -> None:
        if isinstance(handle, np.ndarray):
            # explicit uint64 lift: plain assignment would route python
            # ints through a signed intermediate and overflow at 2^63
            handle[i] = row if isinstance(row, np.ndarray) else np.asarray(
                row, dtype=np.uint64
            )
        else:
            super().set_row(handle, i, row)

    def select_rows(self, handle, indices):
        if isinstance(handle, np.ndarray):
            return handle[list(indices)]
        return super().select_rows(handle, indices)

    def insert_row(self, handle, index: int, row):
        if isinstance(handle, np.ndarray):
            r = row if isinstance(row, np.ndarray) else np.asarray(row, dtype=np.uint64)
            return np.concatenate([handle[:index], r[None, :], handle[index:]])
        return super().insert_row(handle, index, row)

    def _rows_pair(self, moduli, a, b):
        """Lift both operands of a whole-matrix kernel, or signal fallback."""
        if not self._supports_all(moduli):
            return None
        try:
            return self._matrix(a), self._matrix(b)
        except (OverflowError, ValueError, TypeError):
            return None

    def add_rows(self, moduli, a, b):
        self._check_rows_count(moduli, a, b)
        ab = self._rows_pair(moduli, a, b)
        if ab is None:
            return super().add_rows(moduli, a, b)
        return _cond_sub(ab[0] + ab[1], self._pcol(moduli))

    def sub_rows(self, moduli, a, b):
        self._check_rows_count(moduli, a, b)
        ab = self._rows_pair(moduli, a, b)
        if ab is None:
            return super().sub_rows(moduli, a, b)
        return _submod(ab[0], ab[1], self._pcol(moduli))

    def negate_rows(self, moduli, a):
        self._check_rows_count(moduli, a)
        if not self._supports_all(moduli):
            return super().negate_rows(moduli, a)
        try:
            arr = self._matrix(a)
        except (OverflowError, ValueError, TypeError):
            return super().negate_rows(moduli, a)
        out = self._pcol(moduli) - arr
        np.minimum(out, np.uint64(0) - arr, out=out)
        return out

    def dyadic_mul_rows(self, moduli, a, b):
        self._check_rows_count(moduli, a, b)
        ab = self._rows_pair(moduli, a, b)
        if ab is None:
            return super().dyadic_mul_rows(moduli, a, b)
        return _mulmod(ab[0], ab[1], self._pcol(moduli))

    def dyadic_mac_rows(self, moduli, acc, x, y):
        self._check_rows_count(moduli, acc, x, y)
        xy = self._rows_pair(moduli, x, y)
        if xy is None:
            return super().dyadic_mac_rows(moduli, acc, x, y)
        try:
            acc_m = self._matrix(acc)
        except (OverflowError, ValueError, TypeError):
            return super().dyadic_mac_rows(moduli, acc, x, y)
        pcol = self._pcol(moduli)
        return _cond_sub(acc_m + _mulmod(xy[0], xy[1], pcol), pcol)

    def scalar_mul_rows(self, moduli, a, scalars):
        self._check_rows_count(moduli, a)
        if not self._supports_all(moduli):
            return super().scalar_mul_rows(moduli, a, scalars)
        try:
            arr = self._matrix(a)
        except (OverflowError, ValueError, TypeError):
            return super().scalar_mul_rows(moduli, a, scalars)
        out = np.empty_like(arr)
        for i, (m, s) in enumerate(zip(moduli, scalars)):
            _scalar_mul(arr[i], s, m.value, out[i])
        return out

    def galois_rows(self, moduli, handle, mapping):
        self._check_rows_count(moduli, handle)
        if not self._supports_all(moduli):
            return super().galois_rows(moduli, handle, mapping)
        try:
            arr = self._matrix(handle)
        except (OverflowError, ValueError, TypeError):
            return super().galois_rows(moduli, handle, mapping)
        n = len(mapping)
        dest = np.fromiter((d for d, _ in mapping), dtype=np.intp, count=n)
        flip = np.fromiter((f for _, f in mapping), dtype=bool, count=n)
        vals = np.where(flip[None, :] & (arr != 0), self._pcol(moduli) - arr, arr)
        out = np.empty_like(vals)
        out[:, dest] = vals
        return out

    def ntt_forward_rows(self, tables_list, rows):
        return self._ntt_rows(tables_list, rows, inverse=False)

    def ntt_inverse_rows(self, tables_list, rows):
        return self._ntt_rows(tables_list, rows, inverse=True)

    def _ntt_rows(self, tables_list, rows, inverse: bool):
        """One transform per (modulus, row) on a resident matrix.

        Each row transforms into an owned output matrix -- no boundary
        conversion per row; rows under out-of-envelope primes transform
        through the reference fallback and are re-lifted into the matrix.
        """
        try:
            mat = self._matrix(rows)
        except (OverflowError, ValueError, TypeError):
            base = super().ntt_inverse_rows if inverse else super().ntt_forward_rows
            return base(tables_list, rows)
        if len(tables_list) != mat.shape[0]:
            raise ValueError(
                f"expected {len(tables_list)} rows, got {mat.shape[0]}"
            )
        out = np.empty(mat.shape, dtype=np.uint64)
        for i, tables in enumerate(tables_list):
            if self.supports(tables.modulus):
                _transform(mat[i : i + 1], tables, inverse, out[i : i + 1])
            else:
                fb = self._fallback
                transform = fb.ntt_inverse if inverse else fb.ntt_forward
                out[i] = np.asarray(transform(tables, mat[i].tolist()), dtype=np.uint64)
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
            return super().decompose_native(moduli, coeffs)
        out = np.empty((len(moduli), len(arr)), dtype=np.uint64)
        for i, m in enumerate(moduli):
            if arr.dtype == np.uint64:
                out[i] = arr % np.uint64(m.value)
            else:
                out[i] = np.remainder(arr, np.int64(m.value)).astype(np.uint64)
        return out

    def pack_rows(self, handle) -> bytes:
        try:
            mat = self._matrix(handle)
        except (OverflowError, ValueError, TypeError):
            return super().pack_rows(handle)
        return mat.astype("<u8", copy=False).tobytes()

    def unpack_rows(self, data, count: int, n: int):
        arr = np.frombuffer(data, dtype="<u8", count=count * n)
        # astype: native byte order plus an owned, writable matrix
        return arr.reshape(count, n).astype(np.uint64)

    # ------------------------------------------------------------------
    # NTT / INTT (Algorithms 3 and 4): a row is a stack of one
    # ------------------------------------------------------------------
    def ntt_forward(self, tables: NTTTables, row: Sequence[int]) -> List[int]:
        if not self.supports(tables.modulus):
            return self._fallback.ntt_forward(tables, row)
        return self.ntt_forward_stack(tables, self._matrix(row)[None, :])[0].tolist()

    def ntt_inverse(self, tables: NTTTables, row: Sequence[int]) -> List[int]:
        if not self.supports(tables.modulus):
            return self._fallback.ntt_inverse(tables, row)
        return self.ntt_inverse_stack(tables, self._matrix(row)[None, :])[0].tolist()

    # ------------------------------------------------------------------
    # dyadic arithmetic
    # ------------------------------------------------------------------
    def add(self, modulus: Modulus, a: Sequence[int], b: Sequence[int]) -> List[int]:
        if not self.supports(modulus):
            return self._fallback.add(modulus, a, b)
        return _cond_sub(self._matrix(a) + self._matrix(b), modulus.value).tolist()

    def sub(self, modulus: Modulus, a: Sequence[int], b: Sequence[int]) -> List[int]:
        if not self.supports(modulus):
            return self._fallback.sub(modulus, a, b)
        return _submod(self._matrix(a), self._matrix(b), modulus.value).tolist()

    def negate(self, modulus: Modulus, a: Sequence[int]) -> List[int]:
        if not self.supports(modulus):
            return self._fallback.negate(modulus, a)
        arr = self._matrix(a)
        out = np.uint64(modulus.value) - arr
        np.minimum(out, np.uint64(0) - arr, out=out)
        return out.tolist()

    def dyadic_mul(self, modulus: Modulus, a: Sequence[int], b: Sequence[int]) -> List[int]:
        if not self.supports(modulus):
            return self._fallback.dyadic_mul(modulus, a, b)
        return _mulmod(self._matrix(a), self._matrix(b), modulus.value).tolist()

    def dyadic_mac(
        self,
        modulus: Modulus,
        acc: Sequence[int],
        x: Sequence[int],
        y: Sequence[int],
    ) -> List[int]:
        if not self.supports(modulus):
            return self._fallback.dyadic_mac(modulus, acc, x, y)
        p = modulus.value
        prod = _mulmod(self._matrix(x), self._matrix(y), p)
        return _cond_sub(self._matrix(acc) + prod, p).tolist()

    # ------------------------------------------------------------------
    # scalar operations
    # ------------------------------------------------------------------
    def scalar_mul(self, modulus: Modulus, a: Sequence[int], scalar: int) -> List[int]:
        if not self.supports(modulus):
            return self._fallback.scalar_mul(modulus, a, scalar)
        return _scalar_mul(self._matrix(a), scalar, modulus.value).tolist()

    def scalar_mac(
        self, modulus: Modulus, acc: Sequence[int], a: Sequence[int], scalar: int
    ) -> List[int]:
        if not self.supports(modulus):
            return self._fallback.scalar_mac(modulus, acc, a, scalar)
        p = modulus.value
        prod = _scalar_mul(self._matrix(a), scalar, p)
        prod += self._matrix(acc)
        return _cond_sub(prod, p).tolist()

    # ------------------------------------------------------------------
    # RNS base conversion
    # ------------------------------------------------------------------
    def reduce_mod(self, modulus: Modulus, row: Sequence[int]) -> List[int]:
        if not self.supports(modulus):
            return self._fallback.reduce_mod(modulus, row)
        try:
            arr = np.asarray(row, dtype=np.uint64)
        except (OverflowError, ValueError, TypeError):
            try:
                # signed single-word coefficients (rounded encoder
                # output): int64 remainder is exact and lands in [0, p)
                arr = np.asarray(row, dtype=np.int64)
            except (OverflowError, ValueError, TypeError):
                # multi-word coefficients: Python big-int reduction is
                # the only exact path
                return self._fallback.reduce_mod(modulus, row)
            return (
                np.remainder(arr, np.int64(modulus.value))
                .astype(np.uint64)
                .tolist()
            )
        return (arr % np.uint64(modulus.value)).tolist()

    # ------------------------------------------------------------------
    # stacked-row kernels: one whole-array pass over all R rows at once.
    #
    # These return the (R, n) uint64 array itself (a valid row-stack per
    # the base contract), so chains of stacked kernels -- the batched
    # KeySwitch dataflow -- never round-trip through Python lists.
    # ------------------------------------------------------------------
    def ntt_forward_stack(self, tables: NTTTables, stack: RowStack) -> RowStack:
        if not self.supports(tables.modulus) or not len(stack):
            return super().ntt_forward_stack(tables, stack)
        return _transform(self._matrix(stack), tables, False)

    def ntt_inverse_stack(self, tables: NTTTables, stack: RowStack) -> RowStack:
        if not self.supports(tables.modulus) or not len(stack):
            return super().ntt_inverse_stack(tables, stack)
        return _transform(self._matrix(stack), tables, True)

    def sub_stack(self, modulus: Modulus, a: RowStack, b) -> RowStack:
        if not self.supports(modulus) or not len(a):
            return super().sub_stack(modulus, a, b)
        arr = self._matrix(a)
        if not is_row(b) and len(b) != len(arr):
            # as the base class's ``_rows_of``: numpy's implicit (1, n)
            # broadcasting must not accept what the reference rejects
            raise ValueError(
                f"stack length mismatch: operand has {len(b)} rows, "
                f"expected {len(arr)}"
            )
        return _submod(arr, self._matrix(b), modulus.value)

    def dyadic_stack_reduce(self, modulus: Modulus, x: RowStack, y: RowStack):
        if not self.supports(modulus) or not len(x) or not len(y):
            return super().dyadic_stack_reduce(modulus, x, y)
        digits = len(y)
        if len(x) % digits:
            raise ValueError(
                f"stack length mismatch: {len(x)} vs {len(y)} rows"
            )
        p = modulus.value
        xs = self._matrix(x).reshape(digits, len(x) // digits, -1)
        ys = self._matrix(y)[:, None, :]  # one key row per digit block
        if digits * (p - 1) ** 2 < 1 << 64:
            # every digit's product fits one word together: a single
            # division for the whole sum instead of one per digit
            acc = (xs * ys).sum(axis=0)
            acc %= np.uint64(p)
            return acc
        acc = _mulmod(xs[0], ys[0], p)
        for block, key_row in zip(xs[1:], ys[1:]):
            acc = _cond_sub(acc + _mulmod(block, key_row, p), p)
        return acc

    def scalar_mul_stack(self, modulus: Modulus, a: RowStack, scalar: int) -> RowStack:
        if not self.supports(modulus) or not len(a):
            return super().scalar_mul_stack(modulus, a, scalar)
        return _scalar_mul(self._matrix(a), scalar, modulus.value)

    def reduce_mod_stack(self, modulus: Modulus, stack: RowStack) -> RowStack:
        if not self.supports(modulus) or not len(stack):
            return super().reduce_mod_stack(modulus, stack)
        try:
            arr = self._matrix(stack)
        except (OverflowError, ValueError):
            return super().reduce_mod_stack(modulus, stack)
        pu = np.uint64(modulus.value)
        if int(arr.max()) < 2 * modulus.value:
            # residues of a prime of the same size (the usual RNS basis):
            # one fold instead of the one non-SIMD pass, a division
            return np.minimum(arr, arr - pu)
        return arr % pu

    def permute_ntt_stack(self, stack: RowStack, table: Sequence[int]) -> RowStack:
        if not len(stack):
            return super().permute_ntt_stack(stack, table)
        try:
            # no arithmetic happens, so any uint64-representable rows
            # qualify regardless of the word-size envelope
            arr = self._matrix(stack)
        except (OverflowError, ValueError):
            return super().permute_ntt_stack(stack, table)
        return arr[:, np.asarray(table, dtype=np.intp)]
