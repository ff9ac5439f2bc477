"""Vectorized NumPy backend: whole butterfly stages as uint64 array ops.

This is the software analogue of the paper's observation that CKKS time
is won by *wide* parallelism over butterflies, not by faster scalar
operations: instead of iterating ``n log n`` Python-level butterflies,
each Cooley-Tukey / Gentleman-Sande stage is executed as a handful of
NumPy kernels over all ``n/2`` butterflies at once (the stage's
butterfly groups become the rows of an ``(m, 2t)`` view of the
coefficient array, exactly the lane layout a hardware NTT core sees).

Modular reduction strategy, by prime size:

* ``p < 2^32`` -- products of reduced operands fit in a ``uint64``
  word, so twiddle products use a native widening multiply followed by
  one vector remainder; additions/subtractions use lazy conditional
  correction (a compare-select instead of a division), the vector
  counterpart of the single conditional subtraction in Algorithms 1/2.
* ``2^32 <= p < 2^52`` -- the HEAX word-size regime (``w = 54`` requires
  ``p < 2^52``).  The 104-bit product no longer fits in a word, so the
  quotient is *estimated* in ``float64`` (``q ~= floor(a*b/p)``, off by
  at most one either way because ``a*b/p < 2^52`` is within the 53-bit
  mantissa) and the remainder ``a*b - q*p`` is computed exactly in
  wrapping ``uint64`` arithmetic, then folded into ``[0, p)`` by one
  conditional add and one conditional subtract.  This is a Barrett-style
  reduction with the ratio multiply replaced by a float estimate; it is
  exact, just like Algorithm 1's single-correction guarantee.  A
  ``*_rows`` modulus column that spans this regime and the one above
  splits at the regime boundaries, each run taking its own path.
* ``p >= 2^52`` -- outside the word-size-safe envelope (e.g. SEAL's
  ``w = 64`` regime with 61-bit primes); every operation falls back to
  the pure-Python reference backend, coefficient for coefficient.

The butterfly stages themselves allocate nothing: a transform works in
one per-thread buffer (:func:`_transform`) and every stage pass writes
into it with ``out=``.

All boundary data stays in the canonical list-of-int row format (see
:mod:`repro.ckks.backend.base`), so outputs are bit-identical to the
reference backend -- asserted by ``tests/ckks/test_backend_equivalence.py``.
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

#: Float-estimated Barrett quotients are exact (within the correction
#: loop's reach) only while ``a*b/p < 2^52`` stays inside the float64
#: mantissa; this is exactly the HEAX ``p < 2^(w-2)`` bound for w = 54.
_WORD_SAFE_BOUND = 1 << 52

#: Attribute name under which per-(modulus, n) twiddle arrays are cached
#: on the NTTTables instance that owns the scalar tables.
_CACHE_ATTR = "_numpy_twiddle_cache"

_U1 = np.uint64(1)
_U32 = np.uint64(32)


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
    np.subtract(r, pu, out=q)
    np.minimum(r, q, out=r)
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


def _twiddle_mul(x, w, aux, p: int, work, quot, dest) -> None:
    """``dest = x * w mod p`` for a twiddle column ``w``, allocation-free.

    ``work`` holds the call's three half-size ``uint64`` buffers: the
    product is formed in ``work[0]`` (which may be ``x`` itself) with
    ``work[1:]`` as temporaries, and only the last fold writes ``dest``.

    * ``quot is None`` -- ``p < 2^32``, ``aux = floor(w * 2^32 / p)``:
      Algorithm 2 (MulRed) with a 32-bit ratio.  ``q = (x * aux) >> 32``
      leaves ``x*w - q*p`` in ``[0, 2p)`` (the classic Shoup bound for
      ``x < 2^32``; every product stays below ``2^64``), so one fold
      finishes -- no integer division, every pass SIMD-friendly.
    * otherwise ``quot`` is a ``float64`` buffer and ``aux`` the
      ``float64`` image of ``w``: Barrett with a float quotient estimate.
      ``x*w/p < 2^52`` carries a relative error below ``2^-52``, so the
      truncated estimate is off by at most one either way and the
      wrapped remainder lies in ``[-p, 2p)``: one lifting fold, then the
      same final fold.
    """
    out, q, t = work
    pu = np.uint64(p)
    if quot is None:
        np.multiply(x, aux, out=q)
        q >>= _U32
    else:
        np.multiply(x, aux, out=quot)
        quot /= p
        np.copyto(q, quot, casting="unsafe")
    q *= pu
    np.multiply(x, w, out=out)
    out -= q
    if quot is not None:
        np.add(out, pu, out=t)
        np.minimum(out, t, out=out)  # a negative wraps high: picks out + p
    np.subtract(out, pu, out=t)
    np.minimum(out, t, out=dest)


def _fwd_stages(a: np.ndarray, legs, fquot, tw: "_TwiddleCache", p: int) -> None:
    """All forward butterfly stages on an ``(n, R)`` array (mutates ``a``).

    The batch dimension is *innermost*: a stage views the coefficients as
    ``(m, 2t, R)``, so every butterfly slice is ``m`` runs of ``t * R``
    contiguous words.  With batch-outermost layout the late stages
    (``t = 1, 2, 4``) degenerate into word-sized strided chunks that
    defeat vectorization; batch-innermost keeps at least ``R`` contiguous
    words per butterfly -- the same lane-interleaving a multi-lane
    hardware NTT core uses.  Legs are computed in the three half-size
    ``legs`` buffers (and the Barrett quotient in ``fquot``) and folded
    straight back into the view, so a stage allocates nothing however
    tall the stack is.
    """
    n, r = a.shape
    pu = np.uint64(p)
    t = n
    m = 1
    while m < n:
        t >>= 1
        view = a.reshape(m, 2 * t, r)
        u = view[:, :t, :]
        v = view[:, t:, :]
        work = legs.reshape(3, m, t, r)
        quot = None if fquot is None else fquot.reshape(m, t, r)
        wv, d, tmp = work
        _twiddle_mul(
            v,
            tw.fwd[m : 2 * m].reshape(m, 1, 1),
            tw.fwd_aux[m : 2 * m].reshape(m, 1, 1),
            p,
            work,
            quot,
            wv,
        )
        np.subtract(u, wv, out=d)
        d += pu  # difference leg, in (0, 2p)
        wv += u  # sum leg, in [0, 2p)
        np.subtract(wv, pu, out=tmp)
        np.minimum(wv, tmp, out=u)
        np.subtract(d, pu, out=tmp)
        np.minimum(d, tmp, out=v)
        m <<= 1


def _inv_stages(a: np.ndarray, legs, fquot, tw: "_TwiddleCache", p: int) -> None:
    """All inverse butterfly stages on an ``(n, R)`` array (mutates ``a``).

    Batch-innermost layout and scratch buffers, as in :func:`_fwd_stages`.

    The Algorithm-4 per-stage halving ``(s + p if odd) >> 1`` is computed
    as ``(s >> 1) + odd * (p+1)/2`` -- identical values, but shifts and
    masks on the contiguous sum-leg buffer instead of a mask + select
    pass.
    """
    n, r = a.shape
    pu = np.uint64(p)
    half_p = np.uint64((p + 1) >> 1)
    t = 1
    m = n
    while m > 1:
        h = m >> 1
        view = a.reshape(h, 2 * t, r)
        u = view[:, :t, :]
        v = view[:, t:, :]
        work = legs.reshape(3, h, t, r)
        quot = None if fquot is None else fquot.reshape(h, t, r)
        d, s, tmp = work
        np.subtract(u, v, out=d)
        d += pu
        np.subtract(d, pu, out=tmp)
        np.minimum(d, tmp, out=d)  # difference leg, in [0, p)
        np.add(u, v, out=s)
        np.subtract(s, pu, out=tmp)
        np.minimum(s, tmp, out=s)  # sum leg, in [0, p)
        np.bitwise_and(s, _U1, out=tmp)
        s >>= _U1
        tmp *= half_p
        np.add(s, tmp, out=u)  # the halved sum leg
        _twiddle_mul(
            d,
            tw.inv[h : 2 * h].reshape(h, 1, 1),
            tw.inv_aux[h : 2 * h].reshape(h, 1, 1),
            p,
            work,
            quot,
            v,
        )
        t <<= 1
        m = h


#: Per-thread transform workspace, see :func:`_transform`.
_LOCAL = threading.local()


def _transform(stages, rows: np.ndarray, tables: NTTTables) -> np.ndarray:
    """Run ``stages`` over an ``(R, n)`` stack -> its ``(n, R)`` transform.

    The transposed working copy and the stage scratch (three half-size
    legs, plus the float quotient above the native-multiply regime) live
    in one per-thread buffer that grows to the tallest stack seen and is
    kept.  A transform therefore allocates nothing: tall stacks no
    longer churn the top of the heap, which glibc hands back to the OS
    and page-faults in again on reuse (2 700 faults, about 5 % of an
    8-wide Set-A flush).  The result is a view of that buffer -- callers
    copy it out before the thread's next transform.
    """
    r, n = rows.shape
    if n != tables.n:
        raise ValueError(f"expected {tables.n} coefficients, got {n}")
    tw = getattr(tables, _CACHE_ATTR, None)
    if tw is None:
        tw = _TwiddleCache(tables)
        setattr(tables, _CACHE_ATTR, tw)
    half = (n >> 1) * r
    buf = getattr(_LOCAL, "buf", None)
    if buf is None or buf.size < 6 * half:
        buf = _LOCAL.buf = np.empty(6 * half, dtype=np.uint64)
    a = buf[: 2 * half].reshape(n, r)
    a[...] = rows.T
    fquot = None if tw.shoup else buf[5 * half : 6 * half].view(np.float64)
    stages(a, buf[2 * half : 5 * half].reshape(3, half), fquot, tw, tables.modulus.value)
    return a


class _TwiddleCache:
    """uint64 views of one table set's twiddles (built once per tables).

    ``fwd_aux`` / ``inv_aux`` hold what :func:`_twiddle_mul` multiplies
    the quotient estimate from: for primes in the native-multiply regime
    (``shoup``) the 32-bit ratios ``floor(w * 2^32 / p)`` of every
    twiddle, which replace the vector remainder (integer division, the
    one non-SIMD operation in the pipeline); above it the twiddles'
    ``float64`` images.
    """

    __slots__ = ("fwd", "inv", "shoup", "fwd_aux", "inv_aux")

    def __init__(self, tables: NTTTables):
        self.fwd = np.array([c.value for c in tables.root_powers], dtype=np.uint64)
        self.inv = np.array(
            [c.value for c in tables.inv_root_powers_div2], dtype=np.uint64
        )
        p = tables.modulus.value
        self.shoup = p < _DIRECT_MUL_BOUND
        if self.shoup:
            self.fwd_aux = np.array(
                [(int(w) << 32) // p for w in self.fwd], dtype=np.uint64
            )
            self.inv_aux = np.array(
                [(int(w) << 32) // p for w in self.inv], dtype=np.uint64
            )
        else:
            self.fwd_aux = self.fwd.astype(np.float64)
            self.inv_aux = self.inv.astype(np.float64)


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
        """Lift a residue matrix to ``(L, n)`` uint64 (no-op if it is one).

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

    @staticmethod
    def _row(row: Sequence[int]) -> np.ndarray:
        if isinstance(row, np.ndarray) and row.dtype == np.uint64:
            return row
        return np.asarray(row, dtype=np.uint64)

    @staticmethod
    def _stack(stack: RowStack) -> np.ndarray:
        """Lift a row-stack to an ``(R, n)`` uint64 array (no-op if it is one)."""
        if isinstance(stack, np.ndarray) and stack.dtype == np.uint64:
            return stack
        return np.asarray(stack, dtype=np.uint64)

    @classmethod
    def _operand(cls, b, count: int) -> np.ndarray:
        """A dyadic operand: ``(n,)`` broadcast row or ``(count, n)`` stack.

        A stack operand of any other length raises, matching the base
        class's ``_rows_of`` -- numpy's implicit ``(1, n)`` broadcasting
        must not accept what the reference backend rejects.
        """
        if is_row(b):
            return cls._row(b)
        if len(b) != count:
            raise ValueError(
                f"stack length mismatch: operand has {len(b)} rows, "
                f"expected {count}"
            )
        return cls._stack(b)

    def native_stack(self, stack: RowStack) -> RowStack:
        """Lift to ``(R, n)`` uint64 once so later kernels skip conversion."""
        try:
            return self._stack(stack)
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
        scol = np.array(
            [[s % m.value] for s, m in zip(scalars, moduli)], dtype=np.uint64
        )
        return _mulmod(arr, scol, self._pcol(moduli))

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
            mat = None
        if mat is None:
            if inverse:
                return super().ntt_inverse_rows(tables_list, rows)
            return super().ntt_forward_rows(tables_list, rows)
        if len(tables_list) != mat.shape[0]:
            raise ValueError(
                f"expected {len(tables_list)} rows, got {mat.shape[0]}"
            )
        out = np.empty_like(mat)
        stages = _inv_stages if inverse else _fwd_stages
        for i, tables in enumerate(tables_list):
            if self.supports(tables.modulus):
                out[i] = _transform(stages, mat[i : i + 1], tables)[:, 0]
            else:
                fb = self._fallback
                row = (
                    fb.ntt_inverse(tables, mat[i].tolist())
                    if inverse
                    else fb.ntt_forward(tables, mat[i].tolist())
                )
                out[i] = np.asarray(row, dtype=np.uint64)
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
    # NTT (Algorithm 3, one vector op sequence per stage)
    # ------------------------------------------------------------------
    def ntt_forward(self, tables: NTTTables, row: Sequence[int]) -> List[int]:
        if not self.supports(tables.modulus):
            return self._fallback.ntt_forward(tables, row)
        return _transform(_fwd_stages, self._row(row)[None, :], tables)[:, 0].tolist()

    # ------------------------------------------------------------------
    # INTT (Algorithm 4 with the per-stage halving folded in)
    # ------------------------------------------------------------------
    def ntt_inverse(self, tables: NTTTables, row: Sequence[int]) -> List[int]:
        if not self.supports(tables.modulus):
            return self._fallback.ntt_inverse(tables, row)
        return _transform(_inv_stages, self._row(row)[None, :], tables)[:, 0].tolist()

    # ------------------------------------------------------------------
    # dyadic arithmetic
    # ------------------------------------------------------------------
    def add(self, modulus: Modulus, a: Sequence[int], b: Sequence[int]) -> List[int]:
        if not self.supports(modulus):
            return self._fallback.add(modulus, a, b)
        return _cond_sub(self._row(a) + self._row(b), modulus.value).tolist()

    def sub(self, modulus: Modulus, a: Sequence[int], b: Sequence[int]) -> List[int]:
        if not self.supports(modulus):
            return self._fallback.sub(modulus, a, b)
        return _submod(self._row(a), self._row(b), modulus.value).tolist()

    def negate(self, modulus: Modulus, a: Sequence[int]) -> List[int]:
        if not self.supports(modulus):
            return self._fallback.negate(modulus, a)
        arr = self._row(a)
        out = np.uint64(modulus.value) - arr
        np.minimum(out, np.uint64(0) - arr, out=out)
        return out.tolist()

    def dyadic_mul(self, modulus: Modulus, a: Sequence[int], b: Sequence[int]) -> List[int]:
        if not self.supports(modulus):
            return self._fallback.dyadic_mul(modulus, a, b)
        return _mulmod(self._row(a), self._row(b), modulus.value).tolist()

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
        prod = _mulmod(self._row(x), self._row(y), p)
        return _cond_sub(self._row(acc) + prod, p).tolist()

    # ------------------------------------------------------------------
    # scalar operations
    # ------------------------------------------------------------------
    def scalar_mul(self, modulus: Modulus, a: Sequence[int], scalar: int) -> List[int]:
        if not self.supports(modulus):
            return self._fallback.scalar_mul(modulus, a, scalar)
        return _mulmod(self._row(a), np.uint64(scalar), modulus.value).tolist()

    def scalar_mac(
        self, modulus: Modulus, acc: Sequence[int], a: Sequence[int], scalar: int
    ) -> List[int]:
        if not self.supports(modulus):
            return self._fallback.scalar_mac(modulus, acc, a, scalar)
        p = modulus.value
        prod = _mulmod(self._row(a), np.uint64(scalar), p)
        return _cond_sub(self._row(acc) + prod, p).tolist()

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
        # an owned copy: the workspace is reused by the next transform
        return _transform(_fwd_stages, self._stack(stack), tables).T.copy()

    def ntt_inverse_stack(self, tables: NTTTables, stack: RowStack) -> RowStack:
        if not self.supports(tables.modulus) or not len(stack):
            return super().ntt_inverse_stack(tables, stack)
        return _transform(_inv_stages, self._stack(stack), tables).T.copy()

    def add_stack(self, modulus: Modulus, a: RowStack, b) -> RowStack:
        if not self.supports(modulus) or not len(a):
            return super().add_stack(modulus, a, b)
        arr = self._stack(a)
        return _cond_sub(arr + self._operand(b, len(arr)), modulus.value)

    def sub_stack(self, modulus: Modulus, a: RowStack, b) -> RowStack:
        if not self.supports(modulus) or not len(a):
            return super().sub_stack(modulus, a, b)
        arr = self._stack(a)
        return _submod(arr, self._operand(b, len(arr)), modulus.value)

    def dyadic_mul_stack(self, modulus: Modulus, a: RowStack, b) -> RowStack:
        if not self.supports(modulus) or not len(a):
            return super().dyadic_mul_stack(modulus, a, b)
        arr = self._stack(a)
        return _mulmod(arr, self._operand(b, len(arr)), modulus.value)

    def dyadic_mac_stack(self, modulus: Modulus, acc: RowStack, x: RowStack, y) -> RowStack:
        if not self.supports(modulus) or not len(acc):
            return super().dyadic_mac_stack(modulus, acc, x, y)
        p = modulus.value
        arr = self._stack(acc)
        prod = _mulmod(self._operand(x, len(arr)), self._operand(y, len(arr)), p)
        return _cond_sub(arr + prod, p)

    def dyadic_stack_reduce(self, modulus: Modulus, x: RowStack, y: RowStack):
        if not self.supports(modulus) or not len(x) or not len(y):
            return super().dyadic_stack_reduce(modulus, x, y)
        digits = len(y)
        if len(x) % digits:
            raise ValueError(
                f"stack length mismatch: {len(x)} vs {len(y)} rows"
            )
        p = modulus.value
        xs = self._stack(x).reshape(digits, len(x) // digits, -1)
        ys = self._stack(y)[:, None, :]  # one key row per digit block
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
        return _mulmod(self._stack(a), np.uint64(scalar), modulus.value)

    def reduce_mod_stack(self, modulus: Modulus, stack: RowStack) -> RowStack:
        if not self.supports(modulus) or not len(stack):
            return super().reduce_mod_stack(modulus, stack)
        try:
            arr = self._stack(stack)
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
            arr = self._stack(stack)
        except (OverflowError, ValueError):
            return super().permute_ntt_stack(stack, table)
        return arr[:, np.asarray(table, dtype=np.intp)]
