"""Abstract interface of the polynomial-arithmetic backend layer.

Every per-residue-row operation the CKKS stack performs -- negacyclic
NTT/INTT, dyadic (coefficient-wise) arithmetic, scalar operations and the
RNS base-conversion reductions of Algorithm 7 -- is expressed against
this interface.  The scheme layer (:mod:`repro.ckks.poly`,
:mod:`repro.ckks.context`, :mod:`repro.ckks.evaluator`, ...) never loops
over coefficients itself; it dispatches to the active backend, so a
vectorized implementation accelerates the whole stack without touching
scheme code.  This mirrors the split HEAX itself makes between the
*scheme* (Section 3) and the *compute engines* that execute its inner
loops (Section 4): the backend is the software stand-in for the NTT /
DyadMult engines.

Data contract
-------------
A *row* is one residue polynomial: a sequence of ``n`` integers in
``[0, p)`` for one RNS modulus ``p``.  The canonical *interchange*
representation is a plain ``list`` of Python ints; single-row kernels
accept any row representation and return canonical lists, so two
backends remain directly comparable and bit-exactness can be asserted
by comparing rows.

Resident residue matrices
-------------------------
:class:`repro.ckks.poly.RnsPolynomial` no longer stores canonical
lists: it holds an *opaque residue-matrix handle* in the backend's
native representation -- the software analogue of HEAX keeping
operands resident in on-chip memories across pipeline stages instead
of round-tripping through DRAM (paper Section 4, Figure 2).  The
handle API is:

* :meth:`PolynomialBackend.make_rows` / :meth:`from_rows` /
  :meth:`to_rows` / :meth:`copy_rows` -- allocate, lift, materialize
  and natively copy a whole ``(L, n)`` residue matrix;
* :meth:`get_row` / :meth:`set_row` / :meth:`select_rows` /
  :meth:`insert_row` -- row-level access without leaving the native
  representation;
* the ``*_rows`` kernels (one row per modulus, the shape of a full
  RNS polynomial) -- ``add_rows``, ``dyadic_mul_rows``,
  ``ntt_forward_rows``, ``galois_rows``, ... -- which consume and
  produce handles so chained polynomial operations never pay a
  per-call lift/lower conversion;
* :meth:`pack_rows` / :meth:`unpack_rows` -- straight bytes <->
  native-matrix conversion for the wire format, plus
  :meth:`pack_rows_bits` / :meth:`unpack_rows_bits` for the bit-packed
  v2 wire layout (per-modulus word width instead of 8-byte words).

The base-class defaults express every handle operation through the
single-row kernels over canonical lists, which *is* the reference
representation; array backends override them with whole-matrix
kernels.  ``from_rows``/``to_rows`` are idempotent and
value-preserving, so a handle can always be re-homed across backends
(at a conversion cost the :class:`repro.ckks.backend.CountingBackend`
makes visible as ``lift_rows``/``lower_rows``).

All operations are **exact**: two backends given the same inputs must
produce identical rows.  The reference backend is the ground truth; the
equivalence test-suite (``tests/ckks/test_backend_equivalence.py``)
holds every other backend to it.

Stacked-row kernels
-------------------
Ciphertext-level parallelism -- the outermost level of parallelism in
HEAX's system design (Figure 7: the host streams many independent
ciphertexts through the shared NTT/MULT/KeySwitch pipelines) -- is
expressed through the ``*_stack`` variants of every kernel.  A *stack*
is a sequence of ``R`` rows that share one modulus (and, for NTT, one
table set); semantically a stacked kernel equals mapping the single-row
kernel over the stack, and the default implementations do exactly that.

Two representation liberties keep stacks fast without breaking the
exactness contract:

* a stacked kernel may return any *sequence of rows*, not necessarily a
  ``list`` of ``list``s -- the numpy backend returns the ``(R, n)``
  ``uint64`` array itself, so consecutive stacked kernels compose with
  no per-call boundary conversion (callers lower to canonical lists
  with :func:`canonical_stack` only when leaving the evaluator);
* dyadic second operands (``b`` of ``*_stack`` binary ops, ``y`` of
  ``dyadic_mac_stack``) may be a single row instead of a stack, in
  which case it broadcasts against every row -- the shape key-switching
  needs, where one key row multiplies a whole batch.
"""

from __future__ import annotations

import abc
import functools
import math
from typing import List, Sequence

from repro.ckks.modarith import Modulus
from repro.ckks.ntt import NTTTables

try:  # wire pack/unpack fast path only -- kernels never depend on this
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only on numpy-less hosts
    _np = None

#: A stack of residue rows sharing one modulus (see module docstring).
RowStack = Sequence[Sequence[int]]


def is_row(operand) -> bool:
    """True when ``operand`` is a single residue row rather than a stack.

    Rows hold scalars (no ``__len__``); stacks hold rows (which have
    one).  An empty sequence counts as an empty *stack*.
    """
    return len(operand) > 0 and not hasattr(operand[0], "__len__")


def canonical_stack(stack: RowStack) -> List[List[int]]:
    """Lower any row-stack to the canonical list-of-lists-of-int form."""
    if hasattr(stack, "tolist"):  # whole-array stacks (numpy backend)
        return stack.tolist()
    out = []
    for row in stack:
        if hasattr(row, "tolist"):
            out.append(row.tolist())
        else:
            out.append([int(x) for x in row])
    return out


def canonical_rows(rows) -> List[List[int]]:
    """Normalize a residue matrix to canonical lists *without copying*
    rows that already are plain lists (contrast :func:`canonical_stack`,
    which always copies).  Array rows/matrices are materialized."""
    if hasattr(rows, "tolist"):
        return rows.tolist()
    out = None
    for i, r in enumerate(rows):
        if not isinstance(r, list):
            if out is None:
                out = list(rows)
            out[i] = r.tolist() if hasattr(r, "tolist") else [int(x) for x in r]
    return rows if out is None else out


#: Little-endian word width of one packed residue coefficient (the wire
#: word the paper's bandwidth arithmetic assumes).
ROW_WORD_BYTES = 8


def packed_row_bytes(n: int, width_bits: int) -> int:
    """Byte length of one residue row bit-packed at ``width_bits``/word.

    Rows are packed independently (each starts on a byte boundary), so
    a packed matrix is addressable row by row: ``ceil(n * w / 8)`` bytes
    per row, zero-padded in the final byte.
    """
    if not 1 <= width_bits <= 64:
        raise ValueError(f"packed word width {width_bits} outside 1..64")
    return (n * width_bits + 7) // 8


def _check_pack_bounds(handle, bounds) -> None:
    if len(bounds) != len(handle):
        raise ValueError(
            f"matrix has {len(handle)} rows but {len(bounds)} bounds"
        )


def _pack_row_bits_py(row, bound: int, width: int) -> bytes:
    """MSB-first bit concatenation via one big-int accumulator."""
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


def _unpack_row_bits_py(data, n: int, bound: int, width: int):
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


@functools.lru_cache(maxsize=None)
def _bit_plan(width: int):
    """Word-level layout of ``width``-bit coefficients, computed once per width.

    A *group* is the smallest run of ``g`` coefficients that fills a
    whole number of bytes and at least one 8-byte word:
    ``g = m * 8 / gcd(width, 8)`` with ``g * width >= 64``.  Its
    ``g * width / 8`` bytes are covered by big-endian ``uint64``
    *windows* at byte offsets 0, 8, 16, ... plus one window flush with
    the group's end (it overlaps its neighbour when the group is not a
    multiple of 8 bytes; both carry the same bits there).  Every window
    is then the OR of a few shifted coefficient columns and every
    coefficient the OR of a few shifted windows -- whole-array word
    operations over all groups of all rows at once, no per-bit matrix.

    Returns ``(g, group_bytes, windows, coefficients)``, every shift a
    left shift (a right shift when negative):
    ``windows[a] = (byte_offset, ((j, shift), ...))`` -- window ``a`` is
    the OR of the shifted coefficients ``j``;
    ``coefficients[j] = ((a, shift), ...)`` -- coefficient ``j`` is the
    low ``width`` bits of the OR of the shifted windows ``a``.
    """
    per_byte = 8 // math.gcd(width, 8)
    g = per_byte * -(-64 // (per_byte * width))
    group_bytes = g * width // 8
    offsets = list(range(0, group_bytes - 8, 8)) + [group_bytes - 8]
    spans = [(j * width, (j + 1) * width) for j in range(g)]
    windows = tuple(
        (
            off,
            tuple(
                (j, 8 * off + 64 - hi)
                for j, (lo, hi) in enumerate(spans)
                if lo < 8 * off + 64 and hi > 8 * off
            ),
        )
        for off in offsets
    )
    coefficients = []
    for lo, hi in spans:
        # one window holding the whole coefficient if there is one, else
        # every window that holds a part of it
        sources = [
            a for a, off in enumerate(offsets)
            if 8 * off <= lo and hi <= 8 * off + 64
        ][:1] or [
            a for a, off in enumerate(offsets)
            if 8 * off < hi and lo < 8 * off + 64
        ]
        coefficients.append(
            tuple((a, hi - 8 * offsets[a] - 64) for a in sources)
        )
    return g, group_bytes, windows, tuple(coefficients)


def _shifted(words, shift: int):
    """``words << shift`` for a signed shift (numpy shifts are unsigned)."""
    if shift > 0:
        return words << _np.uint64(shift)
    if shift < 0:
        return words >> _np.uint64(-shift)
    return words


def _or_shifted(columns, terms):
    """OR of ``columns[i] << shift`` over ``terms = ((i, shift), ...)``."""
    acc = None
    for i, shift in terms:
        piece = _shifted(columns[i], shift)
        acc = piece if acc is None else acc | piece
    return acc


def _group_windows(buf, offset: int, groups: int, group_bytes: int):
    """The (unaligned) big-endian word at ``offset`` of every group of
    every row of a C-contiguous ``(R, groups * group_bytes)`` byte matrix."""
    return _np.ndarray(
        (buf.shape[0], groups),
        dtype=">u8",
        buffer=buf,
        offset=offset,
        strides=(groups * group_bytes, group_bytes),
    )


#: Coefficients per vector pass.  Stacking same-width rows amortizes
#: numpy's per-call cost, but only while every temporary of a pass stays
#: cache-resident: past this, a Set-C stack (12 x 16384 words) runs 3-4x
#: slower than its rows one at a time.
_STACK_COEFFS = 1 << 15


def _row_stacks(n: int, bounds):
    """``[(width, [row indices])]``: same-width rows, one vector pass each."""
    by_width = {}
    for i, bound in enumerate(bounds):
        by_width.setdefault(bound.bit_length(), []).append(i)
    rows = max(1, _STACK_COEFFS // n)
    return [
        (width, idx[k : k + rows])
        for width, idx in by_width.items()
        for k in range(0, len(idx), rows)
    ]


def _row_layout(n: int, bounds):
    """Per-row packed sizes and start offsets, plus the total byte count."""
    sizes = [packed_row_bytes(n, int(b).bit_length()) for b in bounds]
    starts = [0] * len(sizes)
    for i in range(1, len(sizes)):
        starts[i] = starts[i - 1] + sizes[i - 1]
    return sizes, starts, sum(sizes)


def _first_out_of_range(mat, bounds):
    """``(value, bound)`` of the first row holding a residue ``>= bound``."""
    tops = mat.max(axis=1)
    for top, bound in zip(tops.tolist(), bounds):
        if top >= bound:
            return top, bound
    return None


def _pack_rows_bits_np(handle, bounds) -> bytes:
    """The v2 bit-packing of a whole residue matrix (see :func:`_bit_plan`).

    ``handle`` is any sequence of equal-length rows; rows that share a
    width are gathered into one ``(R, n)`` stack and packed together.
    """
    bounds = [int(b) for b in bounds]
    n = len(handle[0]) if bounds else 0
    if n == 0:
        return b""
    sizes, starts, total = _row_layout(n, bounds)
    blob = _np.empty(total, dtype=_np.uint8)
    for width, idx in _row_stacks(n, bounds):
        try:
            mat = _np.asarray([handle[i] for i in idx], dtype=_np.uint64)
        except OverflowError:
            raise ValueError(
                "residue outside the unsigned 8-byte word range; "
                "reduce rows before packing"
            ) from None
        bad = _first_out_of_range(mat, [bounds[i] for i in idx])
        if bad is not None:
            raise ValueError(
                f"residue {bad[0]} outside [0, {bad[1]}); "
                "reduce rows before packing"
            )
        g, group_bytes, windows, _ = _bit_plan(width)
        groups = -(-n // g)
        if n % g:
            padded = _np.zeros((len(idx), groups * g), dtype=_np.uint64)
            padded[:, :n] = mat
            mat = padded
        # coefficient-major: column j of every group is one contiguous vector
        cols = _np.ascontiguousarray(
            mat.reshape(len(idx), groups, g).transpose(2, 0, 1)
        )
        packed = _np.empty((len(idx), groups * group_bytes), dtype=_np.uint8)
        for offset, terms in windows:
            _group_windows(packed, offset, groups, group_bytes)[...] = (
                _or_shifted(cols, terms)
            )
        for r, i in enumerate(idx):
            blob[starts[i] : starts[i] + sizes[i]] = packed[r, : sizes[i]]
    return blob.tobytes()


def _unpack_rows_bits_np(data, n: int, bounds):
    """Inverse of :func:`_pack_rows_bits_np`: a ``(len(bounds), n)``
    ``uint64`` matrix, every wire check applied."""
    bounds = [int(b) for b in bounds]
    sizes, starts, total = _row_layout(n, bounds)
    if len(data) < total:
        raise ValueError(
            f"truncated packed rows: need {total} bytes, have {len(data)}"
        )
    if len(data) > total:
        raise ValueError(
            f"trailing bytes after packed rows: {len(data)} bytes, "
            f"expected {total}"
        )
    src = _np.frombuffer(data, dtype=_np.uint8)
    out = _np.empty((len(bounds), n), dtype=_np.uint64)
    if n == 0:
        return out
    for width, idx in _row_stacks(n, bounds):
        g, group_bytes, windows, coefficients = _bit_plan(width)
        groups = -(-n // g)
        staged = _np.zeros((len(idx), groups * group_bytes), dtype=_np.uint8)
        for r, i in enumerate(idx):
            staged[r, : sizes[i]] = src[starts[i] : starts[i] + sizes[i]]
        words = [
            _group_windows(staged, offset, groups, group_bytes).astype(_np.uint64)
            for offset, _ in windows
        ]
        vals = _np.empty((len(idx), groups, g), dtype=_np.uint64)
        mask = _np.uint64((1 << width) - 1)
        for j, terms in enumerate(coefficients):
            _np.bitwise_and(
                _or_shifted(words, terms), mask, out=vals[:, :, j]
            )
        vals = vals.reshape(len(idx), groups * g)
        # bytes past a row's end were staged as zeros, so the coefficients
        # past n are exactly the row's padding bits
        if n % g and vals[:, n:].any():
            raise ValueError("nonzero padding bits in packed residue row")
        vals = vals[:, :n]
        bad = _first_out_of_range(vals, [bounds[i] for i in idx])
        if bad is not None:
            raise ValueError(
                f"packed residue {bad[0]} outside [0, {bad[1]}); corrupt row"
            )
        out[idx] = vals
    return out


class PolynomialBackend(abc.ABC):
    """Kernel provider for residue-row polynomial arithmetic."""

    #: Registry / selection name (e.g. ``"reference"``, ``"numpy"``).
    name: str = "abstract"

    #: True when this backend's native resident representation *is* the
    #: canonical list form (the reference backend); array backends set
    #: this False.  The counting wrapper uses it to attribute boundary
    #: conversions (lift = lists -> arrays, lower = arrays -> lists).
    native_is_python: bool = True

    @property
    def cache_token(self) -> str:
        """Identity of this backend's *native data representation*.

        Caches of backend-native operands (e.g. the stacked key columns
        on :class:`repro.ckks.keys.KswitchKey`) key on this, so two
        backend instances may share cached representations exactly when
        their native forms are interchangeable.  Same-class instances
        share a token by default; delegating wrappers must derive theirs
        from the wrapped backend's token.
        """
        return self.name

    # ------------------------------------------------------------------
    # resident residue matrices (RnsPolynomial storage handles)
    #
    # A *handle* is this backend's native representation of an (L, n)
    # residue matrix -- one row per RNS modulus.  The defaults keep the
    # canonical list form (which is the reference backend's native
    # representation); array backends override with contiguous matrices.
    # ------------------------------------------------------------------
    def make_rows(self, count: int, n: int):
        """A zero-filled native residue matrix of ``count`` rows."""
        return [[0] * n for _ in range(count)]

    def from_rows(self, rows):
        """Lift a residue matrix into this backend's native handle form.

        Idempotent and value-preserving; a handle already in native form
        is returned as-is (it may share structure with the input).
        """
        return canonical_rows(rows)

    def to_rows(self, handle) -> List[List[int]]:
        """Materialize a handle as canonical lists of Python ints.

        The inverse of :meth:`from_rows`; non-copying when the handle is
        already canonical.
        """
        return canonical_rows(handle)

    def copy_rows(self, handle):
        """A native, independently-mutable copy of a residue matrix."""
        if hasattr(handle, "copy") and hasattr(handle, "dtype"):
            return handle.copy()
        return [
            r.copy() if hasattr(r, "dtype") else list(r) for r in handle
        ]

    def get_row(self, handle, i: int):
        """Row ``i`` of a handle, in native row form (may be a view)."""
        return handle[i]

    def set_row(self, handle, i: int, row) -> None:
        """Overwrite row ``i`` of a handle in place."""
        handle[i] = row

    def select_rows(self, handle, indices: Sequence[int]):
        """A new handle holding the selected rows (basis restriction)."""
        return [handle[i] for i in indices]

    def insert_row(self, handle, index: int, row):
        """A new handle with ``row`` inserted at ``index``."""
        out = list(handle)
        out.insert(index, row)
        return out

    # -- whole-polynomial kernels: one row per modulus -----------------
    @staticmethod
    def _check_width(*stacks) -> None:
        """Every row of every operand must have the same width.

        The column-wise twin of :meth:`_check_rows_count`: the reference
        loops would ``zip``-truncate a short row and an array backend
        broadcast a one-wide one.  O(1) for a resident matrix.
        """
        widths = set()
        for s in stacks:
            shape = getattr(s, "shape", None)
            widths.update(shape[1:2] if shape else map(len, s))
        if len(widths) > 1:
            raise ValueError(f"row width mismatch: {sorted(widths)}")

    @classmethod
    def _check_rows_count(cls, moduli, *handles) -> None:
        """Every handle must carry exactly one row per modulus.

        Mirrors :meth:`_rows_of`'s rationale: a silent zip truncation on
        one backend and a shape error on another would break backend
        interchangeability, so the mismatch raises in the shared default.
        """
        for h in handles:
            if len(h) != len(moduli):
                raise ValueError(
                    f"row count mismatch: handle has {len(h)} rows for "
                    f"{len(moduli)} moduli"
                )
        cls._check_width(*handles)

    def add_rows(self, moduli: Sequence[Modulus], a, b):
        """Per-modulus ``a + b mod p`` over whole residue matrices."""
        self._check_rows_count(moduli, a, b)
        return [self.add(m, x, y) for m, x, y in zip(moduli, a, b)]

    def sub_rows(self, moduli: Sequence[Modulus], a, b):
        """Per-modulus ``a - b mod p`` over whole residue matrices."""
        self._check_rows_count(moduli, a, b)
        return [self.sub(m, x, y) for m, x, y in zip(moduli, a, b)]

    def negate_rows(self, moduli: Sequence[Modulus], a):
        """Per-modulus ``-a mod p`` over a whole residue matrix."""
        self._check_rows_count(moduli, a)
        return [self.negate(m, x) for m, x in zip(moduli, a)]

    def dyadic_mul_rows(self, moduli: Sequence[Modulus], a, b):
        """Per-modulus ``a * b mod p`` over whole residue matrices."""
        self._check_rows_count(moduli, a, b)
        return [self.dyadic_mul(m, x, y) for m, x, y in zip(moduli, a, b)]

    def dyadic_mac_rows(self, moduli: Sequence[Modulus], acc, x, y):
        """Per-modulus ``acc + x * y mod p`` over whole residue matrices."""
        self._check_rows_count(moduli, acc, x, y)
        return [
            self.dyadic_mac(m, s, a, b)
            for m, s, a, b in zip(moduli, acc, x, y)
        ]

    def scalar_mul_rows(self, moduli: Sequence[Modulus], a, scalars: Sequence[int]):
        """Per-modulus ``a * scalar_i mod p_i`` with reduced scalars."""
        self._check_rows_count(moduli, a)
        return [
            self.scalar_mul(m, x, s) for m, x, s in zip(moduli, a, scalars)
        ]

    def galois_rows(self, moduli: Sequence[Modulus], handle, mapping: Sequence[tuple]):
        """Coefficient-domain Galois automorphism of a residue matrix.

        ``mapping`` is the per-coefficient ``(dest, flip)`` table of
        :meth:`repro.ckks.context.CkksContext.galois_map`; signs depend
        on the modulus, so each row runs as a one-row
        :meth:`apply_galois_stack` under its own modulus (one canonical
        signed-permutation implementation).
        """
        self._check_rows_count(moduli, handle)
        out = []
        for m, row in zip(moduli, handle):
            out.extend(self.apply_galois_stack(m, [row], mapping))
        return out

    def decompose_native(self, moduli: Sequence[Modulus], coeffs):
        """:meth:`decompose`, but returning a native residue handle.

        ``coeffs`` may be any integer sequence (signed, multi-word, or
        an integer ndarray); the result holds ``c mod p`` rows in the
        backend's resident representation.
        """
        if hasattr(coeffs, "tolist"):
            coeffs = coeffs.tolist()
        return self.decompose(list(moduli), coeffs)

    def pack_rows(self, handle) -> bytes:
        """Serialize a residue matrix as little-endian 8-byte words.

        The wire is representation-independent, so even list-native
        backends use one numpy array pass when numpy is importable (the
        serving layer serializes every request); the pure-Python loop
        remains the numpy-less fallback.
        """
        if _np is not None:
            try:
                mat = (
                    handle
                    if isinstance(handle, _np.ndarray)
                    and handle.dtype == _np.uint64
                    else _np.asarray(handle, dtype=_np.uint64)
                )
                return mat.astype("<u8", copy=False).tobytes()
            except (OverflowError, ValueError, TypeError):
                pass  # per-int loop below decides whether the rows fit
        chunks = []
        try:
            for row in handle:
                if hasattr(row, "tolist"):
                    row = row.tolist()
                chunks.append(
                    b"".join(
                        int(v).to_bytes(ROW_WORD_BYTES, "little") for v in row
                    )
                )
        except OverflowError:
            raise ValueError(
                "residue word outside the unsigned 8-byte wire range; "
                "reduce rows before packing"
            ) from None
        return b"".join(chunks)

    def unpack_rows(self, data, count: int, n: int):
        """Deserialize ``count`` rows of ``n`` words into a native handle.

        ``data`` must hold exactly ``count * n`` little-endian 8-byte
        words (callers validate payload sizes before slicing).  The
        default produces canonical lists -- via one numpy pass when
        available -- so list-native backends stay fast on the wire.
        """
        if _np is not None:
            flat = _np.frombuffer(data, dtype="<u8", count=count * n)
            return flat.reshape(count, n).tolist()
        view = memoryview(data)
        rows = []
        offset = 0
        for _ in range(count):
            rows.append(
                [
                    int.from_bytes(
                        view[offset + i * ROW_WORD_BYTES : offset + (i + 1) * ROW_WORD_BYTES],
                        "little",
                    )
                    for i in range(n)
                ]
            )
            offset += n * ROW_WORD_BYTES
        return rows

    def pack_rows_bits(self, handle, bounds: Sequence[int]) -> bytes:
        """Serialize a residue matrix bit-packed to per-row word width.

        ``bounds[i]`` is row ``i``'s modulus value; its coefficients
        pack at ``bounds[i].bit_length()`` bits per word, MSB-first,
        each row zero-padded to a byte boundary (wire format v2).  A
        value outside ``[0, bounds[i])`` raises -- it cannot survive the
        narrowed word.  ``handle`` may be any sequence of rows: rows are
        byte-aligned and independent, so the components of one object
        pack in one call (their rows in wire order, the bounds list
        repeated) to the same bytes as one call per component.  Runs as
        whole-array word shifts (:func:`_bit_plan`) when numpy is
        importable; the big-int loop is the numpy-less fallback.
        """
        _check_pack_bounds(handle, bounds)
        if _np is not None:
            return _pack_rows_bits_np(handle, bounds)
        chunks = []
        for row, bound in zip(handle, bounds):
            width = int(bound).bit_length()
            packed_row_bytes(1, width)  # validate the width range
            if hasattr(row, "tolist"):
                row = row.tolist()
            chunks.append(_pack_row_bits_py(row, int(bound), width))
        return b"".join(chunks)

    def unpack_rows_bits(self, data, n: int, bounds: Sequence[int]):
        """Deserialize per-row bit-packed rows into a native handle.

        Inverse of :meth:`pack_rows_bits`: ``data`` must hold exactly
        ``sum(packed_row_bytes(n, b.bit_length()))`` bytes.  Decoding
        validates what the narrowed word lets it: nonzero padding bits
        and residues ``>= bounds[i]`` both raise, so bit-level
        corruption in the reachable range is rejected rather than
        served.  The rows land in this backend's native form
        (:meth:`from_rows` of the decoded matrix).
        """
        if _np is not None:
            return self.from_rows(_unpack_rows_bits_np(data, n, bounds))
        view = memoryview(data)
        offset = 0
        rows = []
        for bound in bounds:
            width = int(bound).bit_length()
            nbytes = packed_row_bytes(n, width)
            if offset + nbytes > len(view):
                raise ValueError(
                    f"truncated packed row: need {nbytes} bytes at offset "
                    f"{offset}, have {len(view) - offset}"
                )
            rows.append(
                _unpack_row_bits_py(
                    view[offset : offset + nbytes], n, int(bound), width
                )
            )
            offset += nbytes
        if offset != len(view):
            raise ValueError(
                f"trailing bytes after packed rows: {len(view)} bytes, "
                f"expected {offset}"
            )
        return rows

    # ------------------------------------------------------------------
    # negacyclic NTT (Algorithms 3 and 4)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def ntt_forward(self, tables: NTTTables, row: Sequence[int]) -> List[int]:
        """Forward NTT: standard-order input, bit-reversed output."""

    @abc.abstractmethod
    def ntt_inverse(self, tables: NTTTables, row: Sequence[int]) -> List[int]:
        """Inverse NTT: bit-reversed input, standard-order output."""

    def ntt_forward_rows(
        self, tables_list: Sequence[NTTTables], rows: Sequence[Sequence[int]]
    ) -> List[List[int]]:
        """Forward-transform one row per modulus (a full RNS polynomial)."""
        self._check_rows_count(tables_list, rows)
        return [self.ntt_forward(t, r) for t, r in zip(tables_list, rows)]

    def ntt_inverse_rows(
        self, tables_list: Sequence[NTTTables], rows: Sequence[Sequence[int]]
    ) -> List[List[int]]:
        """Inverse-transform one row per modulus (a full RNS polynomial)."""
        self._check_rows_count(tables_list, rows)
        return [self.ntt_inverse(t, r) for t, r in zip(tables_list, rows)]

    # ------------------------------------------------------------------
    # dyadic (coefficient-wise) arithmetic
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def add(self, modulus: Modulus, a: Sequence[int], b: Sequence[int]) -> List[int]:
        """``a + b mod p`` coefficient-wise."""

    @abc.abstractmethod
    def sub(self, modulus: Modulus, a: Sequence[int], b: Sequence[int]) -> List[int]:
        """``a - b mod p`` coefficient-wise."""

    @abc.abstractmethod
    def negate(self, modulus: Modulus, a: Sequence[int]) -> List[int]:
        """``-a mod p`` coefficient-wise."""

    @abc.abstractmethod
    def dyadic_mul(self, modulus: Modulus, a: Sequence[int], b: Sequence[int]) -> List[int]:
        """``a * b mod p`` coefficient-wise (one DyadMult lane)."""

    @abc.abstractmethod
    def dyadic_mac(
        self,
        modulus: Modulus,
        acc: Sequence[int],
        x: Sequence[int],
        y: Sequence[int],
    ) -> List[int]:
        """``acc + x * y mod p`` coefficient-wise (DyadMult-and-accumulate)."""

    # ------------------------------------------------------------------
    # scalar operations
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def scalar_mul(self, modulus: Modulus, a: Sequence[int], scalar: int) -> List[int]:
        """``a * scalar mod p`` with a reduced scalar in ``[0, p)``."""

    @abc.abstractmethod
    def scalar_mac(
        self, modulus: Modulus, acc: Sequence[int], a: Sequence[int], scalar: int
    ) -> List[int]:
        """``acc + a * scalar mod p`` with a reduced scalar in ``[0, p)``."""

    # ------------------------------------------------------------------
    # RNS base conversion
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def reduce_mod(self, modulus: Modulus, row: Sequence[int]) -> List[int]:
        """Reduce arbitrary (possibly unreduced) integers into ``[0, p)``.

        This is the ``Mod(a, p_j)`` base-conversion step of Algorithm 7
        line 6: a coefficient row living modulo ``p_i`` is reinterpreted
        modulo ``p_j``.
        """

    def decompose(
        self, moduli: Sequence[Modulus], coeffs: Sequence[int]
    ) -> List[List[int]]:
        """RNS-decompose integer coefficients into one row per modulus.

        Coefficients may be signed or larger than any single modulus;
        the result row for modulus ``p`` holds ``c mod p`` in ``[0, p)``.
        """
        return [self.reduce_mod(m, coeffs) for m in moduli]

    # ------------------------------------------------------------------
    # stacked-row kernels (ciphertext-level batch parallelism)
    #
    # Semantics: map the single-row kernel over R rows sharing one
    # modulus.  Defaults loop row by row -- exactly the reference
    # behaviour -- so only backends that can amortize whole-stack work
    # (numpy) need to override.  Dyadic second operands may be a single
    # row, broadcast against every row of the stack.
    # ------------------------------------------------------------------
    @staticmethod
    def _rows_of(operand, count: int):
        """Normalize a row-or-stack dyadic operand to ``count`` rows.

        A stack operand must match the primary stack's length exactly --
        silent zip-truncation on one backend and a broadcast error on
        another would break interchangeability, so the mismatch raises
        here in the shared default.
        """
        if is_row(operand):
            return [operand] * count
        if len(operand) != count:
            raise ValueError(
                f"stack length mismatch: operand has {len(operand)} rows, "
                f"expected {count}"
            )
        return operand

    def native_stack(self, stack: RowStack) -> RowStack:
        """Re-represent a stack in this backend's preferred form.

        Idempotent and value-preserving.  Callers that hold a stack for
        repeated use (e.g. :class:`repro.ckks.batch.CiphertextBatch`)
        lift it once so per-operation boundary conversion is not paid on
        every kernel call; the default keeps the stack as-is.
        """
        return stack

    def ntt_forward_stack(self, tables: NTTTables, stack: RowStack) -> RowStack:
        """Forward NTT of every row (one modulus, one table set)."""
        return [self.ntt_forward(tables, row) for row in stack]

    def ntt_inverse_stack(self, tables: NTTTables, stack: RowStack) -> RowStack:
        """Inverse NTT of every row (one modulus, one table set)."""
        return [self.ntt_inverse(tables, row) for row in stack]

    def add_stack(self, modulus: Modulus, a: RowStack, b) -> RowStack:
        """Row-wise ``a + b mod p``; ``b`` may be a stack or one row."""
        return [self.add(modulus, x, y) for x, y in zip(a, self._rows_of(b, len(a)))]

    def sub_stack(self, modulus: Modulus, a: RowStack, b) -> RowStack:
        """Row-wise ``a - b mod p``; ``b`` may be a stack or one row."""
        other = self._rows_of(b, len(a))
        self._check_width(a, other)
        return [self.sub(modulus, x, y) for x, y in zip(a, other)]

    def negate_stack(self, modulus: Modulus, a: RowStack) -> RowStack:
        """Row-wise ``-a mod p``."""
        return [self.negate(modulus, x) for x in a]

    def dyadic_mul_stack(self, modulus: Modulus, a: RowStack, b) -> RowStack:
        """Row-wise ``a * b mod p``; ``b`` may be a stack or one row."""
        return [
            self.dyadic_mul(modulus, x, y)
            for x, y in zip(a, self._rows_of(b, len(a)))
        ]

    def dyadic_mac_stack(self, modulus: Modulus, acc: RowStack, x: RowStack, y) -> RowStack:
        """Row-wise ``acc + x * y mod p``; ``y`` may be a stack or one row."""
        return [
            self.dyadic_mac(modulus, s, a, b)
            for s, a, b in zip(
                acc, self._rows_of(x, len(acc)), self._rows_of(y, len(acc))
            )
        ]

    def dyadic_stack_reduce(
        self, modulus: Modulus, x: RowStack, y: RowStack
    ) -> RowStack:
        """``sum_i x_i * y[i] mod p`` -> a stack of ``len(x) // len(y)`` rows.

        The fused inner product of key switching: one call accumulates
        every gadget digit's dyadic product against one key column
        (Algorithm 7 lines 11-12 / 16-17 for all ``i`` at once), instead
        of a Python-level MAC per digit.  ``x`` is digit-major: with
        ``c`` polynomials stacked, rows ``[i*c, (i+1)*c)`` are digit
        ``i`` of each and share key row ``y[i]`` -- the way the hardware
        shares one key between the pipelined ciphertexts.
        """
        digits = len(y)
        if not digits or len(x) % digits:
            raise ValueError(
                f"stack length mismatch: {len(x)} vs {len(y)} rows"
            )
        if not len(x):
            raise ValueError("cannot reduce an empty stack")
        self._check_width(x, y)
        count = len(x) // digits
        out = []
        for b in range(count):
            acc = self.dyadic_mul(modulus, x[b], y[0])
            for i in range(1, digits):
                acc = self.dyadic_mac(modulus, acc, x[i * count + b], y[i])
            out.append(acc)
        return out

    def scalar_mul_stack(self, modulus: Modulus, a: RowStack, scalar: int) -> RowStack:
        """Row-wise ``a * scalar mod p`` with a reduced scalar."""
        return [self.scalar_mul(modulus, x, scalar) for x in a]

    def reduce_mod_stack(self, modulus: Modulus, stack: RowStack) -> RowStack:
        """Row-wise reduction into ``[0, p)`` (stacked Algorithm 7 line 6)."""
        return [self.reduce_mod(modulus, row) for row in stack]

    def apply_galois_stack(
        self,
        modulus: Modulus,
        stack: RowStack,
        mapping: Sequence[tuple],
    ) -> RowStack:
        """Permute every coefficient-form row by a Galois automorphism.

        ``mapping[i] = (dest, flip)`` sends coefficient ``i`` to index
        ``dest``, negated mod ``p`` when ``flip`` (the sign rule of
        ``X^i -> X^{ig}`` in ``Z[X]/(X^n+1)``; see
        :meth:`repro.ckks.context.CkksContext.galois_map`).
        """
        p = modulus.value
        out = []
        for row in stack:
            if hasattr(row, "tolist"):
                row = row.tolist()
            new_row = [0] * len(mapping)
            for idx, (dest, flip) in enumerate(mapping):
                v = row[idx]
                new_row[dest] = (p - v) if (flip and v) else v
            out.append(new_row)
        return out

    def permute_ntt_stack(
        self, stack: RowStack, table: Sequence[int]
    ) -> RowStack:
        """Gather-permute every row: ``out_row[i] = row[table[i]]``.

        The NTT-domain Galois automorphism (see
        :meth:`repro.ckks.context.CkksContext.galois_map_ntt`): a sign-free
        permutation, so -- unlike :meth:`apply_galois_stack` -- it needs no
        modulus and rows under *different* RNS moduli may share one call.
        """
        out = []
        for row in stack:
            if hasattr(row, "tolist"):
                row = row.tolist()
            out.append([row[s] for s in table])
        return out

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"
