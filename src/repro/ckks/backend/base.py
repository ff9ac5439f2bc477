"""The polynomial-backend contract: 27 resident-matrix kernels.

HEAX builds its NTT, MULT and KeySwitch modules out of one small set of
cores and gets every level of parallelism from how many rows it feeds
them (Section 4, Figures 2, 5, 7).  :class:`PolynomialBackend` is the
software stand-in for those cores.  The scheme layer never loops over
coefficients; it hands whole residue matrices to the active backend, so
a vectorized implementation accelerates the stack without touching
scheme code.

**The handle.**  A residue matrix is ``R`` rows of ``n`` integers, row
``r`` reduced into ``[0, p_r)``.  A backend keeps it in a *native
handle* it chooses -- canonical ``list`` rows of Python ``int`` on the
reference backend, one C-contiguous ``(R, n)`` ``uint64`` array on the
numpy backend -- the analogue of operands staying resident in on-chip
memory across pipeline stages.  A handle is an indexable sequence of
rows (``len(h)``, ``h[i]``, iteration).  Every kernel accepts *any* row
sequence (lists, arrays, a handle of another backend) and returns its
own native form; :meth:`from_rows` / :meth:`to_rows` are idempotent and
value-preserving, so a handle can always be re-homed, at a conversion
cost :class:`repro.ckks.backend.CountingBackend` makes visible as
``lift_rows`` / ``lower_rows``.  All kernels are **exact**: two backends
given the same inputs produce the same residues
(``tests/ckks/test_differential.py``, ``test_backend_equivalence.py``).

**The primitives** (:data:`PRIMITIVES`) are the whole implementable
surface -- each backend defines each one exactly once:

* handles: ``from_rows to_rows copy_rows set_row select_rows
  native_stack``;
* one modulus *per row* (the shape of an RNS polynomial, or of a lane
  with its modulus column repeated): ``add_rows sub_rows negate_rows
  dyadic_mul_rows dyadic_mac_rows scalar_mul_rows ntt_forward_rows
  ntt_inverse_rows galois_rows``;
* one modulus *per stack* (every row of a lane under one prime):
  ``ntt_forward_stack ntt_inverse_stack reduce_mod_stack sub_stack
  scalar_mul_stack dyadic_stack_reduce``, and the modulus-free
  ``permute_ntt_stack``;
* ``decompose_native`` -- integers of any size and sign into residues;
* wire: ``pack_rows unpack_rows pack_rows_bits unpack_rows_bits``.  Bytes
  do not depend on the representation, so these four have one body,
  here, for every backend; the other 23 are abstract.

**The derived names** (:data:`DERIVED`) are the per-row list kernels of
PR 1, the one-modulus ``*_stack`` twins of the ``*_rows`` kernels and
three handle conveniences.  Nothing under ``src/repro`` calls them (lint
R2); tests, benchmarks and the frozen ``bench/trace.py`` kernel table
still do, so each survives as one expression over the primitives, defined
here and overridden nowhere -- "a row is a stack of one": lift, call,
lower to the canonical ``list`` of ``int``.
"""

from __future__ import annotations

import abc
import functools
import math
from typing import List, Sequence

import numpy as np

from repro.ckks.backend import resident
from repro.ckks.modarith import Modulus
from repro.ckks.ntt import NTTTables

#: The kernels a backend implements (see the module docstring).
PRIMITIVES = (
    "from_rows", "to_rows", "copy_rows", "set_row", "select_rows", "native_stack",
    "add_rows", "sub_rows", "negate_rows",
    "dyadic_mul_rows", "dyadic_mac_rows", "scalar_mul_rows",
    "ntt_forward_rows", "ntt_inverse_rows", "galois_rows",
    "ntt_forward_stack", "ntt_inverse_stack", "reduce_mod_stack",
    "sub_stack", "scalar_mul_stack", "dyadic_stack_reduce", "permute_ntt_stack",
    "decompose_native",
    "pack_rows", "unpack_rows", "pack_rows_bits", "unpack_rows_bits",
)

#: The conveniences :class:`PolynomialBackend` derives from them; no
#: backend overrides one and nothing under ``src/repro`` calls one.
DERIVED = (
    "ntt_forward", "ntt_inverse", "add", "sub", "negate",
    "dyadic_mul", "dyadic_mac", "scalar_mul", "scalar_mac",
    "reduce_mod", "decompose",
    "add_stack", "negate_stack", "dyadic_mul_stack", "dyadic_mac_stack",
    "apply_galois_stack",
    "make_rows", "get_row", "insert_row",
)

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


_U8 = np.dtype(np.uint8)

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
        return words << np.uint64(shift)
    if shift < 0:
        return words >> np.uint64(-shift)
    return words


def _or_shifted(columns, terms):
    """OR of ``columns[i] << shift`` over ``terms = ((i, shift), ...)``."""
    acc = None
    for i, shift in terms:
        piece = _shifted(columns[i], shift)
        acc = piece if acc is None else acc | piece
    return acc


def _group_windows(buf, offset: int, rows: int, groups: int, group_bytes: int, row_stride: int):
    """The (unaligned) big-endian word at ``offset`` of every group of
    ``rows`` packed rows lying ``row_stride`` bytes apart in ``buf``."""
    return np.ndarray(
        (rows, groups),
        dtype=">u8",
        buffer=buf,
        offset=offset,
        strides=(row_stride, group_bytes),
    )


#: Coefficients per vector pass.  Stacking same-width rows amortizes
#: numpy's per-call cost, but only while every temporary of a pass stays
#: cache-resident: past this, a Set-C stack (12 x 16384 words) runs 3-4x
#: slower than its rows one at a time.
_STACK_COEFFS = 1 << 15


@functools.lru_cache(maxsize=256)
def _row_plan(n: int, bounds: tuple):
    """The wire layout of rows of ``n`` coefficients below ``bounds``,
    computed once per shape: per-row packed sizes and start offsets, the
    total byte count, and the vector passes ``[(width, rows, base,
    stride)]`` -- same-width rows, at most ``_STACK_COEFFS`` coefficients.
    Rows of whole groups that lie evenly spaced (the components of one
    object) have their windows addressed where the bytes are, row ``r``
    of the pass at byte ``base + r * stride``; else ``base`` is ``None``
    and the pass is staged."""
    sizes = [packed_row_bytes(n, b.bit_length()) for b in bounds]
    starts = [0] * len(sizes)
    for i in range(1, len(sizes)):
        starts[i] = starts[i - 1] + sizes[i - 1]
    by_width = {}
    for i, bound in enumerate(bounds):
        by_width.setdefault(bound.bit_length(), []).append(i)
    rows = max(1, _STACK_COEFFS // max(n, 1))
    passes = []
    for width, same in by_width.items():
        for k in range(0, len(same), rows):
            idx = same[k : k + rows]
            base = starts[idx[0]]
            stride = (starts[idx[-1]] - base) // max(1, len(idx) - 1) or sizes[idx[0]]
            if n % _bit_plan(width)[0] or any(
                starts[i] != base + r * stride for r, i in enumerate(idx)
            ):
                base = None
            passes.append((width, idx, base, stride))
    return sizes, starts, sum(sizes), passes


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
    width are gathered, coefficient-major, and packed together.
    """
    bounds = tuple(int(b) for b in bounds)
    n = len(handle[0]) if bounds else 0
    if n == 0:
        return b""
    sizes, starts, total, passes = _row_plan(n, bounds)
    blob = resident.new((total,), _U8)
    for width, idx, base, stride in passes:
        g, group_bytes, windows, _ = _bit_plan(width)
        groups, full = -(-n // g), n // g
        # coefficient-major: column j of every group is one contiguous vector
        cols = resident.new((g, len(idx), groups))
        for r, i in enumerate(idx):
            try:
                row = np.asarray(handle[i], dtype=np.uint64)
            except OverflowError:
                raise ValueError(
                    "residue outside the unsigned 8-byte word range; "
                    "reduce rows before packing"
                ) from None
            if row.shape != (n,):
                raise ValueError(f"row {i} is not {n} coefficients wide")
            top = int(row.max())
            if top >= bounds[i]:
                raise ValueError(
                    f"residue {top} outside [0, {bounds[i]}); reduce rows before packing"
                )
            cols[:, r, :full] = row[: full * g].reshape(full, g).T
            if full < groups:  # the last group, padded with zero coefficients
                cols[:, r, full] = 0
                cols[: n - full * g, r, full] = row[full * g :]
        dest = blob
        if base is None:  # staged: a row's last group runs past its bytes
            base, stride = 0, groups * group_bytes
            dest = resident.new((len(idx), stride), _U8)
        for offset, terms in windows:
            _group_windows(
                dest, base + offset, len(idx), groups, group_bytes, stride
            )[...] = _or_shifted(cols, terms)
        if dest is not blob:
            for r, i in enumerate(idx):
                blob[starts[i] : starts[i] + sizes[i]] = dest[r, : sizes[i]]
    return blob.tobytes()


def _store_rows(out, idx, vals) -> None:
    """Decoded rows ``vals`` into rows ``idx`` of a destination, in place:
    one assignment into a matrix (or a strided view of one), else row by
    row into what each row is -- an array row, a canonical list."""
    if isinstance(out, np.ndarray):
        out[idx] = vals
        return
    for i, row in zip(idx, vals):
        out[i][:] = row if isinstance(out[i], np.ndarray) else row.tolist()


def _check_destination(out, count: int, n: int) -> None:
    """numpy would broadcast a short destination, ``zip`` truncate a long one."""
    if len(out) != count or any(len(row) != n for row in out):
        raise ValueError(f"destination is not {count} rows of {n} words")


def _unpack_rows_bits_np(data, n: int, bounds, out):
    """Inverse of :func:`_pack_rows_bits_np` into the rows of ``out`` (see
    :meth:`PolynomialBackend.unpack_rows_bits`), every wire check applied."""
    bounds = tuple(int(b) for b in bounds)
    sizes, starts, total, passes = _row_plan(n, bounds)
    if len(data) < total:
        raise ValueError(
            f"truncated packed rows: need {total} bytes, have {len(data)}"
        )
    if len(data) > total:
        raise ValueError(
            f"trailing bytes after packed rows: {len(data)} bytes, "
            f"expected {total}"
        )
    _check_destination(out, len(bounds), n)
    src = np.frombuffer(data, dtype=np.uint8)
    if n == 0:
        return out
    for width, idx, base, stride in passes:
        g, group_bytes, windows, coefficients = _bit_plan(width)
        groups = -(-n // g)
        buf = src
        if base is None:
            # staged: bytes past a row's end are zeros, so the
            # coefficients past n are exactly the row's padding bits
            base, stride = 0, groups * group_bytes
            buf = resident.new((len(idx), stride), _U8)
            for r, i in enumerate(idx):
                buf[r, : sizes[i]] = src[starts[i] : starts[i] + sizes[i]]
                buf[r, sizes[i] :] = 0
        words = resident.new((len(windows), len(idx), groups))
        for word, (offset, _) in zip(words, windows):
            word[...] = _group_windows(
                buf, base + offset, len(idx), groups, group_bytes, stride
            )
        vals = resident.new((len(idx), groups, g))
        mask = np.uint64((1 << width) - 1)
        for j, terms in enumerate(coefficients):
            np.bitwise_and(
                _or_shifted(words, terms), mask, out=vals[:, :, j]
            )
        vals = vals.reshape(len(idx), groups * g)
        if n % g and vals[:, n:].any():
            raise ValueError("nonzero padding bits in packed residue row")
        vals = vals[:, :n]
        bad = _first_out_of_range(vals, [bounds[i] for i in idx])
        if bad is not None:
            raise ValueError(
                f"packed residue {bad[0]} outside [0, {bad[1]}); corrupt row"
            )
        _store_rows(out, idx, vals)
    return out


class PolynomialBackend(abc.ABC):
    """Kernel provider for residue-matrix polynomial arithmetic."""

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
    # operand checks shared by every implementation: a silent zip
    # truncation on one backend and a broadcast on another would break
    # backend interchangeability, so count and width mismatches raise
    # ------------------------------------------------------------------
    @staticmethod
    def _check_width(*stacks) -> None:
        """Every row of every operand must have the same width (O(1) for
        a resident matrix)."""
        widths = set()
        for s in stacks:
            shape = getattr(s, "shape", None)
            widths.update(shape[1:2] if shape else map(len, s))
        if len(widths) > 1:
            raise ValueError(f"row width mismatch: {sorted(widths)}")

    @classmethod
    def _check_rows_count(cls, moduli, *handles) -> None:
        """Every handle must carry exactly one row per modulus."""
        for h in handles:
            if len(h) != len(moduli):
                raise ValueError(
                    f"row count mismatch: handle has {len(h)} rows for "
                    f"{len(moduli)} moduli"
                )
        cls._check_width(*handles)

    @staticmethod
    def _rows_of(operand, count: int):
        """Normalize a row-or-stack second operand to ``count`` rows: one
        row serves every row of the stack, a stack must match it exactly."""
        if is_row(operand):
            return [operand] * count
        if len(operand) != count:
            raise ValueError(
                f"stack length mismatch: operand has {len(operand)} rows, "
                f"expected {count}"
            )
        return operand

    # ------------------------------------------------------------------
    # primitives: handles
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def from_rows(self, rows):
        """Lift a residue matrix into this backend's native handle form.

        Idempotent and value-preserving; a handle already in native form
        is returned as-is (it may share structure with the input).
        """

    @abc.abstractmethod
    def to_rows(self, handle) -> List[List[int]]:
        """Materialize a handle as canonical lists of Python ints.

        The inverse of :meth:`from_rows`; non-copying when the handle is
        already canonical.
        """

    @abc.abstractmethod
    def copy_rows(self, handle):
        """A native, independently-mutable copy of a residue matrix."""

    @abc.abstractmethod
    def set_row(self, handle, i: int, row) -> None:
        """Overwrite row ``i`` of a handle in place (same width only)."""

    @abc.abstractmethod
    def select_rows(self, handle, indices: Sequence[int]):
        """A new handle holding the selected rows (basis restriction)."""

    @abc.abstractmethod
    def native_stack(self, stack: RowStack) -> RowStack:
        """Re-represent a row sequence in this backend's preferred form.

        Idempotent and value-preserving; unlike :meth:`from_rows` it
        leaves rows it cannot represent (out-of-word integers) as they
        are instead of canonicalizing them.
        """

    # ------------------------------------------------------------------
    # primitives: one modulus per row
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def add_rows(self, moduli: Sequence[Modulus], a, b):
        """Per-modulus ``a + b mod p`` over whole residue matrices."""

    @abc.abstractmethod
    def sub_rows(self, moduli: Sequence[Modulus], a, b):
        """Per-modulus ``a - b mod p`` over whole residue matrices."""

    @abc.abstractmethod
    def negate_rows(self, moduli: Sequence[Modulus], a):
        """Per-modulus ``-a mod p`` over a whole residue matrix."""

    @abc.abstractmethod
    def dyadic_mul_rows(self, moduli: Sequence[Modulus], a, b):
        """Per-modulus ``a * b mod p`` (one DyadMult lane per row)."""

    @abc.abstractmethod
    def dyadic_mac_rows(self, moduli: Sequence[Modulus], acc, x, y):
        """Per-modulus ``acc + x * y mod p`` (DyadMult-and-accumulate)."""

    @abc.abstractmethod
    def scalar_mul_rows(self, moduli: Sequence[Modulus], a, scalars: Sequence[int]):
        """Per-modulus ``a * scalar_i mod p_i``, one reduced scalar per row."""

    @abc.abstractmethod
    def ntt_forward_rows(self, tables_list: Sequence[NTTTables], rows):
        """Forward NTT (Algorithm 3) of one row per table set:
        standard-order input, bit-reversed output."""

    @abc.abstractmethod
    def ntt_inverse_rows(self, tables_list: Sequence[NTTTables], rows):
        """Inverse NTT (Algorithm 4) of one row per table set:
        bit-reversed input, standard-order output."""

    @abc.abstractmethod
    def galois_rows(self, moduli: Sequence[Modulus], handle, mapping: Sequence[tuple]):
        """Coefficient-domain Galois automorphism of a residue matrix.

        ``mapping[i] = (dest, flip)`` sends coefficient ``i`` to index
        ``dest``, negated mod ``p`` when ``flip`` (the sign rule of
        ``X^i -> X^{ig}`` in ``Z[X]/(X^n+1)``; see
        :meth:`repro.ckks.context.CkksContext.galois_map`), and must
        cover the whole row.
        """

    # ------------------------------------------------------------------
    # primitives: one modulus per stack.  A *stack* is ``R`` rows that
    # share a modulus -- every element of a lane under one prime, the
    # outermost level of parallelism in Figure 7.
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def ntt_forward_stack(self, tables: NTTTables, stack: RowStack) -> RowStack:
        """Forward NTT of every row (one modulus, one table set)."""

    @abc.abstractmethod
    def ntt_inverse_stack(self, tables: NTTTables, stack: RowStack) -> RowStack:
        """Inverse NTT of every row (one modulus, one table set)."""

    @abc.abstractmethod
    def reduce_mod_stack(self, modulus: Modulus, stack: RowStack) -> RowStack:
        """Row-wise reduction of word-sized residues into ``[0, p)``: the
        ``Mod(a, p_j)`` base conversion of Algorithm 7 line 6."""

    @abc.abstractmethod
    def sub_stack(self, modulus: Modulus, a: RowStack, b) -> RowStack:
        """Row-wise ``a - b mod p``; ``b`` may be a stack or one row."""

    @abc.abstractmethod
    def scalar_mul_stack(self, modulus: Modulus, a: RowStack, scalar: int) -> RowStack:
        """Row-wise ``a * scalar mod p`` with a reduced scalar."""

    @abc.abstractmethod
    def dyadic_stack_reduce(self, modulus: Modulus, x: RowStack, y: RowStack) -> RowStack:
        """``sum_i x_i * y[i] mod p`` -> a stack of ``len(x) // len(y)`` rows.

        The fused inner product of key switching: one call accumulates
        every gadget digit's dyadic product against one key column
        (Algorithm 7 lines 11-12 / 16-17 for all ``i`` at once).  ``x``
        is digit-major: with ``c`` polynomials stacked, rows
        ``[i*c, (i+1)*c)`` are digit ``i`` of each and share key row
        ``y[i]`` -- the way the hardware shares one key between the
        pipelined ciphertexts.
        """

    @staticmethod
    def _gathered_rows(stack, table):
        """``None`` for one gather table; for a matrix of ``R'`` of them
        the stack row each permutes: a one-row stack serves them all, any
        other must bring exactly ``R'`` rows."""
        if not len(table) or is_row(table):
            return None
        if len(stack) == 1:
            return [stack[0]] * len(table)
        if len(stack) != len(table):
            raise ValueError(
                f"stack length mismatch: {len(table)} gather tables for "
                f"{len(stack)} rows"
            )
        return stack

    @abc.abstractmethod
    def permute_ntt_stack(self, stack: RowStack, table) -> RowStack:
        """Gather-permute every row: ``out_row[i] = row[table[i]]``.

        The NTT-domain Galois automorphism (see
        :meth:`repro.ckks.context.CkksContext.galois_table_ntt`): a
        sign-free permutation, so it needs no modulus and rows under
        *different* RNS moduli may share one call.  ``table`` is one
        index row serving every row of the stack, or an ``(R', n)``
        matrix of them -- row ``r`` of the stack is then gathered by
        ``table[r]``, and a one-row stack is shared by every table row
        (``R'`` rows out): a sweep's accumulators each under their own
        rotation, its ``c0`` row under all of them.  A matrix whose row
        count matches neither 1 nor the stack raises ``ValueError``.
        """

    @abc.abstractmethod
    def decompose_native(self, moduli: Sequence[Modulus], coeffs):
        """RNS-decompose integer coefficients into one row per modulus.

        ``coeffs`` may be any integer sequence (signed, multi-word, or
        an integer ndarray); the row for modulus ``p`` holds ``c mod p``
        in ``[0, p)``.
        """

    # ------------------------------------------------------------------
    # primitives: the wire.  One body for every representation.
    # ------------------------------------------------------------------
    def pack_rows(self, handle) -> bytes:
        """Serialize a residue matrix as little-endian 8-byte words."""
        try:
            mat = np.asarray(handle, dtype=np.uint64)
        except OverflowError:
            raise ValueError(
                "residue word outside the unsigned 8-byte wire range; "
                "reduce rows before packing"
            ) from None
        return mat.astype("<u8", copy=False).tobytes()

    def unpack_rows(self, data, count: int, n: int, out=None):
        """Deserialize ``count`` rows of ``n`` words into a native handle,
        or into ``out`` (the destination of :meth:`unpack_rows_bits`).

        ``data`` must hold exactly ``count * n`` little-endian 8-byte
        words (callers validate payload sizes before slicing).
        """
        words = np.frombuffer(data, dtype="<u8", count=count * n).reshape(count, n)
        if out is None:
            # native byte order, writable
            out = resident.new((count, n))
            out[...] = words
            return self.from_rows(out)
        _check_destination(out, count, n)
        _store_rows(out, range(count), words)
        return out

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
        whole-array word shifts (:func:`_bit_plan`).
        """
        _check_pack_bounds(handle, bounds)
        return _pack_rows_bits_np(handle, bounds)

    def unpack_rows_bits(self, data, n: int, bounds: Sequence[int], out=None):
        """Deserialize per-row bit-packed rows into a native handle.

        Inverse of :meth:`pack_rows_bits`: ``data`` must hold exactly
        ``sum(packed_row_bytes(n, b.bit_length()))`` bytes.  Decoding
        validates what the narrowed word lets it: nonzero padding bits
        and residues ``>= bounds[i]`` both raise, so bit-level
        corruption in the reachable range is rejected rather than
        served.

        **Destination.**  ``out``, when given, is ``len(bounds)``
        writable ``n``-wide rows -- a native handle, or rows of a larger
        one such as ``handle[b::N]``, element ``b`` of a lane -- and row
        ``i`` is decoded *into* ``out[i]``: the words land where the
        kernels read them, rows ``out`` does not address are untouched,
        every check fires as without one (the addressed rows are then
        unspecified).  Positional: a delegating backend that forwards
        ``*args`` must carry it.
        """
        if out is not None:
            return _unpack_rows_bits_np(data, n, bounds, out)
        out = resident.new((len(bounds), n))
        return self.from_rows(_unpack_rows_bits_np(data, n, bounds, out))

    # ------------------------------------------------------------------
    # derived: a row is a stack of one.  Per-row results are canonical
    # lists of int; reduce_mod / decompose go through decompose_native
    # because their inputs may be signed or multi-word.
    # ------------------------------------------------------------------
    def ntt_forward(self, tables: NTTTables, row: Sequence[int]) -> List[int]:
        return self.to_rows(self.ntt_forward_stack(tables, [row]))[0]

    def ntt_inverse(self, tables: NTTTables, row: Sequence[int]) -> List[int]:
        return self.to_rows(self.ntt_inverse_stack(tables, [row]))[0]

    def add(self, modulus: Modulus, a: Sequence[int], b: Sequence[int]) -> List[int]:
        return self.to_rows(self.add_rows((modulus,), [a], [b]))[0]

    def sub(self, modulus: Modulus, a: Sequence[int], b: Sequence[int]) -> List[int]:
        return self.to_rows(self.sub_rows((modulus,), [a], [b]))[0]

    def negate(self, modulus: Modulus, a: Sequence[int]) -> List[int]:
        return self.to_rows(self.negate_rows((modulus,), [a]))[0]

    def dyadic_mul(self, modulus: Modulus, a: Sequence[int], b: Sequence[int]) -> List[int]:
        return self.to_rows(self.dyadic_mul_rows((modulus,), [a], [b]))[0]

    def dyadic_mac(
        self, modulus: Modulus, acc: Sequence[int], x: Sequence[int], y: Sequence[int]
    ) -> List[int]:
        return self.to_rows(self.dyadic_mac_rows((modulus,), [acc], [x], [y]))[0]

    def scalar_mul(self, modulus: Modulus, a: Sequence[int], scalar: int) -> List[int]:
        return self.to_rows(self.scalar_mul_stack(modulus, [a], scalar))[0]

    def scalar_mac(
        self, modulus: Modulus, acc: Sequence[int], a: Sequence[int], scalar: int
    ) -> List[int]:
        return self.to_rows(
            self.add_rows((modulus,), self.scalar_mul_stack(modulus, [a], scalar), [acc])
        )[0]

    def reduce_mod(self, modulus: Modulus, row: Sequence[int]) -> List[int]:
        return self.to_rows(self.decompose_native((modulus,), row))[0]

    def decompose(self, moduli: Sequence[Modulus], coeffs: Sequence[int]) -> List[List[int]]:
        return self.to_rows(self.decompose_native(moduli, coeffs))

    # derived: one modulus for every row is a modulus column of one value
    def add_stack(self, modulus: Modulus, a: RowStack, b) -> RowStack:
        return self.add_rows((modulus,) * len(a), a, self._rows_of(b, len(a)))

    def negate_stack(self, modulus: Modulus, a: RowStack) -> RowStack:
        return self.negate_rows((modulus,) * len(a), a)

    def dyadic_mul_stack(self, modulus: Modulus, a: RowStack, b) -> RowStack:
        return self.dyadic_mul_rows((modulus,) * len(a), a, self._rows_of(b, len(a)))

    def dyadic_mac_stack(self, modulus: Modulus, acc: RowStack, x: RowStack, y) -> RowStack:
        return self.dyadic_mac_rows(
            (modulus,) * len(acc), acc, self._rows_of(x, len(acc)), self._rows_of(y, len(acc))
        )

    def apply_galois_stack(
        self, modulus: Modulus, stack: RowStack, mapping: Sequence[tuple]
    ) -> RowStack:
        return self.galois_rows((modulus,) * len(stack), stack, mapping)

    # derived: handle conveniences
    def make_rows(self, count: int, n: int):
        return self.from_rows([[0] * n for _ in range(count)])

    def get_row(self, handle, i: int):
        return self.select_rows(handle, (i,))[0]

    def insert_row(self, handle, index: int, row):
        return self.from_rows([*handle[:index], row, *handle[index:]])

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"
