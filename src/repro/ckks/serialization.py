"""Byte-level serialization of ciphertexts and keys.

Two purposes:

1. a real wire format so the library round-trips objects (client <->
   server in the paper's deployment story);
2. exact size accounting feeding the system model -- PCIe messages
   (Section 5.2 sends whole polynomials of ``2^15``-``2^17`` bytes) and
   DRAM-resident key material (Section 5.1).

Two wire versions share one fixed header (magic, version, kind, n,
component/basis counts, NTT flag, scale as IEEE-754):

* **v1** stores every residue as a little-endian 8-byte word --
  matching the 64-bit wire word the paper's bandwidth arithmetic
  assumes.  The v1 byte layout is frozen; old blobs decode forever.
* **v2** bit-packs each residue row to its modulus width (a 54-bit
  prime costs 54 bits per coefficient, not 64; rows stay byte-aligned
  so a packed matrix is addressable row by row), and key-switching
  keys may ship **seed-expanded**: a 32-byte expansion seed replaces
  every uniform ``a`` column (:mod:`repro.ckks.sampling`), roughly
  halving key upload on top of the packing win.

Packing and unpacking go straight between wire bytes and the backend's
*native residue matrices* (:meth:`PolynomialBackend.pack_rows` /
``unpack_rows`` for v1, ``pack_rows_bits`` / ``unpack_rows_bits`` for
v2): the serving layer (de)serializes every request, and with
backend-resident polynomial storage there is no intermediate
list-of-int step in either direction.  Ciphertexts are packed and
unpacked a lane at a time, one v2 kernel call each way
(:func:`pack_ciphertexts`, :func:`unpack_ciphertexts`, whose lanes of one
are ``serialize`` / ``deserialize_ciphertext``; a server admits with
:func:`admit_ciphertext` and unpacks at the flush).

Header fields are validated at *serialize* time too: ``level_count``
shares its 16-bit field with the NTT flag (bit 15), so a level count
``>= 0x8000`` -- or ``comps > 0xFFFF``, ``n > 0xFFFFFFFF`` -- would
silently corrupt the flag / wrap via struct packing.  Out-of-range
shapes raise instead of producing a valid-looking wrong blob.
"""

from __future__ import annotations

import math
import struct
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.ckks.backend import get_backend, resident
from repro.ckks.backend.base import ROW_WORD_BYTES, packed_row_bytes
from repro.ckks.batch import CiphertextBatch
from repro.ckks.context import CkksContext
from repro.ckks.keys import KswitchKey
from repro.ckks.poly import Ciphertext, RnsPolynomial
from repro.ckks.sampling import KEY_SEED_BYTES, expand_uniform_poly

MAGIC = b"HEAX"
#: Default (legacy) wire version: 8-byte words, full key matrices.
VERSION = 1
#: Bit-packed residues + seed-expandable keys.
VERSION_PACKED = 2
#: Every version this module encodes and decodes.
SUPPORTED_VERSIONS = (VERSION, VERSION_PACKED)
#: What a server should offer in version negotiation.
LATEST_VERSION = VERSION_PACKED

WORD_BYTES = ROW_WORD_BYTES

_KIND_CIPHERTEXT = 1
_KIND_KSWITCH_KEY = 3

#: v2 key-switching-key layout byte (first payload byte after the header).
_KSK_LAYOUT_FULL = 0
_KSK_LAYOUT_SEEDED = 1

_HEADER = struct.Struct("<4sBBIHHd")  # magic, ver, kind, n, comps, rns, scale

#: Fixed header size in bytes (exposed for size accounting).
HEADER_BYTES = _HEADER.size


def _check_version(version: int) -> None:
    if version not in SUPPORTED_VERSIONS:
        raise ValueError(f"unsupported version {version}")


def _width(modulus) -> int:
    """Packed word width of one modulus (accepts Modulus or int)."""
    return int(getattr(modulus, "value", modulus)).bit_length()


def _bounds(moduli) -> List[int]:
    """Per-row exclusive residue bounds (accepts Modulus or int items)."""
    return [int(getattr(m, "value", m)) for m in moduli]


def _require_moduli(moduli, level_count: int, version: int):
    if moduli is None:
        raise ValueError(
            f"v{version} sizes depend on per-modulus widths; pass moduli"
        )
    if len(moduli) != level_count:
        raise ValueError(
            f"moduli count {len(moduli)} does not match level count "
            f"{level_count}"
        )
    return moduli


def polynomial_wire_bytes(n: int) -> int:
    """Wire size of one v1 residue polynomial (8-byte words) -- the
    paper's PCIe unit."""
    return n * WORD_BYTES


def ciphertext_wire_bytes(
    n: int,
    size: int,
    level_count: int,
    version: int = VERSION,
    moduli: Optional[Sequence] = None,
) -> int:
    """Payload bytes of a ciphertext (header excluded).

    For v2 the per-row widths matter, so the basis ``moduli`` (one per
    level) must be supplied; the result is exact -- the scheduler's
    PCIe model and ``len(serialize_ciphertext(ct, version)) -
    HEADER_BYTES`` agree byte for byte.
    """
    _check_version(version)
    if version == VERSION:
        return size * level_count * polynomial_wire_bytes(n)
    moduli = _require_moduli(moduli, level_count, version)
    return size * sum(
        packed_row_bytes(n, _width(m)) for m in moduli
    )


def kswitch_key_wire_bytes(
    n: int,
    k: int,
    version: int = VERSION,
    moduli: Optional[Sequence] = None,
    seeded: bool = False,
) -> int:
    """ksk payload: k digits x 2 columns x (k+1) residues x n words.

    For Set-C this is the 151 Mb (two column sets combined) of Section
    5.1's DRAM-bandwidth argument.  v2 bit-packs every row (pass the
    ``k + 1`` key-basis ``moduli``) and, when ``seeded``, replaces the
    whole uniform column set with one 32-byte expansion seed.
    """
    _check_version(version)
    if version == VERSION:
        if seeded:
            raise ValueError("v1 cannot carry a seed-expanded key")
        return k * 2 * (k + 1) * n * WORD_BYTES
    moduli = _require_moduli(moduli, k + 1, version)
    per_digit = sum(packed_row_bytes(n, _width(m)) for m in moduli)
    if seeded:
        return 1 + KEY_SEED_BYTES + k * per_digit
    return 1 + k * 2 * per_digit


def _check_header_fields(n: int, comps: int, level_count: int) -> None:
    """Reject shapes the fixed header cannot represent.

    ``level_count`` shares its u16 with the NTT flag (bit 15); ``comps``
    and ``n`` would wrap silently through struct packing.  Each raises
    with the offending field named -- at serialize time, so a corrupt
    blob is never produced.
    """
    if not 1 <= n <= 0xFFFFFFFF:
        raise ValueError(f"ring degree {n} outside the header's u32 field")
    if not 1 <= comps <= 0xFFFF:
        raise ValueError(
            f"component count {comps} outside the header's u16 field"
        )
    if not 1 <= level_count <= 0x7FFF:
        raise ValueError(
            f"level count {level_count} collides with the header's NTT "
            "flag (bit 15 of the u16 field)"
        )


def _pack_polys(polys: Sequence[RnsPolynomial], version: int) -> Tuple[bytes | memoryview, ...]:
    """The residue payload of ``polys`` (one basis), in wire order, as
    pieces joined once where they are framed: v1 one word block a
    polynomial, v2 one bit-packed blob.  Straight from the native
    matrices.  v2 hands every row of the object to **one**
    ``pack_rows_bits`` call -- rows are byte-aligned and independent, so
    this is the per-polynomial layout, but rows of one width across all
    components pack as one vector pass."""
    be = get_backend()
    if version == VERSION:
        return tuple(be.pack_rows(poly.rows) for poly in polys)
    rows = [row for poly in polys for row in poly.rows]
    return (be.pack_rows_bits(rows, _bounds(polys[0].moduli) * len(polys)),)


def _unpack_polys(
    data: memoryview, n: int, moduli, count: int, is_ntt: bool,
    version: int, backend,
) -> List[RnsPolynomial]:
    """Decode ``count`` polynomials (a ciphertext's components, a key's columns) over
    ``moduli`` from exactly ``data``; ciphertexts do not come through
    here (:func:`unpack_ciphertexts`).

    Callers have validated the payload length (see
    :func:`_check_payload`): slicing a short v1 buffer would otherwise
    yield short rows whose missing words decode as 0.  v2 decodes the
    whole object in one ``unpack_rows_bits`` call, then gives every
    polynomial its own ``(L, n)`` matrix: a key column must not keep its
    siblings' rows alive.  (Decoding row by row into preallocated
    per-polynomial matrices instead was measured: +14 MB peak RSS on
    ``serve_sweep_open_A``, 0 of 6 pairs -- what set-up allocates
    decides the allocator's state for the run.)
    """
    rns = len(moduli)
    if version == VERSION:
        step = rns * n * WORD_BYTES
        handles = [
            backend.unpack_rows(data[j * step : (j + 1) * step], rns, n)
            for j in range(count)
        ]
    else:
        rows = backend.unpack_rows_bits(data, n, _bounds(moduli) * count)
        handles = [
            backend.select_rows(rows, range(j * rns, (j + 1) * rns))
            for j in range(count)
        ]
    return [RnsPolynomial(n, moduli, h, is_ntt) for h in handles]


def pack_ciphertexts(
    cts: Sequence[Ciphertext], version: int = VERSION
) -> Iterator[Tuple[bytes | memoryview, ...]]:
    """Serialize ``N`` same-shape ciphertexts, the encoder twin of
    :func:`unpack_ciphertexts`: payload ``b`` is a tuple of pieces, joined
    once by its frame, whose join is ``serialize_ciphertext(cts[b],
    version)`` byte for byte.  v2 packs every member's rows in **one**
    ``pack_rows_bits`` call: a payload is a header and a view of its
    slice of that blob.  v1 words, a copy with nothing to amortize, pack
    member by member: a header and one word block a component.  Payloads are made as they are taken, so each can
    be framed and dropped before the next exists (made at once, v1
    transients grew a server's peak RSS by 4 %)."""
    _check_version(version)
    n, size, level = shape = cts[0].n, cts[0].size, cts[0].level_count
    if any((ct.n, ct.size, ct.level_count) != shape for ct in cts):
        raise ValueError("ragged lane: ciphertexts differ in shape")
    _check_header_fields(n, size, level)
    headers = (
        _HEADER.pack(
            MAGIC, version, _KIND_CIPHERTEXT, n, size,
            level | (0x8000 if ct.is_ntt else 0), ct.scale,
        )
        for ct in cts
    )
    if version == VERSION:
        return ((head, *_pack_polys(ct.polys, version)) for head, ct in zip(headers, cts))
    (blob,) = _pack_polys([p for ct in cts for p in ct.polys], version)
    step = len(blob) // len(cts)
    return ((head, blob[b * step : (b + 1) * step]) for b, head in enumerate(headers))


def serialize_ciphertext(ct: Ciphertext, version: int = VERSION) -> bytes:
    """Encode one ciphertext: the lane of one."""
    return b"".join(next(pack_ciphertexts([ct], version)))


def _parse_header(data: bytes) -> Tuple[int, int, int, int, int, bool, float]:
    if len(data) < _HEADER.size:
        raise ValueError(
            f"truncated header: {len(data)} bytes, need {_HEADER.size}"
        )
    magic, version, kind, n, comps, rns_flags, scale = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise ValueError("not a HEAX-serialized object")
    _check_version(version)
    is_ntt = bool(rns_flags & 0x8000)
    rns = rns_flags & 0x7FFF
    if n < 1 or comps < 1 or rns < 1:
        raise ValueError(
            f"malformed header: n={n}, components={comps}, rns={rns}"
        )
    return version, kind, n, comps, rns, is_ntt, scale


def _check_payload(data: bytes, payload_bytes: int) -> None:
    """Require the byte count to match the header's shape *exactly*.

    A short buffer must raise, not deserialize: without this check a
    truncated residue row decodes word by word via
    ``int.from_bytes(b"", "little") == 0`` into silent zeros.  Trailing
    bytes are rejected too -- a frame that claims to be one object must
    be exactly that object.
    """
    expected = _HEADER.size + payload_bytes
    if len(data) < expected:
        raise ValueError(
            f"truncated payload: {len(data)} bytes, expected {expected}"
        )
    if len(data) > expected:
        raise ValueError(
            f"trailing bytes after payload: {len(data)} bytes, "
            f"expected {expected}"
        )


def _check_scale(scale: float) -> None:
    """A wire ciphertext must carry a positive, finite scale.

    (Key-switching keys carry no scale; their header writes 0.)  A
    zero/NaN/Inf scale is corrupt metadata that would otherwise slip
    past operations that never compare scales (negate, rescale) and be
    served back silently.
    """
    if not (scale > 0) or math.isinf(scale):
        raise ValueError(f"non-positive or non-finite scale {scale!r}")


class WireCiphertext(NamedTuple):
    """An *admitted* wire ciphertext: header and exact length checked
    (:func:`admit_ciphertext`), residues still packed -- what a server
    queues, with the fields a batch lane is keyed on, until the flush
    that runs it unpacks the words (:func:`unpack_ciphertexts`)."""

    data: bytes  #: the whole blob, header included
    version: int
    n: int
    size: int
    level_count: int
    scale: float
    is_ntt: bool


def admit_ciphertext(data: bytes, context: CkksContext) -> WireCiphertext:
    """Every O(1) check of a ciphertext blob -- magic, version, kind, ring,
    scale, and the exact byte count its header's shape demands; what only
    the words can show (residue range, padding bits) is checked where
    they are unpacked."""
    version, kind, n, comps, rns, is_ntt, scale = _parse_header(data)
    if kind != _KIND_CIPHERTEXT:
        raise ValueError("serialized object is not a ciphertext")
    if n != context.n:
        raise ValueError(f"ring mismatch: {n} vs context {context.n}")
    _check_scale(scale)
    moduli = context.basis_at_level(rns).moduli
    _check_payload(
        data, comps * ciphertext_wire_bytes(n, 1, rns, version, moduli)
    )
    return WireCiphertext(data, version, n, comps, rns, scale, is_ntt)


def unpack_ciphertexts(
    wires: Sequence[WireCiphertext], context: CkksContext
) -> Tuple[Dict[int, Ciphertext], Dict[int, ValueError]]:
    """Unpack ``N`` same-shape admitted ciphertexts into one lane -- the
    one ciphertext decoder.

    One block holds the lane, per component the modulus-major
    ``(L*N, n)`` matrix of :class:`~repro.ckks.batch.CiphertextBatch`;
    member ``b``'s rows are rows ``b::N`` of it (which is wire order),
    and the elements returned are ``lane.split()``, which ``join`` hands
    back whole: no per-ciphertext matrix, no re-layout.  The v2 members
    are unpacked by **one** ``unpack_rows_bits`` call (bodies staged back
    to back in a recycled slab), a v1 member on its own (no bit-unpacking
    to amortize).  ``(elements, errors)``, each keyed by ``b``: a member
    whose residues raised is in ``errors`` (the same kernel re-run member
    by member says which), its slot is compacted away and its lane-mates
    are unaffected.
    """
    n, size, level, scale, is_ntt = shape = wires[0][2:]
    if any(w[2:] != shape for w in wires):
        raise ValueError("ragged lane: wire ciphertexts differ in shape")
    be = context.backend
    moduli = context.basis_at_level(level).moduli
    bounds = _bounds(moduli) * size
    width = len(wires)
    # a word matrix whatever the backend: every kernel takes any row
    # sequence, and a list backend re-homes the lane at its first use
    block = resident.new((size * level * width, n))
    packed = [b for b, wire in enumerate(wires) if wire.version != VERSION]
    alone = [b for b in range(width) if b not in packed]
    if packed:
        bodies = [np.frombuffer(wires[b].data, np.uint8, offset=_HEADER.size) for b in packed]
        staged = resident.new((len(packed) * len(bodies[0]),), np.dtype(np.uint8))
        np.concatenate(bodies, out=staged)
        rows = [row for b in packed for row in block[b::width]]
        try:
            be.unpack_rows_bits(staged, n, bounds * len(packed), rows)
        except ValueError:
            alone = range(width)
    errors: Dict[int, ValueError] = {}
    for b in alone:
        body = memoryview(wires[b].data)[_HEADER.size :]
        try:
            if wires[b].version == VERSION:
                be.unpack_rows(body, size * level, n, block[b::width])
            else:
                be.unpack_rows_bits(body, n, bounds, block[b::width])
        except ValueError as exc:
            errors[b] = exc
    good = [b for b in range(width) if b not in errors]
    if not good:
        return {}, errors
    if errors:
        block = be.select_rows(
            block, [r + b for r in range(0, len(block), width) for b in good]
        )
    rows = level * len(good)
    lane = CiphertextBatch(
        n, len(good), moduli,
        [block[j * rows : (j + 1) * rows] for j in range(size)], scale, is_ntt,
    )
    return dict(zip(good, lane.split())), errors


def deserialize_ciphertext(data: bytes, context: CkksContext) -> Ciphertext:
    """Decode one ciphertext blob: the lane of one."""
    elements, errors = unpack_ciphertexts([admit_ciphertext(data, context)], context)
    if errors:
        raise errors[0]
    return elements[0]


def serialize_kswitch_key(ksk: KswitchKey, version: int = VERSION) -> bytes:
    """Serialize a key-switching key (the object streamed from DRAM).

    v1 ships both column sets as 8-byte words (frozen layout).  v2
    bit-packs every row and, when the key carries an expansion seed
    (:attr:`KswitchKey.seed`), ships the seed in place of the whole
    uniform column set -- the receiver regenerates ``d1_i`` from it
    bit-identically.
    """
    _check_version(version)
    d0, _ = ksk.digit(0)
    _check_header_fields(d0.n, ksk.digit_count, d0.level_count)
    header = _HEADER.pack(
        MAGIC, version, _KIND_KSWITCH_KEY, d0.n, ksk.digit_count,
        d0.level_count | 0x8000, 0.0,
    )
    seeded = version != VERSION and ksk.seed is not None
    if seeded:
        columns = [b for b, _a in ksk.digits]
    else:
        columns = [poly for pair in ksk.digits for poly in pair]
    payload = _pack_polys(columns, version)
    if version == VERSION:
        return b"".join((header, *payload))
    if seeded:
        return b"".join(
            (header, bytes([_KSK_LAYOUT_SEEDED]), ksk.seed, *payload)
        )
    return b"".join((header, bytes([_KSK_LAYOUT_FULL]), *payload))


def deserialize_kswitch_key(data: bytes, context: CkksContext) -> KswitchKey:
    version, kind, n, digits, rns, is_ntt, _ = _parse_header(data)
    if kind != _KIND_KSWITCH_KEY:
        raise ValueError("serialized object is not a key-switching key")
    if not is_ntt:
        # key-switching keys are generated and consumed in NTT form
        # (Algorithm 7 MACs against them dyadically); a cleared flag is
        # either corruption or a forged non-NTT key -- honoring it would
        # hand the evaluator coefficient-domain rows it multiplies as if
        # they were evaluations
        raise ValueError(
            "key-switching key blob claims coefficient form; keys are "
            "NTT-form by construction"
        )
    if n != context.n:
        raise ValueError(f"ring mismatch: {n} vs context {context.n}")
    moduli = list(context.key_basis.moduli)
    if rns != len(moduli):
        raise ValueError("key basis size mismatch")
    if digits != context.k:  # before any seed is expanded
        raise ValueError(f"key has {digits} digits; context needs {context.k}")
    be = context.backend
    view = memoryview(data)
    offset = _HEADER.size
    seeded = False
    if version == VERSION:
        _check_payload(data, digits * 2 * rns * n * WORD_BYTES)
    else:
        # ---- v2: layout byte, then seeded or full bit-packed columns ----
        if len(data) < offset + 1:
            raise ValueError("truncated payload: missing v2 key layout byte")
        layout = data[offset]
        if layout not in (_KSK_LAYOUT_FULL, _KSK_LAYOUT_SEEDED):
            raise ValueError(f"unknown v2 key layout {layout}")
        seeded = layout == _KSK_LAYOUT_SEEDED
        _check_payload(data, _ksk_v2_payload_bytes(n, digits, moduli, seeded))
        offset += 1
    if not seeded:
        columns = _unpack_polys(
            view[offset:], n, moduli, 2 * digits, True, version, be
        )
        return KswitchKey(list(zip(columns[0::2], columns[1::2])))
    seed = bytes(view[offset : offset + KEY_SEED_BYTES])
    b_columns = _unpack_polys(
        view[offset + KEY_SEED_BYTES :], n, moduli, digits, True, version, be
    )
    return KswitchKey(
        [
            (b, expand_uniform_poly(seed, i, n, moduli))
            for i, b in enumerate(b_columns)
        ],
        seed=seed,
    )


def _ksk_v2_payload_bytes(
    n: int, digits: int, moduli, seeded: bool
) -> int:
    per_digit = sum(packed_row_bytes(n, _width(m)) for m in moduli)
    if seeded:
        return 1 + KEY_SEED_BYTES + digits * per_digit
    return 1 + digits * 2 * per_digit
