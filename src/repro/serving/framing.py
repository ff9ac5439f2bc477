"""Length-prefixed wire framing for the serving layer.

The paper's deployment story (Section 5.2) has clients streaming
ciphertexts to a server that forwards them over PCIe to the
accelerator.  :mod:`repro.ckks.serialization` gives one object a byte
representation; this module gives a *connection* one: every message is

    ``u32 length | magic "HSRV" | u8 version | u8 kind | u64 request_id
    | i32 op_arg | u8 client_len | u8 op_len | client_id | op | payload``

where ``length`` counts everything after the prefix, so a byte stream
can be cut back into messages without parsing the payload.  The payload
of a request or response frame is exactly one HEAX-serialized object
(its own header re-validates shape and exact length on arrival -- a
truncated ciphertext raises instead of deserializing as zeros).

**Frame protocol v2** (negotiated at HELLO time, see
:data:`FRAME_V2`) extends the fixed header with an ``f64 deadline``
and appends a ``u32 CRC32`` computed over the whole body, so a flipped
payload byte is a deterministic decode error instead of a bit pattern
the deserializer may or may not notice:

    ``u32 length | magic | u8 version=2 | u8 kind | u64 request_id
    | i32 op_arg | u8 client_len | u8 op_len | f64 deadline
    | client_id | op | payload | u32 crc32``

``deadline`` is an absolute instant on the serving clock (0 = none);
the reliability layer checks it at router admission, worker admission
and batch flush, answering late requests with a DEADLINE-class ERROR
instead of executing them.  Legacy (v1) frames are encoded and decoded
bit-for-bit as before -- a peer that never negotiates v2 cannot tell
this extension exists.

ERROR frames carry a machine-readable *class* in their ``op`` field --
:data:`ERR_RETRYABLE` (shed, worker death, drain: safe to re-send the
identical request), :data:`ERR_DEADLINE` (expired: re-sending the same
deadline cannot succeed) or :data:`ERR_FATAL` (bad payload, unknown
op: a retry would fail identically) -- so a resilient client can
decide to retry without parsing prose.

:class:`FrameDecoder` is the stateful stream side: bytes arrive in
arbitrary chunks (as they do from a socket), complete frames come out.
A partial *frame* just waits for more bytes; a malformed one (bad
magic, unknown kind, inconsistent lengths, a length field exceeding
the frame cap, or a v2 CRC mismatch) raises ``ValueError``
immediately, because a stream whose framing is corrupt cannot be
resynchronized.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Callable, List, Tuple

FRAME_MAGIC = b"HSRV"
FRAME_VERSION = 1
#: Frame protocol v2: deadline-bearing, CRC32-trailed frames.
FRAME_V2 = 2
#: Frame protocol versions this module encodes and decodes.
FRAME_VERSIONS = (FRAME_VERSION, FRAME_V2)
LATEST_FRAME_VERSION = FRAME_V2

#: Frame kinds.
REQUEST = 1
RESPONSE = 2
ERROR = 3
#: Connection preamble for the socket front-door: ``client_id`` names
#: the session to open and the ``op`` field carries the tenant's
#: ``key_id`` (whose key material must already be registered with the
#: cluster).  ``op_arg`` carries the highest *ciphertext wire-format*
#: version the client speaks; 0 is the legacy form (v1 session, no
#: acknowledgement), while a nonzero request is acknowledged with a
#: RESPONSE frame (``op="hello"``) echoing the negotiated version in
#: ``op_arg``.  In-process callers register sessions programmatically
#: and never send one.
HELLO = 4

_KINDS = (REQUEST, RESPONSE, ERROR, HELLO)

#: ERROR-frame classes (carried in the frame's ``op`` field).  A legacy
#: ERROR frame with an empty ``op`` is treated as fatal -- the safe
#: default: an unclassified failure must not be retried blindly.
ERR_RETRYABLE = "retryable"
ERR_FATAL = "fatal"
ERR_DEADLINE = "deadline"
ERROR_CLASSES = (ERR_RETRYABLE, ERR_FATAL, ERR_DEADLINE)


def error_class(frame: "Frame") -> str:
    """The retry class of an ERROR frame (fatal for legacy/unclassified)."""
    if frame.kind != ERROR:
        raise ValueError(f"frame kind {frame.kind} is not an ERROR frame")
    return frame.op if frame.op in ERROR_CLASSES else ERR_FATAL


def is_retryable_error(frame: "Frame") -> bool:
    """True when re-sending the identical request is safe and useful."""
    return frame.kind == ERROR and error_class(frame) == ERR_RETRYABLE


_PREFIX = struct.Struct("<I")
_FIXED = struct.Struct("<4sBBQiBB")  # magic, ver, kind, req_id, op_arg, lens
#: v2 fixed header: v1 fields (same offsets) then the f64 deadline.
_FIXED_V2 = struct.Struct("<4sBBQiBBd")
_CRC = struct.Struct("<I")

#: Prefix + fixed-header bytes preceding the variable section.
FRAME_OVERHEAD = _PREFIX.size + _FIXED.size
#: v2 frames additionally carry the deadline field and the CRC trailer.
FRAME_OVERHEAD_V2 = _PREFIX.size + _FIXED_V2.size + _CRC.size

#: Default frame cap -- comfortably above a Set-C size-3 ciphertext
#: (3 x 8 x 16384 x 8 B ~= 3 MiB) while bounding what one client can
#: make the server buffer.
DEFAULT_MAX_FRAME_BYTES = 1 << 24


@dataclass(frozen=True)
class Frame:
    """One decoded serving-protocol message."""

    kind: int
    request_id: int
    client_id: str
    op: str = ""
    op_arg: int = 0
    payload: bytes = b""
    #: absolute deadline on the serving clock (0.0 = none; v2 frames only).
    deadline: float = 0.0

    @property
    def is_request(self) -> bool:
        return self.kind == REQUEST

    @property
    def error_message(self) -> str:
        """The human-readable payload of an ERROR frame."""
        return self.payload.decode("utf-8", errors="replace")


def encode_frame(
    kind: int,
    request_id: int,
    client_id: str,
    op: str = "",
    op_arg: int = 0,
    payload: bytes = b"",
    deadline: float = 0.0,
    frame_version: int = FRAME_VERSION,
) -> bytes:
    """Encode one frame, length prefix included.

    ``frame_version`` selects the frame protocol: v1 is the legacy
    bit-for-bit layout; v2 carries ``deadline`` and a CRC32 trailer.
    A nonzero deadline therefore requires v2 -- silently dropping it on
    a v1 frame would disable deadline enforcement behind the caller's
    back, so that combination raises instead.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown frame kind {kind}")
    if frame_version not in FRAME_VERSIONS:
        raise ValueError(
            f"unknown frame protocol version {frame_version}; "
            f"supported: {FRAME_VERSIONS}"
        )
    client = client_id.encode("utf-8")
    op_bytes = op.encode("utf-8")
    if len(client) > 255 or len(op_bytes) > 255:
        raise ValueError("client_id and op must encode to <= 255 bytes")
    if frame_version == FRAME_VERSION:
        if deadline:
            raise ValueError(
                "deadlines require frame protocol v2; this peer negotiated v1"
            )
        head = _FIXED.pack(
            FRAME_MAGIC, FRAME_VERSION, kind, request_id, op_arg,
            len(client), len(op_bytes),
        ) + client + op_bytes
        parts = (head, payload)
    else:
        head = _FIXED_V2.pack(
            FRAME_MAGIC, FRAME_V2, kind, request_id, op_arg,
            len(client), len(op_bytes), deadline,
        ) + client + op_bytes
        # running CRC over head then payload: the payload is read in
        # place, and copied once, by the join below
        crc = zlib.crc32(payload, zlib.crc32(head))
        parts = (head, payload, _CRC.pack(crc))
    length = sum(len(part) for part in parts)
    return b"".join((_PREFIX.pack(length), *parts))


def envelope_length(frame: Frame) -> int:
    """The length prefix of the smallest envelope that carries ``frame``
    (v2 only when it has a deadline), in O(1): the length
    ``EncryptedComputeServer.submit_frame`` holds to the frame cap."""
    fixed = _FIXED_V2.size + _CRC.size if frame.deadline else _FIXED.size
    return (
        fixed + len(frame.client_id.encode("utf-8"))
        + len(frame.op.encode("utf-8")) + len(frame.payload)
    )


def _decode_body(body: memoryview) -> Frame:
    magic, version, kind, request_id, op_arg, client_len, op_len = (
        _FIXED.unpack_from(body)
    )
    if magic != FRAME_MAGIC:
        raise ValueError("not a serving-protocol frame")
    if version not in FRAME_VERSIONS:
        raise ValueError(f"unsupported frame version {version}")
    if kind not in _KINDS:
        raise ValueError(f"unknown frame kind {kind}")
    deadline = 0.0
    tail = len(body)
    if version == FRAME_V2:
        if _FIXED_V2.size + _CRC.size > len(body):
            raise ValueError("v2 frame too short for deadline and CRC")
        deadline = _FIXED_V2.unpack_from(body)[7]
        tail = len(body) - _CRC.size
        (stored_crc,) = _CRC.unpack_from(body, tail)
        actual_crc = zlib.crc32(body[:tail])
        if stored_crc != actual_crc:
            raise ValueError(
                f"frame CRC mismatch (stored {stored_crc:#010x}, computed "
                f"{actual_crc:#010x}): payload corrupted in transit"
            )
        pos = _FIXED_V2.size
    else:
        pos = _FIXED.size
    if pos + client_len + op_len > tail:
        raise ValueError("frame length inconsistent with id/op lengths")
    client_id = bytes(body[pos : pos + client_len]).decode("utf-8")
    pos += client_len
    op = bytes(body[pos : pos + op_len]).decode("utf-8")
    pos += op_len
    return Frame(
        kind, request_id, client_id, op, op_arg, bytes(body[pos:tail]), deadline
    )


#: offset of the (kind, request_id) pair inside an encoded frame:
#: length prefix, magic, version.
_IDS_OFFSET = _PREFIX.size + 4 + 1
_IDS = struct.Struct("<BQ")


def peek_frame_ids(data: bytes) -> "tuple[int, int]":
    """Read ``(kind, request_id)`` off an encoded frame without decoding.

    The router routes thousands of already-validated response frames; a
    two-field peek keeps that bookkeeping O(1) per frame instead of a
    full decode (which would copy the ciphertext payload).  The peeked
    fields sit at identical offsets in both frame protocol versions.
    """
    if len(data) < _IDS_OFFSET + _IDS.size:
        raise ValueError("truncated frame: too short for kind/request_id")
    return _IDS.unpack_from(data, _IDS_OFFSET)


#: offset of the frame-protocol version byte inside an encoded frame.
_VERSION_OFFSET = _PREFIX.size + 4
#: offset of the (client_len, op_len) pair -- identical in v1 and v2.
_LENS_OFFSET = _IDS_OFFSET + _IDS.size + 4
_LENS = struct.Struct("<BB")


def peek_frame_summary(data: bytes) -> Tuple[int, int, str]:
    """Read ``(kind, request_id, op)`` off an encoded frame cheaply.

    Extends :func:`peek_frame_ids` with the ``op`` field, which the
    router needs to classify a worker's terminal ERROR frames (a
    DEADLINE-class error counts as *expired*, not completed, in the
    conservation law) without copying the ciphertext payload.
    """
    kind, request_id = peek_frame_ids(data)
    if len(data) < _LENS_OFFSET + _LENS.size:
        raise ValueError("truncated frame: too short for id/op lengths")
    client_len, op_len = _LENS.unpack_from(data, _LENS_OFFSET)
    version = data[_VERSION_OFFSET]
    fixed_size = _FIXED_V2.size if version == FRAME_V2 else _FIXED.size
    start = _PREFIX.size + fixed_size + client_len
    if len(data) < start + op_len:
        raise ValueError("truncated frame: too short for its op field")
    op = bytes(data[start : start + op_len]).decode("utf-8")
    return kind, request_id, op


def decode_frame(data: bytes) -> Frame:
    """Decode exactly one frame; partial or trailing bytes raise."""
    if len(data) < _PREFIX.size:
        raise ValueError("truncated frame: missing length prefix")
    (length,) = _PREFIX.unpack_from(data)
    if length < _FIXED.size:
        raise ValueError(f"frame length {length} below fixed header size")
    if len(data) != _PREFIX.size + length:
        raise ValueError(
            f"frame length mismatch: prefix says {length}, "
            f"buffer carries {len(data) - _PREFIX.size}"
        )
    return _decode_body(memoryview(data)[_PREFIX.size :])


class StreamProtocolError(ValueError):
    """The stream head is malformed and cannot be resynchronized.

    ``frames`` carries every valid frame decoded from the chunk *before*
    the corruption, so a caller can still process them -- one bad frame
    must not lose the good requests that arrived in the same read.
    """

    def __init__(self, message: str, frames: List[Frame]):
        super().__init__(message)
        self.frames = frames


class FrameDecoder:
    """Incremental frame parser over an arbitrary-chunked byte stream."""

    def __init__(self, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES):
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet forming a complete frame."""
        return len(self._buffer)

    def next_frame(self) -> "Frame | None":
        """Decode one frame off the buffer head, or ``None`` if incomplete.

        Raises ``ValueError`` if the head is malformed; the bad bytes
        stay at the head (the buffer is only consumed on success), so
        repeated calls keep raising -- a corrupt stream stays corrupt.
        """
        if len(self._buffer) < _PREFIX.size:
            return None
        (length,) = _PREFIX.unpack_from(self._buffer)
        if length < _FIXED.size:
            raise ValueError(f"frame length {length} below fixed header size")
        if length > self.max_frame_bytes:
            raise ValueError(
                f"frame length {length} exceeds cap {self.max_frame_bytes}"
            )
        if len(self._buffer) - _PREFIX.size < length:
            return None  # an incomplete frame is not an error on a stream
        # decode in place (the payload is the one copy made), and release
        # both views before shrinking the buffer -- also when the decode
        # raises: a live memoryview over a bytearray blocks its resize
        with memoryview(self._buffer) as view, view[
            _PREFIX.size : _PREFIX.size + length
        ] as body:
            frame = _decode_body(body)  # buffer untouched on raise
        del self._buffer[: _PREFIX.size + length]
        return frame

    def feed(self, data: bytes) -> List[Frame]:
        """Append stream bytes; return every frame completed by them.

        On a malformed frame, raises :class:`StreamProtocolError`
        carrying the frames decoded earlier in the chunk.
        """
        self._buffer.extend(data)
        frames: List[Frame] = []
        while True:
            try:
                frame = self.next_frame()
            except ValueError as exc:
                raise StreamProtocolError(str(exc), frames) from None
            if frame is None:
                return frames
            frames.append(frame)

    def ingest(self, data: bytes, accept: Callable[[Frame], None]) -> None:
        """The stream-ingress rule of every front door: hand each frame
        completed by ``data`` to ``accept``.

        A corrupt stream still raises :class:`StreamProtocolError` (the
        transport must reset the connection), but only after the frames
        decoded ahead of the corruption were accepted, and with the
        poisoned buffer dropped: the client's next good frame must not
        queue behind the dead stream's bytes and re-raise its error.
        """
        try:
            frames = self.feed(data)
        except StreamProtocolError as exc:
            self._buffer.clear()
            for frame in exc.frames:
                accept(frame)
            raise
        for frame in frames:
            accept(frame)
