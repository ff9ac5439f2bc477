"""Per-client serving sessions with cached evaluation-key material.

Evaluation keys are the big operands of the paper's system model: a
Set-C key-switching key is ~151 Mb on the wire (Section 5.1), far
larger than any ciphertext, so a server must receive them *once* per
client and keep them resident -- exactly what HEAX does by parking key
material in FPGA DRAM.  A :class:`ClientSession` is the host-side
record of that residency: the client's relinearization and Galois keys,
its stream decoder, and its response outbox.

Sessions also carry a ``key_id`` -- a label naming the key set (the
tenant).  Two requests can only share a batch lane for a *keyed*
operation (relinearize, rotate, conjugate, a program containing one)
when they are evaluated under the same key material -- one key
broadcasts across the whole stacked key switch -- so the dynamic batcher
keys its lanes on the ``key_id`` *and* the identity of the key objects
captured on each request at admission.  Clients of
one tenant (one organization's key set) register the same shared key
objects and batch together; unrelated clients -- including one that
merely *claims* another tenant's ``key_id`` while holding different
keys -- never share a keyed flush.

Keys uploaded in *wire format* (a cluster router shipping a tenant's
blobs to a worker) enter through this module only: :func:`keys_from_wire`
validates and decodes, :meth:`SessionManager.open_from_wire` caches per
``key_id``, so every session of a tenant holds the same objects.

A session is also the one client-facing record of both front doors: a
cluster router holds a keyless :class:`ClientSession` per client too, so
version negotiation (:meth:`ClientSession.negotiate`), the misdirected-
frame rule (:meth:`ClientSession.misdirected`) and ERROR frames
(:meth:`ClientSession.respond_error`) are written once, and a refusal
reads the same bytes whichever side answers it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ckks.context import CkksContext
from repro.ckks.keys import GaloisKey, GaloisKeySet, RelinKey
from repro.ckks.serialization import (
    SUPPORTED_VERSIONS,
    VERSION,
    deserialize_kswitch_key,
)
from repro.serving import framing
from repro.serving.framing import FRAME_VERSION, FRAME_VERSIONS, Frame, FrameDecoder


def keys_from_wire(
    relin_blob: Optional[bytes],
    galois_blobs: Optional[Dict[int, bytes]],
    context: CkksContext,
) -> Tuple[Optional[RelinKey], Optional[GaloisKeySet]]:
    """Rebuild a tenant's evaluation keys from their wire bytes -- the
    upload format the cluster ships to its workers, each key-switching
    key serialized independently, so a worker process never holds the
    live objects of another.  Every blob goes through
    :func:`deserialize_kswitch_key`: a key from a different ring, with a
    digit count other than ``context.k`` or a truncated payload raises
    ``ValueError`` here, at the upload boundary, not at every request."""
    relin = galois = None
    if relin_blob is not None:
        relin = RelinKey(deserialize_kswitch_key(relin_blob, context).digits)
    if galois_blobs is not None:
        galois = GaloisKeySet(
            {
                elt: GaloisKey(elt, deserialize_kswitch_key(blob, context).digits)
                for elt, blob in galois_blobs.items()
            }
        )
    return relin, galois


class UnknownClientError(KeyError):
    """A frame referenced a client that never registered a session."""


class ClientSession:
    """One client's front-door state: negotiated versions, stream
    decoder, outbox -- and, at a server, its keys (a router's are None)."""

    def __init__(
        self,
        client_id: str,
        key_id: str,
        relin_key: Optional[RelinKey] = None,
        galois_keys: Optional[GaloisKeySet] = None,
        max_frame_bytes: Optional[int] = None,
        wire_version: int = VERSION,
        frame_version: int = FRAME_VERSION,
    ):
        self.client_id = client_id
        self.key_id = key_id
        self.relin_key = relin_key
        self.galois_keys = galois_keys
        self.negotiate(wire_version, frame_version)
        self.decoder = (
            FrameDecoder(max_frame_bytes)
            if max_frame_bytes is not None
            else FrameDecoder()
        )
        #: Encoded response/error frames awaiting pickup by the client.
        self.outbox: List[bytes] = []

    def negotiate(self, wire_version: int, frame_version: int) -> None:
        """Set the versions this client's responses go out at -- at
        HELLO time, or again on a reconnect.  An unsupported version
        raises ``ValueError`` and changes nothing."""
        if wire_version not in SUPPORTED_VERSIONS:
            raise ValueError(
                f"unsupported wire version {wire_version}; "
                f"supported: {SUPPORTED_VERSIONS}"
            )
        if frame_version not in FRAME_VERSIONS:
            raise ValueError(
                f"unsupported frame protocol version {frame_version}; "
                f"supported: {FRAME_VERSIONS}"
            )
        #: Wire-format version of this client's *responses*; requests
        #: may arrive in any supported version (the header says which).
        self.wire_version = wire_version
        #: Frame *protocol* version of this client's response envelopes
        #: (v2: deadlines + a CRC32 trailer; v1: the legacy layout),
        #: independent of the ciphertext wire version above.
        self.frame_version = frame_version

    def misdirected(self, frame: Frame) -> Optional[str]:
        """Why ``frame`` may not be served under this session, or
        ``None`` -- the one rule of both front doors: only a REQUEST is
        served, and a frame naming another client must not execute
        under (and bill to) this session and its keys."""
        if frame.kind != framing.REQUEST:
            return "only REQUEST frames are served"
        if frame.client_id and frame.client_id != self.client_id:
            return (
                f"frame client_id {frame.client_id!r} does not match "
                f"this connection's session {self.client_id!r}"
            )
        return None

    def respond_error(
        self, request_id: int, message: str, code: str = framing.ERR_FATAL
    ) -> None:
        """Queue an ERROR frame whose class rides its ``op`` field
        (:func:`framing.error_class`): :data:`framing.ERR_FATAL` for a
        malformed or unservable request, :data:`framing.ERR_RETRYABLE`
        for a transient refusal, :data:`framing.ERR_DEADLINE` for an
        expired one -- so a resilient client decides to resend without
        parsing the message."""
        self.outbox.append(
            framing.encode_frame(
                framing.ERROR, request_id, self.client_id, op=code,
                payload=message.encode("utf-8"), frame_version=self.frame_version,
            )
        )

    def take_outbox(self) -> List[bytes]:
        """Drain and return the pending response frames."""
        out, self.outbox = self.outbox, []
        return out

    def __repr__(self) -> str:
        return (
            f"ClientSession({self.client_id!r}, key_id={self.key_id!r}, "
            f"relin={'yes' if self.relin_key else 'no'}, "
            f"galois={'yes' if self.galois_keys else 'no'})"
        )


class SessionManager:
    """Registry of client sessions for one serving context."""

    def __init__(self, context: CkksContext):
        self.context = context
        self._sessions: Dict[str, ClientSession] = {}
        #: key_id -> (relin key, Galois key set) uploaded in wire format,
        #: deserialized once (see open_from_wire)
        self._wire_keys: Dict[str, Tuple[Optional[RelinKey], Optional[GaloisKeySet]]] = {}

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, client_id: str) -> bool:
        return client_id in self._sessions

    def register(
        self,
        client_id: str,
        relin_key: Optional[RelinKey] = None,
        galois_keys: Optional[GaloisKeySet] = None,
        key_id: Optional[str] = None,
        max_frame_bytes: Optional[int] = None,
        wire_version: int = VERSION,
        frame_version: int = FRAME_VERSION,
    ) -> ClientSession:
        """Create a session; ``key_id`` defaults to the client's own id."""
        if client_id in self._sessions:
            raise ValueError(f"client {client_id!r} already has a session")
        session = ClientSession(
            client_id,
            key_id if key_id is not None else client_id,
            relin_key,
            galois_keys,
            max_frame_bytes,
            wire_version,
            frame_version,
        )
        self._sessions[client_id] = session
        return session

    def open_from_wire(
        self,
        client_id: str,
        key_id: str,
        relin_blob: Optional[bytes] = None,
        galois_blobs: Optional[Dict[int, bytes]] = None,
        wire_version: int = VERSION,
        frame_version: int = FRAME_VERSION,
        max_frame_bytes: Optional[int] = None,
    ) -> ClientSession:
        """Open a session -- or refresh one that migrated away and back
        -- whose keys arrive in wire format (:func:`keys_from_wire`).

        The blobs are needed, and read, only the first time a ``key_id``
        arrives, before anything is opened; later sessions of the
        ``key_id`` get the cached objects -- and *must*, so their keyed
        requests share lanes.
        """
        keys = self._wire_keys.get(key_id)
        if keys is None:
            keys = self._wire_keys[key_id] = keys_from_wire(
                relin_blob, galois_blobs, self.context
            )
        session = self._sessions.get(client_id)
        if session is None:
            return self.register(
                client_id, *keys, key_id, max_frame_bytes, wire_version,
                frame_version,
            )
        session.negotiate(wire_version, frame_version)
        session.relin_key, session.galois_keys = keys
        return session

    def all_sessions(self) -> List[ClientSession]:
        return list(self._sessions.values())

    def get(self, client_id: str) -> ClientSession:
        try:
            return self._sessions[client_id]
        except KeyError:
            raise UnknownClientError(
                f"no session for client {client_id!r}; register first"
            ) from None
