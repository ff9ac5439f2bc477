"""Synthetic client traffic for exercising the serving layer.

The ROADMAP's north star is "serve heavy traffic from millions of
users"; this module manufactures a scaled-down version of that traffic
deterministically, so benchmarks and tests can drive the server with
realistic multi-client request streams and still compare results bit
for bit across runs and serving configurations.

Key model: a :class:`SyntheticTenant` owns one key set (secret, public,
relinearization, Galois) -- the one-organization / one-model MLaaS
deployment the paper motivates -- and any number of
:class:`SyntheticClient` instances encrypt under it.  Clients of one
tenant declare the tenant's ``key_id``, so their keyed requests are
batchable across clients, exactly the cross-request amortization the
serving layer exists to exploit.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.ckks.context import CkksContext
from repro.ckks.decryptor import Decryptor
from repro.ckks.encoder import CkksEncoder
from repro.ckks.encryptor import Encryptor
from repro.ckks.keys import KeyGenerator
from repro.ckks.serialization import VERSION
from repro.serving import framing
from repro.serving.clock import Clock, ExponentialBackoff
from repro.serving.framing import FRAME_V2, FRAME_VERSION, StreamProtocolError
from repro.serving.server import EncryptedComputeServer


class SyntheticTenant:
    """One key set shared by a fleet of synthetic clients.

    ``seed_expandable=True`` generates the tenant's keys with a
    deterministic expansion seed (derived from ``seed``), so wire-format
    v2 serializes them in the compact seed + ``b``-columns layout.
    """

    def __init__(
        self,
        context: CkksContext,
        seed: int = 2020,
        key_id: str = "tenant-0",
        seed_expandable: bool = False,
    ):
        self.context = context
        self.key_id = key_id
        expansion_seed = (
            hashlib.sha256(b"synthetic-tenant-expansion:%d" % seed).digest()
            if seed_expandable
            else None
        )
        self.keygen = KeyGenerator(
            context, seed=seed, expansion_seed=expansion_seed
        )
        self.encoder = CkksEncoder(context)
        # all key material is drawn once, in a fixed order: every call
        # into the generator advances its sampler, so caching here keeps
        # the tenant (and all traffic built on it) fully deterministic
        self.public_key = self.keygen.public_key()
        self.relin_key = self.keygen.relin_key()
        self.galois_keys = self.keygen.galois_keys([1], conjugation=True)
        self.decryptor = Decryptor(context, self.keygen.secret_key)

    def decrypt_response(self, frame_bytes: bytes) -> Tuple[int, List[complex]]:
        """Decode one response frame to ``(request_id, decoded slots)``."""
        from repro.ckks.serialization import deserialize_ciphertext

        frame = framing.decode_frame(frame_bytes)
        if frame.kind == framing.ERROR:
            raise RuntimeError(f"server error: {frame.error_message}")
        ct = deserialize_ciphertext(frame.payload, self.context)
        values = self.encoder.decode(self.decryptor.decrypt(ct))
        return frame.request_id, list(values)

    def register_with(self, cluster, wire_version: int = VERSION) -> None:
        """Register this tenant's key material with a serving cluster."""
        cluster.register_tenant(
            self.key_id,
            relin_key=self.relin_key,
            galois_keys=self.galois_keys,
            wire_version=wire_version,
        )


class SyntheticClient:
    """One client identity encrypting requests under its tenant's keys."""

    def __init__(
        self,
        tenant: SyntheticTenant,
        client_id: str,
        seed: int,
        wire_version: int = VERSION,
        frame_version: int = FRAME_VERSION,
    ):
        self.tenant = tenant
        self.client_id = client_id
        self.wire_version = wire_version
        #: frame protocol this client speaks (v2 = deadlines + CRC);
        #: the default keeps every existing caller's bytes legacy v1
        self.frame_version = frame_version
        self.encryptor = Encryptor(tenant.context, tenant.public_key, seed=seed)
        self._next_request_id = 0

    def connect(self, server: EncryptedComputeServer) -> None:
        """Register this client's session, tenant keys cached server-side."""
        server.register_client(
            self.client_id,
            relin_key=self.tenant.relin_key,
            galois_keys=self.tenant.galois_keys,
            key_id=self.tenant.key_id,
            wire_version=self.wire_version,
            frame_version=self.frame_version,
        )

    def connect_cluster(self, cluster) -> str:
        """Open this client's session at the cluster front-door.

        The tenant's keys must already be registered (see
        :meth:`SyntheticTenant.register_with`); returns the worker id
        the session was placed on.
        """
        return cluster.register_client(
            self.client_id,
            self.tenant.key_id,
            wire_version=self.wire_version,
            frame_version=self.frame_version,
        )

    def request_bytes(
        self,
        op: str,
        values: Sequence[float],
        op_arg: int = 0,
        deadline: float = 0.0,
    ) -> bytes:
        """Encode + encrypt ``values`` into one wire-ready request frame.

        ``deadline`` is an absolute instant on the serving clock; a
        nonzero deadline needs the v2 frame envelope, so it is encoded
        at v2 even for a client configured for legacy frames.
        """
        from repro.ckks.serialization import serialize_ciphertext

        ct = self.encryptor.encrypt(self.tenant.encoder.encode(list(values)))
        request_id = self._next_request_id
        self._next_request_id += 1
        return framing.encode_frame(
            framing.REQUEST,
            request_id,
            self.client_id,
            op=op,
            op_arg=op_arg,
            payload=serialize_ciphertext(ct, version=self.wire_version),
            deadline=deadline,
            frame_version=FRAME_V2 if deadline else self.frame_version,
        )

    def rotation_sweep_bytes(
        self, values: Sequence[float], steps: Sequence[int]
    ) -> List[bytes]:
        """One encrypted vector, one rotate request per step.

        The wire pattern of a client-side matvec (the same ciphertext
        rotated by many steps): every frame carries the *same* payload
        bytes, so the members of the sweep that flush together share one
        plan input and the executor serves them from one key-switch
        decomposition.
        """
        from repro.ckks.serialization import serialize_ciphertext

        payload = serialize_ciphertext(
            self.encryptor.encrypt(self.tenant.encoder.encode(list(values))),
            version=self.wire_version,
        )
        frames = []
        for step in steps:
            request_id = self._next_request_id
            self._next_request_id += 1
            frames.append(
                framing.encode_frame(
                    framing.REQUEST,
                    request_id,
                    self.client_id,
                    op="rotate",
                    op_arg=step,
                    payload=payload,
                    frame_version=self.frame_version,
                )
            )
        return frames


class ResilientClient:
    """A cluster client with reconnect, idempotent retry, and deadlines.

    Wraps a :class:`SyntheticClient` talking to a
    :class:`~repro.serving.cluster.ServingCluster` and implements the
    client half of the reliability contract:

    * **Idempotent retry** -- every submitted request's exact frame
      bytes are kept until a terminal answer arrives.  A *retryable*
      ERROR (backpressure, shed, failover) schedules a resend of those
      identical bytes after a seeded exponential backoff; the router's
      dedup cache guarantees a retry of an already-completed request
      replays the original response instead of executing twice, so
      resending is always safe.
    * **Corruption recovery** -- a :class:`StreamProtocolError` raised
      by the transport (the CRC or framing layer caught corruption)
      resends the same bytes; the router reset the stream decoder, so
      the resend starts clean.
    * **Classification** -- fatal and deadline ERRORs are terminal:
      they land in :attr:`failures` and are never retried.

    Everything is driven by :meth:`poll` against the cluster's
    injectable clock, so retry schedules are deterministic under a
    manual clock.
    """

    def __init__(
        self,
        client: SyntheticClient,
        cluster,
        max_attempts: int = 4,
        backoff: Optional[ExponentialBackoff] = None,
        clock: Optional[Clock] = None,
    ):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.client = client
        self.cluster = cluster
        self.max_attempts = max_attempts
        self.clock: Clock = clock if clock is not None else cluster.clock
        self.backoff = (
            backoff
            if backoff is not None
            else ExponentialBackoff(base=0.01, seed=zlib_seed(client.client_id))
        )
        #: request_id -> exact frame bytes awaiting a terminal answer
        self._pending: Dict[int, bytes] = {}
        self._attempts: Dict[int, int] = {}
        self._retry_at: Dict[int, float] = {}
        #: request_id -> RESPONSE frame bytes (first copy received; a
        #: dedup replay is bit-identical by contract, so first == only)
        self.responses: Dict[int, bytes] = {}
        #: request_id -> terminal failure description
        self.failures: Dict[int, str] = {}
        self.retries_sent = 0
        self.corruption_resends = 0
        self.reconnects = 0

    # ------------------------------------------------------------------
    def connect(self) -> str:
        """Open (or idempotently re-open) the session; returns worker id."""
        return self.client.connect_cluster(self.cluster)

    def reconnect(self) -> str:
        """Re-register after a connection loss (idempotent at the router)."""
        self.reconnects += 1
        return self.connect()

    @property
    def outstanding(self) -> int:
        """Requests with no terminal answer yet."""
        return len(self._pending)

    # ------------------------------------------------------------------
    def _send(self, data: bytes) -> None:
        try:
            self.cluster.receive(self.client.client_id, data)
        except StreamProtocolError:
            # the transport caught corruption (CRC mismatch, bad magic)
            # and reset the stream; resending the identical bytes is
            # safe -- if the frame did get through, the router's dedup
            # or in-flight refusal answers the duplicate
            self.corruption_resends += 1
            self.cluster.receive(self.client.client_id, data)

    def submit(
        self,
        op: str,
        values: Sequence[float],
        op_arg: int = 0,
        deadline: float = 0.0,
    ) -> int:
        """Encrypt, frame and send one request; returns its request id."""
        data = self.client.request_bytes(op, values, op_arg, deadline=deadline)
        request_id = self.client._next_request_id - 1
        self._pending[request_id] = data
        self._attempts[request_id] = 0
        self._send(data)
        return request_id

    def poll(self, now: Optional[float] = None) -> List[int]:
        """Drain responses, classify errors, send due retries.

        Returns the request ids that reached a terminal state (response
        or failure) during this poll.
        """
        if now is None:
            now = self.clock()
        settled: List[int] = []
        for blob in self.cluster.take_outbox(self.client.client_id):
            frame = framing.decode_frame(blob)
            request_id = frame.request_id
            if frame.kind == framing.RESPONSE:
                if request_id not in self.responses:
                    self.responses[request_id] = blob
                if self._pending.pop(request_id, None) is not None:
                    settled.append(request_id)
                self._retry_at.pop(request_id, None)
                continue
            if frame.kind != framing.ERROR or request_id not in self._pending:
                continue  # stale terminal for an already-settled request
            attempts = self._attempts.get(request_id, 0)
            if framing.is_retryable_error(frame) and attempts < self.max_attempts:
                self._attempts[request_id] = attempts + 1
                self._retry_at[request_id] = now + self.backoff.delay(attempts)
            else:
                self.failures[request_id] = (
                    f"{framing.error_class(frame)}: {frame.error_message}"
                )
                del self._pending[request_id]
                self._retry_at.pop(request_id, None)
                settled.append(request_id)
        for request_id, at in sorted(self._retry_at.items()):
            if now >= at:
                del self._retry_at[request_id]
                self.retries_sent += 1
                self._send(self._pending[request_id])
        return settled


def zlib_seed(token: str) -> int:
    """A stable (non-salted) integer seed from a string token."""
    import zlib

    return zlib.crc32(token.encode("utf-8"))


def synthetic_traffic(
    tenant: SyntheticTenant,
    client_count: int,
    requests_per_client: int,
    op: str = "square",
    op_arg: int = 0,
    seed: int = 7,
    ops: Optional[Sequence[Tuple[str, int]]] = None,
    wire_version: int = VERSION,
) -> Tuple[List[SyntheticClient], Iterator[Tuple[str, bytes]]]:
    """Build a client fleet and a deterministic request stream.

    Returns ``(clients, stream)`` where ``stream`` yields
    ``(client_id, frame_bytes)`` round-robin across clients -- the
    interleaved arrival order a real multi-client front end produces.
    When ``ops`` is given (a sequence of ``(op, op_arg)``), requests
    cycle through it, producing heterogeneous traffic that exercises
    the batcher's lane separation.
    """
    clients = [
        SyntheticClient(
            tenant, f"client-{i}", seed=seed + i, wire_version=wire_version
        )
        for i in range(client_count)
    ]
    op_cycle = list(ops) if ops else [(op, op_arg)]

    def stream() -> Iterator[Tuple[str, bytes]]:
        slots = tenant.context.params.slot_count
        counter = 0
        for r in range(requests_per_client):
            for i, client in enumerate(clients):
                o, a = op_cycle[counter % len(op_cycle)]
                values = [
                    (i + 1) / (r + j + 2) for j in range(min(slots, 4))
                ]
                counter += 1
                yield client.client_id, client.request_bytes(o, values, a)

    return clients, stream()


def multi_tenant_traffic(
    context: CkksContext,
    tenant_count: int,
    clients_per_tenant: int,
    requests_per_client: int,
    seed: int = 2020,
    ops: Optional[Sequence[Tuple[str, int]]] = None,
    wire_version: int = VERSION,
    frame_version: int = FRAME_VERSION,
    seed_expandable: bool = False,
) -> Tuple[List[SyntheticTenant], List[SyntheticClient], List[Tuple[str, bytes]]]:
    """Deterministic traffic across several tenants (the cluster workload).

    Builds ``tenant_count`` independent key sets, ``clients_per_tenant``
    clients under each, and a fully materialized request trace that
    interleaves *across tenants* request by request -- the arrival
    pattern a sharded front-door sees, where consecutive frames belong
    to sessions placed on different workers.  Everything is seeded, so
    the same call produces byte-identical frames: the differential
    tests replay one trace against different cluster shapes and demand
    byte-identical responses.

    Returns ``(tenants, clients, trace)`` with ``trace`` a list of
    ``(client_id, frame_bytes)`` (materialized, not a generator, so one
    trace can be replayed against several serving configurations).
    """
    tenants = [
        SyntheticTenant(
            context,
            seed=seed + 101 * t,
            key_id=f"tenant-{t}",
            seed_expandable=seed_expandable,
        )
        for t in range(tenant_count)
    ]
    clients = [
        SyntheticClient(
            tenant,
            f"{tenant.key_id}-client-{c}",
            seed=seed + 13 * (t * clients_per_tenant + c),
            wire_version=wire_version,
            frame_version=frame_version,
        )
        for t, tenant in enumerate(tenants)
        for c in range(clients_per_tenant)
    ]
    op_cycle = list(ops) if ops else [("square", 0), ("rotate", 1), ("double", 0)]
    slots = context.params.slot_count
    trace: List[Tuple[str, bytes]] = []
    counter = 0
    for r in range(requests_per_client):
        for i, client in enumerate(clients):
            o, a = op_cycle[counter % len(op_cycle)]
            values = [(i + 1) / (r + j + 2) for j in range(min(slots, 4))]
            counter += 1
            trace.append((client.client_id, client.request_bytes(o, values, a)))
    return tenants, clients, trace
