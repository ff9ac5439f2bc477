"""Multi-worker sharded serving front-door.

The paper's deployment picture (Section 5) keeps one accelerator fed by
many clients; the ROADMAP's "millions of users" axis needs the next
level: many *workers*, each a complete serving stack of its own
(:mod:`repro.serving.worker`), behind one router.  This module is that
router plus its asyncio socket front end:

* **Placement** -- client sessions are placed with consistent hashing
  on their tenant ``key_id`` (:class:`HashRing`), so all of a tenant's
  same-keyed, same-shaped traffic lands on one worker and keeps that
  worker's homogeneity lanes full (the batcher's cross-client
  amortization survives sharding).  The ring moves a minimal set of
  tenants when a worker leaves or rejoins.
* **Admission control** -- on top of each worker's bounded queue, the
  router sheds load when the cluster-wide in-flight count hits its cap.
  Shedding is *never* a silent drop: every shed request is answered
  with an ERROR frame, exactly like worker-side backpressure.
* **Drain** -- :meth:`ServingCluster.drain_worker` takes a worker out
  of rotation gracefully: its tenants are handed back to the ring (new
  requests route to their new workers immediately), admission stops at
  the worker, and every request already in flight there is flushed and
  answered before the worker goes idle.  Zero responses are lost.
* **Failure** -- :meth:`ServingCluster.kill_worker` (called by fault
  tests, or by the front door when it finds a worker process dead)
  fails over: in-flight requests at the dead worker surface as ERROR
  frames (never hangs, never wrong bits -- the request either executed
  and its response was already routed, or it is reported lost), and the
  dead worker's tenants are re-placed on the surviving ring.  A
  restarted worker rejoins the ring and its tenants migrate back --
  consistent hashing puts them exactly where they were.

One request forwarded to a worker produces exactly one response frame
(RESPONSE or ERROR) back through the router, so ``completed + shed +
failed_over + expired == submitted`` is an invariant the fault-injection
suite asserts in every scenario -- with retried requests counted once:
a retry answered from the dedup cache (or refused because the original
is still in flight) never increments ``submitted``.

The reliability layer on top of this router -- heartbeat supervision,
restart backoff, circuit breaking -- lives in
:mod:`repro.serving.supervisor`; the idempotent-retry client half in
:class:`repro.serving.traffic.ResilientClient`.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.ckks.keys import GaloisKeySet, RelinKey
from repro.ckks.serialization import (
    LATEST_VERSION,
    SUPPORTED_VERSIONS,
    VERSION,
    serialize_kswitch_key,
)
from repro.serving import framing
from repro.serving.clock import SYSTEM_CLOCK, Clock
from repro.serving.framing import (
    FRAME_VERSION,
    LATEST_FRAME_VERSION,
    Frame,
    FrameDecoder,
    StreamProtocolError,
)
from repro.serving.session import ClientSession, UnknownClientError
from repro.serving.server import ServingReport
from repro.serving.worker import WorkerDeadError, WorkerHandle


class NoWorkersError(RuntimeError):
    """The hash ring is empty; nothing can be placed."""


class UnknownWorkerError(KeyError):
    """An operation named a worker the ring has never heard of."""


class HashRing:
    """Consistent hashing with virtual nodes (deterministic: SHA-256).

    ``vnodes`` replicas per worker smooth the placement distribution;
    removing a worker only moves the keys that hashed to it, so a drain
    or crash re-places one worker's tenants and nobody else's.
    """

    def __init__(self, vnodes: int = 64):
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        self._points: List[Tuple[int, str]] = []  # sorted (hash, worker_id)

    @staticmethod
    def _hash(token: str) -> int:
        return int.from_bytes(
            hashlib.sha256(token.encode("utf-8")).digest()[:8], "big"
        )

    def __contains__(self, worker_id: str) -> bool:
        return any(wid == worker_id for _, wid in self._points)

    def __len__(self) -> int:
        return len({wid for _, wid in self._points})

    @property
    def worker_ids(self) -> List[str]:
        return sorted({wid for _, wid in self._points})

    def add(self, worker_id: str) -> None:
        if worker_id in self:
            return
        for i in range(self.vnodes):
            point = (self._hash(f"{worker_id}#{i}"), worker_id)
            bisect.insort(self._points, point)

    def remove(self, worker_id: str) -> None:
        """Take a worker's points off the ring.

        Removing a worker that is not on the ring raises: the silent
        no-op it used to be masked double-drain and kill-after-quarantine
        bugs in which the caller *thought* it changed placement.
        """
        if worker_id not in self:
            raise UnknownWorkerError(
                f"worker {worker_id!r} is not on the ring; "
                f"ring members: {self.worker_ids}"
            )
        self._points = [p for p in self._points if p[1] != worker_id]

    def place(self, key: str) -> str:
        """The worker owning ``key``: first ring point at or after its hash."""
        if not self._points:
            raise NoWorkersError("hash ring is empty; no workers to place on")
        h = self._hash(key)
        i = bisect.bisect_left(self._points, (h, ""))
        if i == len(self._points):
            i = 0  # wrap around the ring
        return self._points[i][1]


@dataclass
class ClusterReport:
    """Router-level accounting (worker-level stats live with workers).

    The conservation law the fault suite asserts in every scenario:
    ``completed + shed_requests + failed_over_requests +
    expired_requests == submitted`` -- every submitted request is
    answered exactly once, and a deduplicated retry is counted once
    (dedup hits and duplicate-in-flight refusals never increment
    ``submitted``; they are tracked in their own counters).
    """

    submitted: int = 0
    completed: int = 0
    shed_requests: int = 0
    failed_over_requests: int = 0
    #: requests answered with a DEADLINE error (router admission or
    #: worker-side expiry) instead of a result.
    expired_requests: int = 0
    #: retries answered from the dedup cache without re-executing.
    dedup_hits: int = 0
    #: duplicates refused because the original is still in flight.
    duplicate_inflight: int = 0
    #: admission-to-response seconds per completed request (router clock).
    latencies: List[float] = field(default_factory=list)


#: Completed responses remembered per client for idempotent retries.
#: Bounded: a retry storm cannot grow router memory, and a client that
#: reuses a request_id older than the window is answered by re-execution
#: (safe -- the ops are pure functions of their ciphertext).
DEDUP_CACHE_SIZE = 128


@dataclass
class _TenantKeys:
    relin_blob: Optional[bytes]
    galois_blobs: Optional[Dict[int, bytes]]


class ServingCluster:
    """The sharded serving router: placement, shedding, drain, failover.

    ``worker_factory(worker_id) -> WorkerHandle`` builds workers, so one
    router drives deterministic in-process workers in tests and real
    worker processes in deployment -- the routing logic cannot tell the
    difference.  ``clock`` is injectable and threads through to local
    workers' batchers, so manual-clock tests control every deadline in
    the cluster.
    """

    def __init__(
        self,
        worker_factory: Callable[[str], WorkerHandle],
        worker_count: int = 4,
        max_inflight: int = 4096,
        vnodes: int = 64,
        clock: Clock = SYSTEM_CLOCK,
        worker_ids: Optional[List[str]] = None,
    ):
        if worker_count < 1 and not worker_ids:
            raise ValueError("need at least one worker")
        self.clock = clock
        self.max_inflight = max_inflight
        self._factory = worker_factory
        self.ring = HashRing(vnodes)
        ids = worker_ids if worker_ids else [f"w{i}" for i in range(worker_count)]
        self.workers: Dict[str, WorkerHandle] = {}
        for wid in ids:
            self.workers[wid] = worker_factory(wid)
            self.ring.add(wid)
        self._tenants: Dict[str, _TenantKeys] = {}
        #: worker_id -> key_ids whose blobs that worker already holds
        #: (reset on restart: a fresh process has an empty key cache).
        self._uploaded: Dict[str, set] = {wid: set() for wid in ids}
        #: client_id -> the router's keyless session of it: negotiated
        #: versions, stream decoder, outbox
        self._clients: Dict[str, ClientSession] = {}
        #: client_id -> the worker holding its session
        self._placement: Dict[str, str] = {}
        #: client_id -> request_id -> encoded RESPONSE, insertion-ordered
        #: for LRU eviction: a retry of a completed request replays these
        #: bytes bit-identically instead of executing twice
        self._dedup: Dict[str, "OrderedDict[int, bytes]"] = {}
        #: (client_id, request_id) -> (worker_id, admitted_at)
        self._inflight: Dict[Tuple[str, int], Tuple[str, float]] = {}
        self.report = ClusterReport()

    # ------------------------------------------------------------------
    # tenants and clients
    # ------------------------------------------------------------------
    def register_tenant(
        self,
        key_id: str,
        relin_key: Optional[RelinKey] = None,
        galois_keys: Optional[GaloisKeySet] = None,
        wire_version: int = VERSION,
    ) -> None:
        """Install one tenant's key material (serialized once, here).

        The router -- not the client -- binds keys to a ``key_id``; a
        client claiming a tenant's id gets exactly that tenant's keys,
        so it can never smuggle different key material into the
        tenant's batch lanes.

        ``wire_version`` selects the format of the stored blobs -- the
        bytes every worker upload (including failover re-uploads) ships.
        Version 2 with seed-expandable keys roughly halves the upload.

        A ``key_id`` is bound once, like a program id: workers cache the
        deserialized keys per ``key_id`` and open lanes hold them, so
        re-registering an id with *different* blobs raises
        ``ValueError``; identical blobs are idempotent.
        """
        if wire_version not in SUPPORTED_VERSIONS:
            raise ValueError(
                f"unsupported wire version {wire_version}; "
                f"supported: {SUPPORTED_VERSIONS}"
            )
        relin_blob = (
            serialize_kswitch_key(relin_key, version=wire_version)
            if relin_key
            else None
        )
        galois_blobs = (
            {
                elt: serialize_kswitch_key(
                    galois_keys.key_for_element(elt), version=wire_version
                )
                for elt in galois_keys.elements()
            }
            if galois_keys
            else None
        )
        keys = _TenantKeys(relin_blob, galois_blobs)
        if self._tenants.setdefault(key_id, keys) != keys:
            raise ValueError(
                f"key_id {key_id!r} is already registered with different "
                "keys; register the new keys under a new key_id"
            )

    def register_client(
        self,
        client_id: str,
        key_id: str,
        wire_version: int = VERSION,
        frame_version: int = FRAME_VERSION,
    ) -> str:
        """Open a session; returns the worker it was placed on.

        Re-registering an existing client with the same ``key_id`` is
        idempotent (a reconnecting socket client re-sends HELLO); with a
        different ``key_id`` it is an error.  ``wire_version`` is the
        version this client's responses are serialized at and
        ``frame_version`` the frame-protocol version of its response
        envelopes; a reconnect may renegotiate either.  A reconnect
        keeps the client's dedup cache: replaying a completed request's
        response after a reconnect is exactly the idempotent-retry case
        the cache exists for.
        """
        session = self._clients.get(client_id)
        if session is not None:
            if session.key_id != key_id:
                raise ValueError(
                    f"client {client_id!r} is registered under key_id "
                    f"{session.key_id!r}, not {key_id!r}"
                )
            worker_id = self._placement[client_id]
            if (session.wire_version, session.frame_version) != (
                wire_version, frame_version
            ):
                # a reconnect renegotiated: refresh the worker session
                session.negotiate(wire_version, frame_version)
                self._register_at_worker(worker_id, session)
            return worker_id
        # built first: it validates the versions before anything is placed
        session = ClientSession(
            client_id, key_id, wire_version=wire_version, frame_version=frame_version
        )
        if key_id not in self._tenants:
            raise KeyError(
                f"unknown key_id {key_id!r}: register the tenant's keys first"
            )
        worker_id = self.ring.place(key_id)
        self._register_at_worker(worker_id, session)
        self._clients[client_id] = session
        self._placement[client_id] = worker_id
        self._dedup[client_id] = OrderedDict()
        return worker_id

    def _register_at_worker(self, worker_id: str, session: ClientSession) -> None:
        tenant = self._tenants[session.key_id]
        uploaded = self._uploaded[worker_id]
        # the worker caches key objects per key_id: blobs travel once
        blobs = (
            (None, None)
            if session.key_id in uploaded
            else (tenant.relin_blob, tenant.galois_blobs)
        )
        self.workers[worker_id].register_session(
            session.client_id, session.key_id, *blobs,
            session.wire_version, session.frame_version,
        )
        uploaded.add(session.key_id)

    def _client(self, client_id: str) -> ClientSession:
        try:
            return self._clients[client_id]
        except KeyError:
            raise UnknownClientError(
                f"no session for client {client_id!r}; register first"
            ) from None

    # ------------------------------------------------------------------
    # ingress
    # ------------------------------------------------------------------
    def receive(self, client_id: str, data: bytes) -> None:
        """Feed raw stream bytes from one client's connection.

        A corrupt stream raises :class:`StreamProtocolError` by the one
        ingress rule (:meth:`FrameDecoder.ingest`, shared with
        ``EncryptedComputeServer.receive``): every frame decoded ahead
        of the corruption is still routed, and the client's next good
        frame is served.
        """
        self._client(client_id).decoder.ingest(
            data, partial(self.receive_frame, client_id)
        )

    def receive_frame(self, client_id: str, frame: Frame) -> None:
        """Route one decoded frame to its session's worker.

        Retry semantics live here, *before* the submitted counter: a
        retry of a completed request replays the cached response
        bit-identically (never re-executes), a retry of an in-flight
        request is refused with a retryable ERROR (the original's
        response is still coming), and neither counts as a new
        submission -- a retried request is counted exactly once.
        """
        session = self._client(client_id)
        refusal = session.misdirected(frame)
        if refusal is not None:
            session.respond_error(frame.request_id, refusal)
            return
        dedup = self._dedup[client_id]
        cached = dedup.get(frame.request_id)
        if cached is not None:
            # idempotent retry: the request already executed; replay the
            # exact response bytes and refresh its LRU position
            dedup.move_to_end(frame.request_id)
            self.report.dedup_hits += 1
            session.outbox.append(cached)
            return
        key = (client_id, frame.request_id)
        if key in self._inflight:
            self.report.duplicate_inflight += 1
            session.respond_error(
                frame.request_id,
                f"request_id {frame.request_id} is already in flight; "
                "its response is coming",
                code=framing.ERR_RETRYABLE,
            )
            return
        self.report.submitted += 1
        if frame.deadline and self.clock() >= frame.deadline:
            # dead on arrival at the router: do not spend a worker hop
            # on an abandoned request
            self.report.expired_requests += 1
            session.respond_error(
                frame.request_id,
                "request deadline expired before admission",
                code=framing.ERR_DEADLINE,
            )
            return
        if len(self._inflight) >= self.max_inflight:
            # cluster-wide load shedding: an explicit ERROR, never a
            # silent drop -- the client learns to back off
            self.report.shed_requests += 1
            session.respond_error(
                frame.request_id,
                f"cluster at capacity ({self.max_inflight} in flight); "
                "retry later",
                code=framing.ERR_RETRYABLE,
            )
            return
        worker_id = self._placement[client_id]
        if not self.workers[worker_id].alive:
            # the process died since we last routed here: fail over now
            try:
                self.kill_worker(worker_id)
            except NoWorkersError:
                pass  # it was the last worker: this request is answered below
            worker_id = self._placement[client_id]
            worker = self.workers.get(worker_id)
            if worker is None or not worker.alive:
                # counted as failed over: the request was submitted and
                # is answered by this error, so the conservation law
                # still balances
                self.report.failed_over_requests += 1
                session.respond_error(
                    frame.request_id,
                    f"worker {worker_id!r} is down; session re-placed, retry",
                    code=framing.ERR_RETRYABLE,
                )
                return
        # as decoded, on either transport: the worker admits the Frame
        self.workers[worker_id].submit(client_id, frame)
        self._inflight[key] = (worker_id, self.clock())

    # ------------------------------------------------------------------
    # the scheduler turn
    # ------------------------------------------------------------------
    def pump(self, now: Optional[float] = None) -> int:
        """One cluster turn: give every worker a pump, route responses."""
        for handle in self.workers.values():
            if handle.alive:
                handle.pump(now)
        return self._collect(now)

    def _collect(self, now: Optional[float] = None) -> int:
        """Route worker terminal frames to client outboxes.

        Each terminal is classified by a header peek (no payload
        decode): a worker-side DEADLINE error counts as *expired*, any
        other terminal as *completed*.  Completed RESPONSE blobs also
        enter the client's dedup cache so a later retry of the same
        request replays these exact bytes instead of executing twice.
        """
        if now is None:
            now = self.clock()
        completed = 0
        expired = 0
        for handle in self.workers.values():
            if not handle.alive:
                continue
            for client_id, blobs in handle.poll_responses().items():
                session = self._clients.get(client_id)
                dedup = self._dedup.get(client_id)
                for blob in blobs:
                    kind, request_id, op = framing.peek_frame_summary(blob)
                    entry = self._inflight.pop((client_id, request_id), None)
                    if entry is not None:
                        self.report.latencies.append(now - entry[1])
                    if session is not None:
                        session.outbox.append(blob)
                        if kind == framing.RESPONSE:
                            dedup[request_id] = blob
                            dedup.move_to_end(request_id)
                            while len(dedup) > DEDUP_CACHE_SIZE:
                                dedup.popitem(last=False)
                    if kind == framing.ERROR and op == framing.ERR_DEADLINE:
                        expired += 1
                    else:
                        completed += 1
        self.report.completed += completed
        self.report.expired_requests += expired
        return completed

    def drain(self, now: Optional[float] = None) -> int:
        """Flush every worker's pending work (end-of-stream / shutdown)."""
        for handle in self.workers.values():
            if handle.alive:
                handle.drain(now)
        return self._collect(now)

    @property
    def inflight_count(self) -> int:
        return len(self._inflight)

    def client_inflight(self, client_id: str) -> int:
        """Requests of one client currently in flight (front-door uses
        this to settle a connection before closing it).

        Raises :class:`UnknownClientError` for a client that never
        registered -- a silent 0 here turned typo'd client ids into
        "nothing in flight, safe to close" decisions.
        """
        self._client(client_id)
        return sum(1 for (cid, _) in self._inflight if cid == client_id)

    def take_outbox(self, client_id: str) -> List[bytes]:
        return self._client(client_id).take_outbox()

    # ------------------------------------------------------------------
    # worker lifecycle: drain, failure, rejoin
    # ------------------------------------------------------------------
    def _migrate_sessions(self, lost: Optional[str] = None) -> int:
        """Re-place every client whose tenant's ring position moved --
        or stayed at ``lost``, a worker rebuilt without its sessions."""
        if len(self.ring) == 0:
            # whole-cluster drain (shutdown): nowhere to migrate to;
            # sessions keep their mapping and the drained workers answer
            # any straggler with an explicit "draining" ERROR
            return 0
        moved = 0
        for client_id, session in self._clients.items():
            target = self.ring.place(session.key_id)
            if target != self._placement[client_id] or target == lost:
                self._placement[client_id] = target
                self._register_at_worker(target, session)
                moved += 1
        return moved

    def drain_worker(self, worker_id: str, now: Optional[float] = None) -> int:
        """Gracefully take a worker out of rotation.

        Protocol: (1) hand its tenants back to the ring -- new requests
        route to their new workers immediately; (2) stop admission at
        the worker (anything that somehow still lands there is answered
        with an ERROR, not dropped); (3) flush every lane and route the
        responses.  Returns the number of requests completed by the
        final flush; afterwards the worker holds nothing in flight.
        """
        handle = self.workers[worker_id]
        self.ring.remove(worker_id)
        self._migrate_sessions()
        handle.begin_drain()
        handle.drain(now)
        return self._collect(now)

    def _fail_over(self, worker_id: str) -> int:
        """Answer everything still in flight at a worker that is gone
        (killed, or stopped for a restart) with a retryable ERROR per
        request -- never a hang and never a made-up response -- and
        forget its key cache, which went with it."""
        failed = 0
        for (client_id, request_id), (wid, _) in list(self._inflight.items()):
            if wid != worker_id:
                continue
            del self._inflight[(client_id, request_id)]
            session = self._clients.get(client_id)
            if session is not None:
                session.respond_error(
                    request_id,
                    f"worker {worker_id!r} died with the request in flight; "
                    "retry",
                    code=framing.ERR_RETRYABLE,
                )
            failed += 1
        self.report.failed_over_requests += failed
        self._uploaded[worker_id] = set()
        return failed

    def kill_worker(self, worker_id: str, now: Optional[float] = None) -> int:
        """A worker died: fail its in-flight requests over to ERRORs.

        Everything the worker had not answered is reported lost to the
        owning clients (what it *had* answered was routed by the pump
        that collected it; nothing is salvaged from a dead worker) and
        its tenants re-place onto the surviving ring.  Returns the
        number of failed-over requests.
        """
        handle = self.workers[worker_id]
        if handle.alive:
            handle.kill()
        if worker_id in self.ring:
            # may already be off the ring (a drain or quarantine removed
            # it); killing must still fail over whatever was in flight
            self.ring.remove(worker_id)
        failed = self._fail_over(worker_id)
        if len(self.ring) == 0:
            raise NoWorkersError(
                f"last worker {worker_id!r} died; no capacity left"
            )
        self._migrate_sessions()
        return failed

    def restart_worker(self, worker_id: str, rejoin: bool = True) -> None:
        """Build a fresh worker under an existing id.

        A worker still alive is stopped first, and whatever it had in
        flight fails over exactly as in :meth:`kill_worker` (drain it
        first to lose nothing).  With ``rejoin=True`` (the default) the
        fresh worker goes straight back on the ring: consistent hashing
        re-places exactly the tenants that lived on it before the crash
        -- they migrate back, sessions re-register, and key material
        re-uploads (the fresh worker's cache is empty).
        ``rejoin=False`` builds the worker but leaves it *off* the ring
        -- the supervisor's quarantine/probation path: tenants stay
        where the failover re-placed them until the worker proves it can
        stay alive, then :meth:`rejoin_worker` returns it.
        """
        old = self.workers.get(worker_id)
        if old is not None and old.alive:
            old.stop()
        self._fail_over(worker_id)
        self.workers[worker_id] = self._factory(worker_id)
        if rejoin:
            self.ring.add(worker_id)
        elif worker_id in self.ring:
            self.ring.remove(worker_id)
        self._migrate_sessions(lost=worker_id)

    def rejoin_worker(self, worker_id: str) -> None:
        """Return a drained (still-alive) worker to the ring."""
        handle = self.workers[worker_id]
        if not handle.alive:
            raise WorkerDeadError(
                f"worker {worker_id!r} is dead; use restart_worker, "
                "not rejoin_worker"
            )
        handle.resume()
        self.ring.add(worker_id)
        self._migrate_sessions()

    def stop(self) -> None:
        """Shut every worker down (graceful; drain first if you care)."""
        for handle in self.workers.values():
            if handle.alive:
                handle.stop()

    def worker_stats(self) -> Dict[str, ServingReport]:
        """A snapshot of each live worker's serving report (for
        benchmarks, ``HostScheduler.run_executed`` and reports)."""
        return {
            wid: handle.stats()
            for wid, handle in self.workers.items()
            if handle.alive
        }


# ----------------------------------------------------------------------
# asyncio socket front end
# ----------------------------------------------------------------------
class AsyncFrontDoor:
    """Asyncio TCP front-door speaking the length-prefixed frame protocol.

    Connection protocol: the first frame must be a HELLO (``client_id``
    = the session to open, ``op`` = the tenant's ``key_id``, whose keys
    must already be registered with the cluster, ``op_arg`` = highest
    wire-format version the client speaks, 0 meaning legacy v1 with no
    acknowledgement); REQUEST frames follow on the same connection and
    responses stream back as they complete.  A versioned HELLO is
    acknowledged with a RESPONSE frame (``op="hello"``) whose ``op_arg``
    is the negotiated version the server will use for this client's
    responses.
    A malformed stream is answered for every frame decoded ahead of the
    corruption, then the connection is closed -- the framing cannot be
    resynchronized.

    A background pump task gives the cluster scheduler turns, so worker
    deadlines flush even while every connection is idle.
    """

    def __init__(
        self,
        cluster: ServingCluster,
        host: str = "127.0.0.1",
        port: int = 0,
        pump_interval: float = 1e-3,
    ):
        self.cluster = cluster
        self.host = host
        self.port = port
        self.pump_interval = pump_interval
        self._server: Optional[asyncio.AbstractServer] = None
        self._pump_task: Optional[asyncio.Task] = None
        self._writers: Dict[str, asyncio.StreamWriter] = {}

    async def start(self) -> Tuple[str, int]:
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        self._pump_task = asyncio.ensure_future(self._pump_loop())
        return self.host, self.port

    async def stop(self) -> None:
        if self._pump_task is not None:
            self._pump_task.cancel()
            try:
                await self._pump_task
            except asyncio.CancelledError:
                pass
            self._pump_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "AsyncFrontDoor":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    async def _pump_loop(self) -> None:
        while True:
            self.cluster.pump()
            await self._flush_outboxes()
            await asyncio.sleep(self.pump_interval)

    async def _flush_outboxes(self) -> None:
        for client_id, writer in list(self._writers.items()):
            frames = self.cluster.take_outbox(client_id)
            if not frames:
                continue
            try:
                writer.write(b"".join(frames))
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                self._writers.pop(client_id, None)

    async def _settle_client(
        self,
        client_id: str,
        writer: asyncio.StreamWriter,
        timeout: float = 10.0,
    ) -> None:
        """Pump until a closing connection's in-flight requests answer.

        The deadline reads the *cluster's* clock: with a manual clock
        installed, a test can make "the settle window expired with a
        request still in flight" a reproducible state instead of a
        ten-second wall-clock wait.
        """
        clock = self.cluster.clock
        deadline = clock() + timeout
        while (
            self.cluster.client_inflight(client_id)
            and clock() < deadline
        ):
            self.cluster.pump()
            await self._flush_outboxes()
            await asyncio.sleep(self.pump_interval)
        await self._flush_outboxes()
        try:
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass

    def _dispatch(
        self,
        frame: Frame,
        client_id: Optional[str],
        writer: asyncio.StreamWriter,
    ) -> Optional[str]:
        """Handle one decoded frame; returns the connection's client id."""
        if frame.kind == framing.HELLO:
            # version negotiation: ``op_arg`` carries the highest wire
            # version the client speaks.  0 is the legacy HELLO -- a v1
            # session with no acknowledgement, byte-identical to the
            # pre-negotiation protocol.  A nonzero request is answered
            # with a RESPONSE echoing the *negotiated* version
            # (min(requested, LATEST_VERSION)) in its own ``op_arg``.
            #
            # The HELLO *payload* negotiates the frame protocol the same
            # way: one byte naming the highest frame version the client
            # speaks (v2 = deadlines + CRC trailers).  An empty payload
            # is the legacy frame protocol -- the legacy HELLO stays
            # byte-identical -- and the ack's payload echoes the
            # negotiated frame version only when the client sent one.
            requested = frame.op_arg
            negotiated = min(requested, LATEST_VERSION) if requested > 0 else VERSION
            frame_requested = frame.payload[0] if frame.payload else 0
            frame_negotiated = (
                min(frame_requested, LATEST_FRAME_VERSION)
                if frame_requested > 0
                else FRAME_VERSION
            )
            try:
                self.cluster.register_client(
                    frame.client_id,
                    key_id=frame.op,
                    wire_version=negotiated,
                    frame_version=frame_negotiated,
                )
            except (ValueError, KeyError) as exc:
                writer.write(
                    framing.encode_frame(
                        framing.ERROR,
                        frame.request_id,
                        frame.client_id,
                        payload=str(exc).encode("utf-8"),
                    )
                )
                return client_id
            self._writers[frame.client_id] = writer
            if requested > 0 or frame_requested > 0:
                # the ack itself rides the just-negotiated frame
                # envelope: a client that asked for v2 can decode v2,
                # and everything after the HELLO is uniform
                writer.write(
                    framing.encode_frame(
                        framing.RESPONSE,
                        frame.request_id,
                        frame.client_id,
                        op="hello",
                        op_arg=negotiated,
                        payload=(
                            bytes([frame_negotiated])
                            if frame_requested > 0
                            else b""
                        ),
                        frame_version=frame_negotiated,
                    )
                )
            return frame.client_id
        if client_id is None:
            writer.write(
                framing.encode_frame(
                    framing.ERROR,
                    frame.request_id,
                    frame.client_id,
                    payload=b"connection must open with a HELLO frame",
                )
            )
            return None
        self.cluster.receive_frame(client_id, frame)
        return client_id

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        decoder = FrameDecoder()
        client_id: Optional[str] = None
        try:
            while True:
                data = await reader.read(1 << 16)
                if not data:
                    break
                try:
                    frames = decoder.feed(data)
                except StreamProtocolError as exc:
                    # serve what decoded cleanly -- and wait for their
                    # responses -- then reset the stream: one corrupt
                    # frame must not lose the good requests before it
                    for frame in exc.frames:
                        client_id = self._dispatch(frame, client_id, writer)
                    if client_id is not None:
                        await self._settle_client(client_id, writer)
                    break
                for frame in frames:
                    client_id = self._dispatch(frame, client_id, writer)
                self.cluster.pump()
                await self._flush_outboxes()
                await writer.drain()
        finally:
            if client_id is not None:
                self._writers.pop(client_id, None)
            writer.close()
            try:
                # shielded: server shutdown cancels this handler task,
                # and an un-awaited wait_closed would log to the loop
                await asyncio.shield(writer.wait_closed())
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.CancelledError,
            ):  # pragma: no cover
                pass
