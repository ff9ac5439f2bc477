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
* **Lifecycle** -- each worker is in one state of :data:`TRANSITIONS`
  (serving, probation, drained, quarantined, half-open, dead, or dead
  while drained), and :meth:`ServingCluster.transition` is the one way
  out of it: it refuses a move the table does not list, sets ring
  membership from the next state, acts on the worker and logs the move.
  A drain hands the worker's tenants back to the ring, stops admission
  there and answers everything already in flight: zero responses are
  lost.  A kill answers what the worker held with retryable ERROR
  frames (never hangs, never wrong bits -- the request either executed
  and its response was already routed, or it is reported lost) and
  re-places its tenants on the surviving ring; a restart lands where the
  state says -- on the ring in probation, where consistent hashing puts
  its tenants back exactly where they were, or off it, quarantined or
  still drained.

One request forwarded to a worker produces exactly one response frame
(RESPONSE or ERROR) back through the router, so every ``admitted``
event of the router's :class:`repro.obs.EventLog` meets exactly one
terminal event, and ``completed + shed + failed_over + expired ==
submitted`` in its :class:`ClusterReport` fold -- the law the fault and
chaos suites assert in every scenario, with retried requests counted
once: a retry answered from the dedup cache (or refused because the
original is still in flight) is never logged ``admitted``.

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
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.ckks.keys import GaloisKeySet, RelinKey
from repro.obs import EventLog
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
)
from repro.serving.session import ClientSession, UnknownClientError
from repro.serving.server import ServingReport
from repro.serving.worker import WorkerDeadError, WorkerHandle


class NoWorkersError(RuntimeError):
    """The hash ring is empty; nothing can be placed."""


class UnknownWorkerError(KeyError):
    """An operation named a worker the ring has never heard of."""


class WorkerStateError(UnknownWorkerError):
    """A lifecycle move that the worker's state does not allow."""


# worker states: on the ring, alive off it, and dead
SERVING, PROBATION = "serving", "probation"  # a death in probation is a flap
DRAINED, QUARANTINED, HALF_OPEN = "drained", "quarantined", "half_open"
DEAD, DEAD_DRAINED = "dead", "dead_drained"  # the latter restarts drained
ON_RING = (SERVING, PROBATION)
ALIVE = ON_RING + (DRAINED, QUARANTINED, HALF_OPEN)
#: where a restart lands, from each state (any state may restart)
_RESTARTS_AT = {DRAINED: DRAINED, DEAD_DRAINED: DRAINED, QUARANTINED: QUARANTINED,
                HALF_OPEN: QUARANTINED, DEAD: PROBATION, SERVING: PROBATION,
                PROBATION: PROBATION}

#: (state, move) -> next state: every legal lifecycle move, and no other.
#: ``kill`` is the router's (a worker found dead, or an operator's call),
#: ``die`` the supervisor's verdict after missed probes; ``quarantine`` is
#: its restart of a worker whose breaker is open.
TRANSITIONS: Dict[Tuple[str, str], str] = {
    (SERVING, "drain"): DRAINED, (PROBATION, "drain"): DRAINED,
    (DRAINED, "rejoin"): SERVING, (HALF_OPEN, "rejoin"): SERVING,
    (PROBATION, "recover"): SERVING, (QUARANTINED, "half_open"): HALF_OPEN,
    (DEAD, "quarantine"): QUARANTINED, (DEAD_DRAINED, "quarantine"): DRAINED,
    **{(state, "restart"): landing for state, landing in _RESTARTS_AT.items()},
    **{(state, move): DEAD_DRAINED if state in (DRAINED, DEAD_DRAINED) else DEAD
       for state in _RESTARTS_AT for move in ("kill", "die")},
}

#: the event each move logs, keyed by worker id (a restart's payload is
#: the state it landed in)
MOVE_EVENTS = {
    "drain": "drained", "rejoin": "rejoined", "recover": "recovered",
    "half_open": "half_open", "kill": "killed", "die": "died",
    "restart": "restarted", "quarantine": "restarted",
}


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


class ClusterReport(NamedTuple):
    """Router accounting: a fold over the router's event log.

    The conservation law the fault suite asserts in every scenario:
    ``completed + shed_requests + failed_over_requests +
    expired_requests == submitted`` -- every submitted request is
    answered exactly once, and a deduplicated retry is counted once
    (``deduped`` and ``duplicate`` events are not admissions).
    """

    submitted: int
    completed: int
    shed_requests: int
    failed_over_requests: int
    #: answered with a DEADLINE error (router admission or worker-side
    #: expiry) instead of a result
    expired_requests: int
    #: retries answered from the dedup cache without re-executing
    dedup_hits: int
    #: admission-to-response seconds per completed request (router clock)
    latencies: Tuple[float, ...]

    @classmethod
    def fold(cls, log: EventLog) -> "ClusterReport":
        return cls(
            *map(log.count, ("admitted", "answered", "shed", "failed_over", "expired", "deduped")),
            tuple(log.latencies()),
        )


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
        #: worker_id -> its lifecycle state; :meth:`transition` moves it
        self.states: Dict[str, str] = {}
        for wid in ids:
            self.workers[wid] = worker_factory(wid)
            self.states[wid] = SERVING
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
        #: (client_id, request_id) -> the worker it was forwarded to
        self._inflight: Dict[Tuple[str, int], str] = {}
        #: program id -> normalized steps, bound at every worker
        self._programs: Dict[int, tuple] = {}
        #: what happened to each request, once (and, through a
        #: supervisor, to each worker); :attr:`report` folds it
        self.log = EventLog()

    @property
    def report(self) -> ClusterReport:
        return ClusterReport.fold(self.log)

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

    def register_program(self, program_id: int, steps) -> tuple:
        """Register a multi-op program at every live worker (see
        ``EncryptedComputeServer.register_program``, whose error this
        raises), and again at a worker :meth:`restart_worker` builds.
        It is recorded once one worker accepts it, so a worker that dies
        registering it gets it at its restart: every worker serves it,
        or none does."""
        program = None
        for handle in self.workers.values():
            if not handle.alive:
                continue
            try:
                program = handle.register_program(program_id, steps)
            except WorkerDeadError:
                continue  # its restart registers the recorded program
            self._programs[int(program_id)] = program
        if program is None:
            raise NoWorkersError("no live worker to register the program at")
        return program

    def _register_at_worker(self, worker_id: str, session: ClientSession) -> None:
        if not self.workers[worker_id].alive:
            return  # died unnoticed: its failover re-places and registers the session
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

        Retry semantics live here, *before* admission: a retry of a
        completed request replays the cached response bit-identically
        (never re-executes), a retry of an in-flight request is refused
        with a retryable ERROR (the original's response is still
        coming), and neither is logged ``admitted`` -- a retried request
        is counted exactly once.
        """
        session = self._client(client_id)
        now = self.clock()
        request_id = frame.request_id
        refusal = session.misdirected(frame)
        if refusal is not None:
            session.respond_error(request_id, refusal)
            self.log.emit(now, "refused", client_id, request_id, framing.ERR_FATAL)
            return
        dedup = self._dedup[client_id]
        cached = dedup.get(request_id)
        if cached is not None:
            # idempotent retry: the request already executed; replay the
            # exact response bytes and refresh its LRU position
            dedup.move_to_end(request_id)
            self.log.emit(now, "deduped", client_id, request_id)
            session.outbox.append(cached)
            return
        key = (client_id, request_id)
        if key in self._inflight:
            self.log.emit(now, "duplicate", client_id, request_id)
            session.respond_error(
                request_id,
                f"request_id {request_id} is already in flight; its response is coming",
                code=framing.ERR_RETRYABLE,
            )
            return
        self.log.emit(now, "admitted", client_id, request_id)
        if frame.deadline and now >= frame.deadline:
            # dead on arrival at the router: do not spend a worker hop
            # on an abandoned request
            self.log.emit(now, "expired", client_id, request_id)
            session.respond_error(
                request_id,
                "request deadline expired before admission",
                code=framing.ERR_DEADLINE,
            )
            return
        if len(self._inflight) >= self.max_inflight:
            # cluster-wide load shedding: an explicit ERROR, never a
            # silent drop -- the client learns to back off
            self.log.emit(now, "shed", client_id, request_id)
            session.respond_error(
                request_id,
                f"cluster at capacity ({self.max_inflight} in flight); retry later",
                code=framing.ERR_RETRYABLE,
            )
            return
        worker_id = self._placement[client_id]
        if not self.workers[worker_id].alive:
            # the process died since we last routed here: fail over now,
            # unless someone already recorded the death
            try:
                if self.states[worker_id] in ALIVE:
                    self.kill_worker(worker_id, now)
            except NoWorkersError:
                pass  # it was the last worker: this request is answered below
            worker_id = self._placement[client_id]
            worker = self.workers.get(worker_id)
            if worker is None or not worker.alive:
                # failed over: the request was admitted and is answered
                # by this error, so the conservation law still balances
                self.log.emit(now, "failed_over", client_id, request_id)
                session.respond_error(
                    request_id,
                    f"worker {worker_id!r} is down; session re-placed, retry",
                    code=framing.ERR_RETRYABLE,
                )
                return
        # as decoded, on either transport: the worker admits the Frame
        self.workers[worker_id].submit(client_id, frame)
        self._inflight[key] = worker_id

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
        decode): a worker-side DEADLINE error is logged *expired*, any
        other terminal *answered*.  Completed RESPONSE blobs also
        enter the client's dedup cache so a later retry of the same
        request replays these exact bytes instead of executing twice.
        Returns the number answered.
        """
        if now is None:
            now = self.clock()
        completed = 0
        for handle in self.workers.values():
            if not handle.alive:
                continue
            for client_id, blobs in handle.poll_responses().items():
                session = self._clients.get(client_id)
                dedup = self._dedup.get(client_id)
                for blob in blobs:
                    kind, request_id, op = framing.peek_frame_summary(blob)
                    self._inflight.pop((client_id, request_id), None)
                    if session is not None:
                        session.outbox.append(blob)
                        if kind == framing.RESPONSE:
                            dedup[request_id] = blob
                            dedup.move_to_end(request_id)
                            while len(dedup) > DEDUP_CACHE_SIZE:
                                dedup.popitem(last=False)
                    expired = kind == framing.ERROR and op == framing.ERR_DEADLINE
                    self.log.emit(now, "expired" if expired else "answered", client_id, request_id)
                    completed += not expired
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
    # worker lifecycle: one state table, one transition function
    # ------------------------------------------------------------------
    def transition(self, worker_id: str, move: str, now: Optional[float] = None) -> int:
        """Move one worker along :data:`TRANSITIONS`: the only code that
        changes a worker's state or the ring.

        A move the table does not list raises :class:`WorkerStateError`,
        and one that would keep a worker whose handle died unrecorded
        alive :class:`WorkerDeadError`; either changes nothing.  Else, in
        order: record the next state and log the move's event; set ring
        membership from the next state; act on the worker -- kill a dying
        one, stop and rebuild a restarting one (registering every program
        of :meth:`register_program` at the fresh worker), stop admission
        at one that lands drained, flush a draining one, resume a
        rejoining one; answer what a lost worker held with one retryable
        ERROR per request (never a hang, never a made-up response) and
        forget its key cache; re-place the sessions whose ring position
        moved, or stayed at a rebuilt worker.  A worker that dies with no
        worker left on the ring raises :class:`NoWorkersError` once all
        that is done.  Returns the requests answered by a drain's final
        flush, or failed over.
        """
        state = self.states[worker_id]
        target = TRANSITIONS.get((state, move))
        if target is None:
            legal = ", ".join(sorted(m for s, m in TRANSITIONS if s == state))
            raise WorkerStateError(
                f"cannot {move} worker {worker_id!r}: it is {state} (its moves: {legal})"
            )
        handle = self.workers[worker_id]
        rebuilt = move in ("restart", "quarantine")
        if target in ALIVE and not rebuilt and not handle.alive:
            raise WorkerDeadError(
                f"cannot {move} worker {worker_id!r}: it died while {state}; kill or restart it"
            )
        now = self.clock() if now is None else now
        self.states[worker_id] = target
        self.log.emit(now, MOVE_EVENTS[move], worker_id, payload=target if rebuilt else None)
        if target in ON_RING:
            self.ring.add(worker_id)
        elif worker_id in self.ring:
            self.ring.remove(worker_id)
        failed = []
        if rebuilt or target not in ALIVE:
            if handle.alive:
                (handle.stop if rebuilt else handle.kill)()
            failed = [key for key, wid in self._inflight.items() if wid == worker_id]
            self._uploaded[worker_id] = set()
        for client_id, request_id in failed:
            del self._inflight[client_id, request_id]
            session = self._clients.get(client_id)
            if session is not None:
                session.respond_error(
                    request_id,
                    f"worker {worker_id!r} died with the request in flight; retry",
                    code=framing.ERR_RETRYABLE,
                )
            self.log.emit(now, "failed_over", client_id, request_id)
        if rebuilt:
            handle = self.workers[worker_id] = self._factory(worker_id)
            for program in self._programs.items():
                handle.register_program(*program)
        if target == DRAINED:
            handle.begin_drain()
        if move == "drain":
            handle.drain(now)
        elif move == "rejoin":
            handle.resume()
        # an empty ring (a whole-cluster drain) keeps every mapping: a
        # drained worker answers a straggler with a "draining" ERROR, and
        # a rebuilt one gets its sessions back
        for client_id, session in self._clients.items():
            place = self.ring.place(session.key_id) if len(self.ring) else self._placement[client_id]
            if place != self._placement[client_id] or (rebuilt and place == worker_id):
                self._placement[client_id] = place
                self._register_at_worker(place, session)
        if target not in ALIVE and len(self.ring) == 0:
            raise NoWorkersError(f"last worker {worker_id!r} died; no capacity left")
        return self._collect(now) if move == "drain" else len(failed)

    def drain_worker(self, worker_id: str, now: Optional[float] = None) -> int:
        """Take a worker out of rotation, losing nothing: its tenants go
        back to the ring, admission stops there, and what it holds is
        flushed and routed (see :meth:`transition`)."""
        return self.transition(worker_id, "drain", now)

    def kill_worker(self, worker_id: str, now: Optional[float] = None) -> int:
        """A worker died: fail what it held over to ERRORs and re-place its
        tenants (see :meth:`transition`)."""
        return self.transition(worker_id, "kill", now)

    def restart_worker(self, worker_id: str) -> int:
        """Build a fresh worker under an existing id (a live one is stopped
        and loses what it held: drain it first), landing where its state
        says: in probation on the ring, or off it quarantined or drained."""
        return self.transition(worker_id, "restart")

    def rejoin_worker(self, worker_id: str) -> None:
        """Return a drained (still-alive) worker to the ring."""
        self.transition(worker_id, "rejoin")

    def stop(self) -> None:
        """Shut every worker down (graceful; drain first if you care)."""
        for handle in self.workers.values():
            if handle.alive:
                handle.stop()

    def worker_stats(self) -> Dict[str, ServingReport]:
        """Each live worker's serving report, folded from a copy of its
        log (for benchmarks and reports)."""
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
    Frames are read whole, one at a time (:func:`framing.read_frame`),
    so every request's payload is decoded in place, and the cluster gets
    a turn after each.  A malformed stream is answered for every frame
    ahead of the corruption, then the connection is closed -- the
    framing cannot be resynchronized.

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
        client_id: Optional[str] = None
        try:
            while True:
                try:
                    frame = await framing.read_frame(reader)
                except ValueError:
                    # wait for the responses to the good frames before
                    # it, then reset the stream: one corrupt frame must
                    # not lose the good requests ahead of it
                    if client_id is not None:
                        await self._settle_client(client_id, writer)
                    break
                if frame is None:
                    break
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
