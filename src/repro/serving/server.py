"""The encrypted-compute server: multi-client serving over the wire.

This is the software realization of the paper's deployment picture
(Section 5.2 / Figure 7): many clients stream serialized ciphertexts at
a host, the host forms *homogeneous batches* out of the independent
requests, and each batch executes as one stacked pass -- the
ciphertext-level parallelism the accelerator amortizes its pipelines
across.  Concretely, one request travels:

    bytes -> FrameDecoder -> RequestQueue (backpressure)
          -> DynamicBatcher (homogeneity lanes, size/deadline flush)
          -> one PlanGraph per flush -> PlanExecutor
          -> serialized response frame in the client's outbox

The batcher decides *what* flushes together; the flush itself always
executes as a plan (:mod:`repro.plan`), the only road from this package
to the evaluator.  A single-op lane is N inputs x one node, a hoist lane
is one shared input x N ``rotate`` nodes (the executor's sweep fusion
pays the key-switch decomposition once), a program lane is N inputs x
the registered chain; the executor packs same-shape nodes into one
stacked batch call and runs a singleton through its scalar lane.

Every flush is also recorded as a *measured* :class:`ScheduledOp` --
input/output PCIe bytes from :func:`ciphertext_wire_bytes`, compute
seconds from the real execution -- so served traffic drops into the
same discrete-event host-pipeline simulation
(:meth:`repro.system.scheduler.HostScheduler.run_executed`) that a
:class:`repro.plan.PlanRun` feeds: simulate the system, execute the
math.
"""

from __future__ import annotations

import hashlib
import time  # perf_counter only: measures flush cost, never deadlines
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.ckks.context import CkksContext
from repro.ckks.serialization import (
    ciphertext_wire_bytes,
    deserialize_ciphertext,
    serialize_ciphertext,
)
from repro.plan import PlanExecutor, PlanGraph, check_plan
from repro.serving import framing
from repro.serving.batcher import (
    OP_KEY_KIND,
    SUPPORTED_OPS,
    BatchGroup,
    DynamicBatcher,
)
from repro.serving.framing import Frame
from repro.serving.clock import SYSTEM_CLOCK, Clock
from repro.serving.queue import BackpressureError, PendingRequest, RequestQueue
from repro.serving.session import ClientSession, SessionManager
from repro.system.scheduler import HostScheduler, ScheduledOp, ScheduleReport
from repro.system.pcie import PcieModel


def _lower_step(graph: PlanGraph, cur: int, op: str, arg: int) -> int:
    """One request op as a plan node on ``cur`` -- the only op table the
    serving layer keeps; everything past the graph is the executor's."""
    if op == "square":
        return graph.square(cur)
    if op == "rotate":
        return graph.rotate(cur, arg)
    if op == "conjugate":
        return graph.conjugate(cur)
    if op == "rescale":
        return graph.rescale(cur)
    if op == "double":
        return graph.add(cur, cur)
    if op == "negate":
        return graph.negate(cur)
    raise ValueError(f"unknown op {op!r}")


@dataclass(frozen=True)
class FlushRecord:
    """One executed flush: what ran, how wide, and what it cost."""

    op: str
    batch_size: int
    seconds: float
    batched: bool  # False = singleton, run through the executor's scalar lane
    scheduled: ScheduledOp


@dataclass
class ServingReport:
    """Aggregate accounting of everything a server has executed."""

    flushes: List[FlushRecord] = field(default_factory=list)
    #: enqueue-to-response seconds per completed request.
    latencies: List[float] = field(default_factory=list)
    rejected_requests: int = 0
    error_responses: int = 0
    #: requests answered with a DEADLINE error -- either dead on arrival
    #: (admission check) or expired while waiting in a batch lane.
    expired_requests: int = 0

    @property
    def request_count(self) -> int:
        return sum(f.batch_size for f in self.flushes)

    @property
    def flush_count(self) -> int:
        return len(self.flushes)

    @property
    def singleton_count(self) -> int:
        return sum(1 for f in self.flushes if not f.batched)

    @property
    def mean_batch_size(self) -> float:
        return self.request_count / len(self.flushes) if self.flushes else 0.0

    @property
    def compute_seconds(self) -> float:
        return sum(f.seconds for f in self.flushes)

    @property
    def seconds_per_request(self) -> float:
        n = self.request_count
        return self.compute_seconds / n if n else 0.0

    def scheduled_ops(self) -> List[ScheduledOp]:
        """The measured op stream for ``HostScheduler.run_executed``."""
        return [f.scheduled for f in self.flushes]


class EncryptedComputeServer:
    """Multi-client encrypted-compute service with dynamic batching.

    ``clock`` is injectable (default :data:`repro.serving.clock.SYSTEM_CLOCK`)
    so deadline behavior is testable deterministically; ``pump`` may
    also be handed an explicit ``now``.
    """

    def __init__(
        self,
        context: CkksContext,
        max_batch_size: int = 8,
        max_delay_seconds: float = 2e-3,
        max_pending: int = 1024,
        max_frame_bytes: Optional[int] = None,
        clock: Clock = SYSTEM_CLOCK,
    ):
        self.context = context
        self.clock = clock
        self.sessions = SessionManager(context)
        self.queue = RequestQueue(max_pending)
        # the batcher shares the server's clock, so an injected manual
        # clock governs deadline flushes end to end
        self.batcher = DynamicBatcher(max_batch_size, max_delay_seconds, clock=clock)
        #: the one executor every flush runs on; each flush installs the
        #: keys its requests captured at admission before running
        self.executor = PlanExecutor(context)
        self.report = ServingReport()
        self._max_frame_bytes = max_frame_bytes
        #: program id -> normalized step tuple (see register_program)
        self._programs: Dict[int, tuple] = {}

    # ------------------------------------------------------------------
    # client lifecycle
    # ------------------------------------------------------------------
    def register_client(self, client_id: str, **kwargs) -> ClientSession:
        """Open a session (see :meth:`SessionManager.register`)."""
        kwargs.setdefault("max_frame_bytes", self._max_frame_bytes)
        return self.sessions.register(client_id, **kwargs)

    # ------------------------------------------------------------------
    # multi-op programs
    # ------------------------------------------------------------------
    def register_program(self, program_id: int, steps) -> tuple:
        """Register a multi-op program clients invoke as one request.

        ``steps`` is a sequence of either bare op names (``"square"``,
        ``"rescale"``, ``"conjugate"``, ``"double"``, ``"negate"``) or
        ``("rotate", step)`` pairs.  A client then submits a single
        ``op="program"`` request with ``op_arg=program_id``; the whole
        chain executes as one :class:`repro.plan.PlanGraph` per flush,
        so the planner packs the flush's independent request chains into
        batch lanes instead of flushing each step separately.  The
        program's scale/level discipline is validated by the plan
        checker at flush time -- an infeasible chain fails loudly.

        An id is bound once: pending requests were admitted (and
        key-checked) against the registered steps and look them up again
        at flush time, so re-registering an id with *different* steps
        raises ``ValueError``; identical steps are idempotent.
        """
        valid = ("square", "rescale", "rotate", "conjugate", "double", "negate")
        normalized = []
        for step in steps:
            if isinstance(step, str):
                op, arg = step, 0
            else:
                op, arg = step
            if op not in valid:
                raise ValueError(
                    f"unknown program step {op!r}; supported: {', '.join(valid)}"
                )
            if op == "rotate" and int(arg) == 0:
                raise ValueError("rotate step must be nonzero")
            normalized.append((op, int(arg)))
        if not normalized:
            raise ValueError("a program needs at least one step")
        program = tuple(normalized)
        bound = self._programs.setdefault(int(program_id), program)
        if bound != program:
            raise ValueError(
                f"program id {int(program_id)} is already registered with "
                "different steps; register the new chain under a new id"
            )
        return program

    # ------------------------------------------------------------------
    # ingress
    # ------------------------------------------------------------------
    def receive(self, client_id: str, data: bytes) -> None:
        """Feed raw stream bytes from one client's connection.

        Raises on a corrupt stream (the transport must reset the
        connection), but only after accepting every valid frame decoded
        ahead of the corruption -- one bad frame in a read must not
        lose the good requests that arrived with it.
        """
        session = self.sessions.get(client_id)
        try:
            frames = session.decoder.feed(data)
        except framing.StreamProtocolError as exc:
            for frame in exc.frames:
                self._accept(session, frame)
            raise
        for frame in frames:
            self._accept(session, frame)

    def submit_frame(self, client_id: str, frame: Frame) -> None:
        """Submit one already-decoded frame (in-process clients)."""
        self._accept(self.sessions.get(client_id), frame)

    def _respond_error(
        self,
        session: ClientSession,
        request_id: int,
        message: str,
        code: str = framing.ERR_FATAL,
    ) -> None:
        """Queue an ERROR frame classified for the client's retry logic.

        ``code`` rides the frame's ``op`` field (:data:`framing.ERR_FATAL`
        for malformed/unservable requests, :data:`framing.ERR_RETRYABLE`
        for transient refusals like backpressure, :data:`framing.ERR_DEADLINE`
        for expired requests) so a resilient client can decide to resend
        without parsing human-oriented message text.
        """
        session.outbox.append(
            framing.encode_frame(
                framing.ERROR,
                request_id,
                session.client_id,
                op=code,
                payload=message.encode("utf-8"),
                frame_version=session.frame_version,
            )
        )
        self.report.error_responses += 1

    def _reject(self, session: ClientSession, request_id: int, message: str) -> None:
        session.requests_rejected += 1
        self.report.rejected_requests += 1
        # backpressure and drain refusals are transient by construction:
        # the request was never admitted, so resending it is always safe
        self._respond_error(
            session, request_id, message, code=framing.ERR_RETRYABLE
        )

    def _accept(self, session: ClientSession, frame: Frame) -> None:
        if frame.kind != framing.REQUEST:
            self._respond_error(
                session, frame.request_id, "server accepts only REQUEST frames"
            )
            return
        if frame.client_id and frame.client_id != session.client_id:
            # a mis-tagged frame must not execute under (and bill to)
            # another client's session and keys
            self._respond_error(
                session,
                frame.request_id,
                f"frame client_id {frame.client_id!r} does not match "
                f"this connection's session {session.client_id!r}",
            )
            return
        if frame.op not in OP_KEY_KIND:
            self._respond_error(
                session,
                frame.request_id,
                f"unknown op {frame.op!r}; supported: {', '.join(SUPPORTED_OPS)}",
            )
            return
        if frame.deadline and self.clock() >= frame.deadline:
            # dead on arrival: answer before spending a ciphertext
            # deserialization on work the client has already abandoned
            self.report.expired_requests += 1
            self._respond_error(
                session,
                frame.request_id,
                "request deadline expired before admission",
                code=framing.ERR_DEADLINE,
            )
            return
        key_kind = OP_KEY_KIND[frame.op]
        # the key object the request will execute under, captured NOW:
        # the batch lane is keyed on its identity and the flush consumes
        # it, so later key swaps on the session cannot affect this request
        key = None
        if key_kind == "relin":
            key = session.relin_key
            if key is None:
                self._respond_error(
                    session, frame.request_id, "session has no relinearization key"
                )
                return
        elif key_kind == "galois":
            key = session.galois_keys
            if key is None:
                self._respond_error(
                    session, frame.request_id, "session has no Galois keys"
                )
                return
        elif key_kind == "bundle":
            program = self._programs.get(frame.op_arg)
            if program is None:
                self._respond_error(
                    session,
                    frame.request_id,
                    f"unknown program id {frame.op_arg}; register it first",
                )
                return
            # the (relin, galois) bundle is one stable-identity object,
            # so unchanged-key admissions share a program batch lane
            key = session.key_bundle()
            ops = {op for op, _ in program}
            if "square" in ops and key[0] is None:
                self._respond_error(
                    session,
                    frame.request_id,
                    "program needs a relinearization key; session has none",
                )
                return
            if ops & {"rotate", "conjugate"} and key[1] is None:
                self._respond_error(
                    session, frame.request_id,
                    "program needs Galois keys; session has none",
                )
                return
        if self.queue.closed:
            self._reject(
                session, frame.request_id,
                "worker draining; not admitting requests",
            )
            return
        if len(self.queue) >= self.queue.max_pending:
            # admission check before payload decode: rejection must be
            # O(1), not cost a full ciphertext deserialization
            self._reject(
                session,
                frame.request_id,
                f"request queue full ({self.queue.max_pending} pending); "
                "retry later",
            )
            return
        try:
            # exact-length validation happens here: a truncated or
            # padded ciphertext payload raises instead of decoding as
            # zeros and silently serving garbage
            ct = deserialize_ciphertext(frame.payload, self.context)
        except ValueError as exc:
            self._respond_error(session, frame.request_id, f"bad payload: {exc}")
            return
        # rotations carry a payload digest so the batcher can recognize
        # the same ciphertext rotated by many steps and hoist the whole
        # set onto one key-switch decomposition
        digest = (
            hashlib.sha256(frame.payload).digest()
            if frame.op == "rotate"
            else b""
        )
        request = PendingRequest(
            session, frame.request_id, frame.op, frame.op_arg, ct,
            self.clock(), key, digest, deadline=frame.deadline,
        )
        try:
            self.queue.submit(request)
        except BackpressureError as exc:
            self._reject(session, frame.request_id, str(exc))
            return
        session.requests_accepted += 1

    # ------------------------------------------------------------------
    # the serve loop
    # ------------------------------------------------------------------
    def pump(self, now: Optional[float] = None) -> int:
        """One scheduler turn: route queued requests, flush what is due.

        Returns the number of requests completed this turn.  A lane
        flushes as soon as it fills to ``max_batch_size``; lanes that
        age past ``max_delay_seconds`` flush at whatever width they
        reached -- a singleton runs as the lane of one.
        """
        if now is None:
            now = self.clock()
        completed = 0
        for request in self.queue.pop_all():
            full = self.batcher.add(request, now)
            if full is not None:
                completed += self._execute(full)
        for group in self.batcher.due(now):
            completed += self._execute(group)
        return completed

    def drain(self, now: Optional[float] = None) -> int:
        """Serve everything pending, flushing under-filled lanes too.

        ``now`` threads through to :meth:`pump` -- previously drain
        always read the server clock here, the one spot a caller driving
        ``pump(now=...)`` by hand could not control, so a manual-clock
        test of deadline-straddling admissions during drain silently
        fell back to wall time.
        """
        completed = self.pump(now)  # empties the queue into the batcher
        for group in self.batcher.flush_all():
            completed += self._execute(group)
        return completed

    # ------------------------------------------------------------------
    # admission lifecycle (the cluster drain protocol's worker half)
    # ------------------------------------------------------------------
    @property
    def accepting(self) -> bool:
        return not self.queue.closed

    def stop_admitting(self) -> None:
        """Reject new requests with ERROR frames; pending work still runs."""
        self.queue.close()

    def resume_admitting(self) -> None:
        self.queue.reopen()

    @property
    def pending_count(self) -> int:
        """Requests admitted but not yet flushed (queue + open lanes)."""
        return len(self.queue) + self.batcher.pending_count

    def collect_outboxes(self) -> Dict[str, List[bytes]]:
        """Drain every session outbox: ``client_id -> encoded frames``."""
        out: Dict[str, List[bytes]] = {}
        for session in self.sessions.all_sessions():
            if session.outbox:
                out[session.client_id] = session.take_outbox()
        return out

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _wire_bytes(
        self, n: int, size: int, level_count: int, version: int
    ) -> int:
        """Ciphertext wire bytes at a session's negotiated version."""
        return ciphertext_wire_bytes(
            n,
            size,
            level_count,
            version=version,
            moduli=self.context.basis_at_level(level_count).moduli,
        )

    def _flush_plan(self, group: BatchGroup, requests):
        """The flush as ``(graph, inputs)``; request ``i``'s result is
        output ``r{i}``.

        A single-op or program lane gives every request its own input
        and the lane's step chain; a hoist lane hangs every member's
        rotation off the *one* shared input (identical ciphertext bytes
        by lane construction), which is what lets the executor fuse the
        whole sweep onto one key-switch decomposition.
        """
        graph = PlanGraph()
        inputs = {}

        def source(i: int) -> int:
            ct = inputs[f"r{i}"] = requests[i].ciphertext
            return graph.input(
                f"r{i}", level_count=ct.level_count, scale=ct.scale
            )

        if group.hoisted:
            shared = source(0)
            chains = [(shared, (("rotate", r.op_arg),)) for r in requests]
        else:
            steps = (
                self._programs[group.op_arg]
                if group.op == "program"
                else ((group.op, group.op_arg),)
            )
            chains = [(source(i), steps) for i in range(len(requests))]
        for i, (cur, steps) in enumerate(chains):
            for op, arg in steps:
                cur = _lower_step(graph, cur, op, arg)
            graph.output(cur, f"r{i}")
        if group.op == "program":
            # a registered chain is validated before any ciphertext work.
            # Bare ops are deliberately NOT: the checker's headroom rule
            # rejects shapes the evaluator serves correctly (a Set-A
            # square at level 2), so they keep relying on the
            # evaluator's own errors
            check_plan(graph, self.context)
        return graph, inputs

    def _execute(self, group: BatchGroup) -> int:
        """Run one flush, respond to every member, record accounting."""
        requests = group.requests
        # deadline re-check at flush time: a request admitted alive may
        # expire while its lane waits to fill; expired members get a
        # DEADLINE error and the rest of the flush executes without them
        flush_now = self.clock()
        expired = 0
        live = []
        for request in requests:
            if request.deadline and flush_now >= request.deadline:
                expired += 1
                self.report.expired_requests += 1
                self._respond_error(
                    request.session,
                    request.request_id,
                    "request deadline expired while batching",
                    code=framing.ERR_DEADLINE,
                )
            else:
                live.append(request)
        if not live:
            return expired
        requests = live
        if group.hoisted:
            # step-keyed lanes fail independently per step, and migrating
            # into a hoist lane must not weaken that: a member whose step
            # has no Galois key is answered with its own error up front,
            # never taking its servable lane-mates down with it
            keys = requests[0].key
            servable = []
            for request in requests:
                elt = self.context.galois_element_for_step(request.op_arg)
                if elt in keys:
                    servable.append(request)
                else:
                    self._respond_error(
                        request.session,
                        request.request_id,
                        f"op failed: no Galois key for element {elt}; "
                        "generate it first",
                    )
            if not servable:
                return len(requests) + expired
            rejected = len(requests) - len(servable)
            requests = servable
        else:
            rejected = 0
        batched = len(requests) > 1
        # the keys captured at admission -- identical for every lane
        # member by construction (the lane is keyed on their identity)
        key = requests[0].key
        if group.op == "program":
            self.executor.relin_key, self.executor.galois_keys = key
        else:
            relin = group.op == "square"
            self.executor.relin_key = key if relin else None
            self.executor.galois_keys = None if relin else key
        t0 = time.perf_counter()
        try:
            run = self.executor.run(*self._flush_plan(group, requests))
        except (ValueError, KeyError) as exc:
            # an infeasible op for this shape (rescale at the last
            # level, square on a size-3 ciphertext, missing Galois key
            # element, ...) fails the whole homogeneous flush
            for request in requests:
                self._respond_error(
                    request.session, request.request_id, f"op failed: {exc}"
                )
            return len(requests) + rejected + expired
        results = [run.outputs[f"r{i}"] for i in range(len(requests))]
        seconds = time.perf_counter() - t0
        now = self.clock()
        for request, result in zip(requests, results):
            request.session.outbox.append(
                framing.encode_frame(
                    framing.RESPONSE,
                    request.request_id,
                    request.session.client_id,
                    # hoist lanes span steps, so the response echoes each
                    # request's own op/op_arg rather than the lane's
                    op=request.op,
                    op_arg=request.op_arg,
                    # responses go out at the versions this client
                    # negotiated at HELLO time (v1 for legacy clients):
                    # ciphertext wire version for the payload, frame
                    # protocol version for the envelope
                    payload=serialize_ciphertext(
                        result, version=request.session.wire_version
                    ),
                    frame_version=request.session.frame_version,
                )
            )
            self.report.latencies.append(now - request.enqueued_at)
        # bill PCIe bytes at each request's negotiated wire version, so
        # the modeled transfer equals what actually crossed the wire
        if group.hoisted:
            # a hoist lane rotates ONE ciphertext by many steps: every
            # member carries identical payload bytes by lane
            # construction, and the execution above consumed
            # requests[0] once -- the shared input crosses PCIe once,
            # like its key-switch decomposition runs once.  Billing it
            # per member overstated upload traffic N-fold.
            r0 = requests[0]
            in_bytes = self._wire_bytes(
                r0.ciphertext.n,
                r0.ciphertext.size,
                r0.ciphertext.level_count,
                r0.session.wire_version,
            )
        else:
            in_bytes = sum(
                self._wire_bytes(
                    r.ciphertext.n,
                    r.ciphertext.size,
                    r.ciphertext.level_count,
                    r.session.wire_version,
                )
                for r in requests
            )
        out_bytes = sum(
            self._wire_bytes(c.n, c.size, c.level_count, r.session.wire_version)
            for r, c in zip(requests, results)
        )
        self.report.flushes.append(
            FlushRecord(
                group.op,
                len(requests),
                seconds,
                batched,
                ScheduledOp(run.scheduled_kind, in_bytes, out_bytes, seconds),
            )
        )
        return len(requests) + rejected + expired

    # ------------------------------------------------------------------
    # system-model integration
    # ------------------------------------------------------------------
    def schedule_report(
        self, pcie: PcieModel, message_bytes: int
    ) -> ScheduleReport:
        """Feed the measured flush stream through the Figure-7 pipeline.

        The serving layer thereby produces exactly the accounting a
        :class:`repro.plan.PlanRun` does: real compute seconds, modeled
        PCIe transfer and buffer back-pressure.
        """
        return HostScheduler(pcie, message_bytes).run_executed(self.report)
