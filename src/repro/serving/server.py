"""The encrypted-compute server: multi-client serving over the wire.

This is the software realization of the paper's deployment picture
(Section 5.2 / Figure 7): many clients stream serialized ciphertexts at
a host, the host forms *homogeneous batches* out of the independent
requests, and each batch executes as one stacked pass -- the
ciphertext-level parallelism the accelerator amortizes its pipelines
across.  Concretely, one request travels:

    bytes -> FrameDecoder (or the frame a cluster router decoded)
          -> admission: ciphertext header + exact length, words stay packed
          -> RequestQueue (backpressure)
          -> DynamicBatcher (homogeneity lanes, size/deadline flush)
          -> the flush unpacks its distinct payloads into one lane block
          -> one PlanGraph per flush -> PlanExecutor
          -> serialized response frame in the client's outbox

The batcher decides *what* flushes together; the flush itself always
executes as a plan (:mod:`repro.plan`), the only road from this package
to the evaluator, and has one shape: every request's step chain (a bare
op is the chain of one, a program its registered chain) hangs off its
own input, except that requests carrying the same payload bytes share
one input node.  What then shares work is the executor's decision, not
this module's: N rotations of one input *are* the sweep it fuses onto
one key-switch decomposition, same-shape nodes pack into one stacked
batch call, and a singleton runs through its scalar lane.

Every flush is also recorded as a *measured* :class:`ScheduledOp` --
input/output PCIe bytes as the payload bytes that crossed the wire,
compute seconds from the real execution -- so served traffic drops into the
same discrete-event host-pipeline simulation
(:meth:`repro.system.scheduler.HostScheduler.run_executed`) that a
:class:`repro.plan.PlanRun` feeds: simulate the system, execute the
math.

A sharded cluster's worker *is* this class (:mod:`repro.serving.worker`
only transports calls to it): sessions open from key blobs through
:meth:`EncryptedComputeServer.open_session`, and the router reads this
module's :class:`ServingReport` back.
"""

from __future__ import annotations

import hashlib
import time  # perf_counter only: measures flush cost, never deadlines
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.ckks.context import CkksContext
from repro.ckks.serialization import (
    HEADER_BYTES,
    VERSION,
    admit_ciphertext,
    pack_ciphertexts,
    unpack_ciphertexts,
)
from repro.plan import PlanExecutor, PlanGraph, check_plan
from repro.serving import framing
from repro.serving.batcher import BatchGroup, DynamicBatcher
from repro.serving.framing import Frame
from repro.serving.clock import SYSTEM_CLOCK, Clock
from repro.serving.queue import BackpressureError, PendingRequest, RequestQueue
from repro.serving.session import ClientSession, SessionManager
from repro.system.scheduler import HostScheduler, ScheduledOp, ScheduleReport
from repro.system.pcie import PcieModel


class _StepOp(NamedTuple):
    """One servable step: its plan node on ``cur`` and the keys it consumes."""

    lower: Callable[[PlanGraph, int, int], int]
    relin: bool = False
    galois: bool = False


#: The one op table the serving layer keeps -- admission (which keys a
#: request captures), :meth:`EncryptedComputeServer.register_program`
#: (what a chain may contain) and the flush builder (lowering) all read
#: it; everything past the graph is the executor's.
STEP_OPS: Dict[str, _StepOp] = {
    "square": _StepOp(lambda g, cur, arg: g.square(cur), relin=True),
    "rotate": _StepOp(lambda g, cur, arg: g.rotate(cur, arg), galois=True),
    "conjugate": _StepOp(lambda g, cur, arg: g.conjugate(cur), galois=True),
    "rescale": _StepOp(lambda g, cur, arg: g.rescale(cur)),
    "double": _StepOp(lambda g, cur, arg: g.add(cur, cur)),
    "negate": _StepOp(lambda g, cur, arg: g.negate(cur)),
}

#: Request ops: the steps, plus ``program`` (op_arg = the id of a
#: registered chain of them, executed as one plan).
SUPPORTED_OPS = tuple(sorted((*STEP_OPS, "program")))


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

    def scheduled_ops(self) -> List[ScheduledOp]:
        """The measured op stream for ``HostScheduler.run_executed``."""
        return [f.scheduled for f in self.flushes]

    def snapshot(self) -> "ServingReport":
        """A copy later flushes do not grow (flush records are frozen):
        what a worker hands its router, whichever side of a pipe it is on."""
        return replace(
            self, flushes=list(self.flushes), latencies=list(self.latencies)
        )


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

    def open_session(
        self,
        client_id: str,
        key_id: str,
        relin_blob: Optional[bytes] = None,
        galois_blobs: Optional[Dict[int, bytes]] = None,
        wire_version: int = VERSION,
        frame_version: int = framing.FRAME_VERSION,
    ) -> ClientSession:
        """Open or refresh a session whose keys arrive in wire format --
        how a cluster router registers clients at its workers (see
        :meth:`SessionManager.open_from_wire`)."""
        return self.sessions.open_from_wire(
            client_id, key_id, relin_blob, galois_blobs, wire_version,
            frame_version, self._max_frame_bytes,
        )

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
        normalized = []
        for step in steps:
            op, arg = (step, 0) if isinstance(step, str) else step
            if op not in STEP_OPS:
                raise ValueError(
                    f"unknown program step {op!r}; supported: {', '.join(STEP_OPS)}"
                )
            self._check_step(op, int(arg))
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

    def _check_step(self, op: str, arg: int) -> None:
        """The one rule on a step's argument, for bare requests and
        registered chains alike: a rotation by a multiple of the slot
        count is the identity, which no Galois key exists for."""
        if op == "rotate" and arg % self.context.params.slot_count == 0:
            raise ValueError(
                "rotate step must be nonzero modulo the "
                f"{self.context.params.slot_count} slots; "
                f"{arg} is the identity rotation"
            )

    def _chain(self, op: str, op_arg: int) -> Tuple[Tuple[str, int], ...]:
        """A request's step chain: a bare op is the chain of one, a
        program its registered chain.  ``ValueError`` names what makes
        the request unservable; an admitted request's chain resolves to
        the same steps again at flush time."""
        if op == "program":
            if op_arg not in self._programs:
                raise ValueError(f"unknown program id {op_arg}; register it first")
            return self._programs[op_arg]
        if op not in STEP_OPS:
            raise ValueError(
                f"unknown op {op!r}; supported: {', '.join(SUPPORTED_OPS)}"
            )
        self._check_step(op, op_arg)
        return ((op, op_arg),)

    # ------------------------------------------------------------------
    # ingress
    # ------------------------------------------------------------------
    def receive(self, client_id: str, data: bytes) -> None:
        """Feed raw stream bytes from one client's connection.

        A corrupt stream raises :class:`framing.StreamProtocolError` by
        the one ingress rule (:meth:`framing.FrameDecoder.ingest`):
        what decoded ahead of the corruption is accepted first, and the
        session's next good frame is served.
        """
        session = self.sessions.get(client_id)
        session.decoder.ingest(data, partial(self._accept, session))

    def submit_frame(self, client_id: str, frame: Frame) -> None:
        """Admit one decoded frame -- the one way a cluster worker admits
        a request, handed over as it is in-process or pickled across a
        pipe.  Its bytes are not rebuilt, so the session's frame cap is
        held against :func:`framing.envelope_length`, and a frame over
        it is answered with a fatal ERROR like any other refusal."""
        session = self.sessions.get(client_id)
        cap = session.decoder.max_frame_bytes
        length = framing.envelope_length(frame)
        if length > cap:
            self._respond_error(
                session, frame.request_id, f"frame length {length} exceeds cap {cap}"
            )
            return
        self._accept(session, frame)

    def _respond_error(
        self,
        session: ClientSession,
        request_id: int,
        message: str,
        code: str = framing.ERR_FATAL,
    ) -> None:
        session.respond_error(request_id, message, code)
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
        refusal = session.misdirected(frame)
        if refusal is not None:
            self._respond_error(session, frame.request_id, refusal)
            return
        try:
            steps = self._chain(frame.op, frame.op_arg)
        except ValueError as exc:
            self._respond_error(session, frame.request_id, str(exc))
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
        # the key objects the request will execute under, captured NOW
        # for exactly the steps that consume them: the batch lane is
        # keyed on their identity and the flush installs them, so later
        # key swaps on the session cannot affect this request
        needs_relin = needs_galois = False
        for op, _ in steps:
            needs_relin |= STEP_OPS[op].relin
            needs_galois |= STEP_OPS[op].galois
        key = (
            session.relin_key if needs_relin else None,
            session.galois_keys if needs_galois else None,
        )
        for need, held, what in (
            (needs_relin, key[0], "a relinearization key"),
            (needs_galois, key[1], "Galois keys"),
        ):
            if need and held is None:
                self._respond_error(
                    session,
                    frame.request_id,
                    f"{frame.op} needs {what}; session has none",
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
            # header and exact length: a truncated or padded ciphertext
            # payload is refused here instead of decoding as zeros; the
            # words stay packed until the flush (:meth:`_unpack`)
            ct = admit_ciphertext(frame.payload, self.context)
        except ValueError as exc:
            self._respond_error(session, frame.request_id, f"bad payload: {exc}")
            return
        # rotations carry a payload digest so a flush can recognize the
        # same ciphertext rotated by many steps and hang the whole set
        # off one plan input (one key-switch decomposition); only
        # rotations -- hashing a payload is not free on keyless traffic
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
    def _flush_plan(self, requests, source):
        """The flush as ``(graph, inputs)``; request ``i``'s result is
        output ``r{i}``.

        Every request's step chain hangs off the input of request
        ``source[i]`` -- its own, unless an earlier lane-mate carries
        the same ciphertext bytes.  Rotations that share an input are
        the sweep the executor fuses onto one key-switch decomposition;
        same-step rotations of distinct inputs are nodes it packs into
        one stacked call.
        """
        graph = PlanGraph()
        inputs, node = {}, {}
        for i in sorted(set(source)):
            ct = inputs[f"r{i}"] = requests[i].ciphertext
            node[i] = graph.input(
                f"r{i}", level_count=ct.level_count, scale=ct.scale
            )
        for i, request in enumerate(requests):
            cur = node[source[i]]
            for op, arg in self._chain(request.op, request.op_arg):
                cur = STEP_OPS[op].lower(graph, cur, arg)
            graph.output(cur, f"r{i}")
        if requests[0].op == "program":
            # a registered chain is validated before any ciphertext work.
            # Bare ops are deliberately NOT: the checker's headroom rule
            # rejects shapes the evaluator serves correctly (a Set-A
            # square at level 2), so they keep relying on the
            # evaluator's own errors
            check_plan(graph, self.context)
        return graph, inputs

    @staticmethod
    def _sources(requests: List[PendingRequest]) -> List[int]:
        """For each request the member that feeds it: itself, unless an
        earlier lane-mate carries the same payload bytes (a digest is
        stamped on rotations)."""
        first: Dict[object, int] = {}
        return [
            first.setdefault(r.payload_digest or i, i)
            for i, r in enumerate(requests)
        ]

    def _unpack(self, requests: List[PendingRequest]):
        """Unpack the flush's distinct payloads, once, straight into the
        lane block its kernels run on; returns the servable members, their
        :meth:`_sources` and the payload bytes of their distinct inputs
        (each crosses PCIe once).  Corrupt residues -- the one wire check
        that needs the words -- answer that payload's members with the
        fatal error admission would have given, and the rest of the
        flush runs as if they had never been in it."""
        source = self._sources(requests)
        distinct = sorted(set(source))
        wires = [requests[i].ciphertext for i in distinct]
        decoded, errors = unpack_ciphertexts(wires, self.context)
        for k, ct in decoded.items():
            requests[distinct[k]].ciphertext = ct
        in_bytes = sum(len(wires[k].data) - HEADER_BYTES for k in decoded)
        if not errors:
            return requests, source, in_bytes
        failed = {distinct[k]: exc for k, exc in errors.items()}
        alive = []
        for request, i in zip(requests, source):
            if i in failed:
                self._respond_error(
                    request.session, request.request_id, f"bad payload: {failed[i]}"
                )
            else:
                alive.append(request)
        return alive, self._sources(alive), in_bytes

    def _execute(self, group: BatchGroup) -> int:
        """Run one flush, answer every member exactly once (response or
        error), record accounting; returns the member count."""
        answered = len(group.requests)
        # deadline re-check at flush time: a request admitted alive may
        # expire while its lane waits to fill; expired members get a
        # DEADLINE error and the rest of the flush executes without them
        flush_now = self.clock()
        requests = []
        for request in group.requests:
            if request.deadline and flush_now >= request.deadline:
                self.report.expired_requests += 1
                self._respond_error(
                    request.session,
                    request.request_id,
                    "request deadline expired while batching",
                    code=framing.ERR_DEADLINE,
                )
            else:
                requests.append(request)
        # the keys captured at admission -- identical for every lane
        # member by construction (the lane is keyed on their identity)
        relin_key, galois_keys = group.requests[0].key
        if group.op == "rotate":
            # a rotate lane spans steps: a member whose step has no
            # Galois key is answered with its own error up front, never
            # taking its servable lane-mates down with it
            servable = []
            for request in requests:
                elt = self.context.galois_element_for_step(request.op_arg)
                if elt in galois_keys:
                    servable.append(request)
                else:
                    self._respond_error(
                        request.session,
                        request.request_id,
                        f"op failed: no Galois key for element {elt}; "
                        "generate it first",
                    )
            requests = servable
        if not requests:
            return answered
        requests, source, in_bytes = self._unpack(requests)
        if not requests:
            return answered
        self.executor.relin_key = relin_key
        self.executor.galois_keys = galois_keys
        t0 = time.perf_counter()
        try:
            run = self.executor.run(*self._flush_plan(requests, source))
        except (ValueError, KeyError) as exc:
            # an infeasible op for this shape (rescale at the last
            # level, square on a size-3 ciphertext, a program step
            # without its Galois key, ...) fails the whole homogeneous
            # flush
            for request in requests:
                self._respond_error(
                    request.session, request.request_id, f"op failed: {exc}"
                )
            return answered
        seconds = time.perf_counter() - t0
        now = self.clock()
        out_bytes = 0
        # responses go out at the wire version each client negotiated at
        # HELLO time (v1 for legacy clients): one codec pass per version,
        # each payload framed as it is made
        for version in {r.session.wire_version for r in requests}:
            members = [i for i, r in enumerate(requests) if r.session.wire_version == version]
            outputs = [run.outputs[f"r{i}"] for i in members]
            for i, payload in zip(members, pack_ciphertexts(outputs, version)):
                request = requests[i]
                request.session.outbox.append(
                    framing.encode_frame(
                        framing.RESPONSE,
                        request.request_id,
                        request.session.client_id,
                        # a lane spans steps, so the response echoes each
                        # request's own op/op_arg rather than the lane's
                        op=request.op,
                        op_arg=request.op_arg,
                        payload=payload,
                        frame_version=request.session.frame_version,
                    )
                )
                self.report.latencies.append(now - request.enqueued_at)
                # billing reads the bytes that crossed the wire, each way
                out_bytes += len(payload) - HEADER_BYTES
        self.report.flushes.append(
            FlushRecord(
                # the label the executor earned, not a lane's name: a
                # rotate flush that ran at least one fused sweep
                "rotate_hoisted" if group.op == "rotate" and run.sweeps else group.op,
                len(requests),
                seconds,
                len(requests) > 1,
                ScheduledOp(run.scheduled_kind, in_bytes, out_bytes, seconds),
            )
        )
        return answered

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
