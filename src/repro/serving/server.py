"""The encrypted-compute server: multi-client serving over the wire.

This is the software realization of the paper's deployment picture
(Section 5.2 / Figure 7): many clients stream serialized ciphertexts at
a host, the host forms *homogeneous batches* out of the independent
requests, and each batch executes as one stacked pass -- the
ciphertext-level parallelism the accelerator amortizes its pipelines
across.  Concretely, one request travels:

    bytes -> FrameDecoder (or the frame a cluster router decoded)
          -> admission: header + exact length (words stay packed), typed chain, keys
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
(:meth:`repro.system.scheduler.HostScheduler.run`) that a
:class:`repro.plan.PlanRun` feeds: simulate the system, execute the
math.  What happens to each request -- admitted, refused, expired,
answered, failed, and each flush with its members -- is one event of the
server's :class:`repro.obs.EventLog`; :class:`ServingReport` is a fold
over it.

A sharded cluster's worker *is* this class (:mod:`repro.serving.worker`
only transports calls to it): sessions open from key blobs through
:meth:`EncryptedComputeServer.open_session`, and the router folds the
worker's log into a :class:`ServingReport`.
"""

from __future__ import annotations

import hashlib
import numbers
import time  # perf_counter only: measures flush cost, never deadlines
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

from repro.ckks.context import CkksContext
from repro.ckks.serialization import (
    HEADER_BYTES,
    VERSION,
    admit_ciphertext,
    pack_ciphertexts,
    unpack_ciphertexts,
)
from repro.obs import EventLog
from repro.plan import PlanExecutor, PlanGraph, check_plan
from repro.serving import framing
from repro.serving.batcher import DynamicBatcher
from repro.serving.framing import Frame
from repro.serving.clock import SYSTEM_CLOCK, Clock
from repro.serving.queue import PendingRequest, RequestQueue
from repro.serving.session import ClientSession, SessionManager
from repro.system.scheduler import ScheduledOp


class _StepOp(NamedTuple):
    """One servable step: its plan node on ``cur`` and the keys it consumes."""

    lower: Callable[[PlanGraph, int, int], int]
    relin: bool = False
    element: Optional[Callable[[CkksContext, int], int]] = None


#: The one op table the serving layer keeps -- admission (which keys a
#: request captures), :meth:`EncryptedComputeServer.register_program`
#: (what a chain may contain) and the flush builder (lowering) all read
#: it; everything past the graph is the executor's.
STEP_OPS: Dict[str, _StepOp] = {
    "square": _StepOp(lambda g, cur, arg: g.square(cur), relin=True),
    "rotate": _StepOp(
        lambda g, cur, arg: g.rotate(cur, arg),
        element=lambda ctx, arg: ctx.galois_element_for_step(arg),
    ),
    "conjugate": _StepOp(
        lambda g, cur, arg: g.conjugate(cur),
        element=lambda ctx, arg: ctx.conjugation_element,
    ),
    "rescale": _StepOp(lambda g, cur, arg: g.rescale(cur)),
    "double": _StepOp(lambda g, cur, arg: g.add(cur, cur)),
    "negate": _StepOp(lambda g, cur, arg: g.negate(cur)),
}

#: Request ops: the steps, plus ``program`` (op_arg = the id of a
#: registered chain of them, executed as one plan).
SUPPORTED_OPS = tuple(sorted((*STEP_OPS, "program")))

#: The most chain typings admission remembers; the memo is cleared when
#: full, because a header's level and scale are the client's to choose.
TYPING_MEMO_ENTRIES = 1024


@dataclass(frozen=True)
class FlushRecord:
    """One executed flush: what ran, for whom, and what it cost."""

    #: the label the run earned, not a lane's name: ``"rotate_hoisted"``
    #: when a rotation sweep fused, else the op every member shares, else
    #: ``"mixed"``
    op: str
    seconds: float
    scheduled: ScheduledOp
    #: the ``(client_id, request_id)`` of every member it answered
    members: Tuple[Tuple[str, int], ...]

    @property
    def batch_size(self) -> int:
        return len(self.members)

    @property
    def batched(self) -> bool:  # False = singleton, run through the scalar lane
        return len(self.members) > 1


class ServingReport(NamedTuple):
    """What a server has executed: a fold over its event log, so it is a
    snapshot, whichever side of a pipe it is folded on."""

    flushes: Tuple[FlushRecord, ...]
    #: admission-to-response seconds per answered request
    latencies: Tuple[float, ...]

    @classmethod
    def fold(cls, log: EventLog) -> "ServingReport":
        return cls(tuple(log.payloads_of("flushed")), tuple(log.latencies()))

    @property
    def singleton_count(self) -> int:
        return sum(1 for f in self.flushes if not f.batched)

    @property
    def mean_batch_size(self) -> float:
        flushes = self.flushes
        return sum(f.batch_size for f in flushes) / len(flushes) if flushes else 0.0


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
        #: what happened to each request, once; :attr:`report` folds it
        self.log = EventLog()
        self._max_frame_bytes = max_frame_bytes
        #: program id -> normalized step tuple (see register_program)
        self._programs: Dict[int, tuple] = {}
        #: (steps, level_count, scale) -> check_plan's refusal, or "";
        #: a plain dict, so no reference cycle keeps a server alive
        self._typings: Dict[tuple, str] = {}

    @property
    def report(self) -> ServingReport:
        return ServingReport.fold(self.log)

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
        batch lanes instead of flushing each step separately.  Admission
        types each request's chain from its ciphertext header by the plan
        checker's rule, as it types a bare op's chain of one: an
        infeasible chain, one the noise model says would not decrypt or
        would keep under 1 bit of precision, or a rotation without its
        Galois key is refused before anything is queued.

        An id is bound once: pending requests were admitted (and
        key-checked) against the registered steps and look them up again
        at flush time, so re-registering an id with *different* steps
        raises ``ValueError``; identical steps are idempotent.
        """
        if isinstance(steps, str):
            raise ValueError(f"steps must be a sequence of steps, not the string {steps!r}")
        normalized = []
        for step in steps:
            op, arg = (step, 0) if isinstance(step, str) else step
            if op not in STEP_OPS:
                raise ValueError(
                    f"unknown program step {op!r}; supported: {', '.join(STEP_OPS)}"
                )
            normalized.append(self._check_step(op, arg))
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

    def _check_step(self, op: str, arg) -> Tuple[str, int]:
        """The one rule on a step's argument, for wire requests and
        registered chains alike; returns the step as ``(op, int arg)``.
        A rotation's step is an integer that is nonzero modulo the slot
        count (a multiple of it is the identity, which no Galois key
        exists for); every other step takes no argument (``0``)."""
        if op != "rotate":
            if arg != 0:
                raise ValueError(f"{op} takes no argument; got {arg!r}")
            return op, 0
        if not isinstance(arg, numbers.Integral):
            raise ValueError(f"rotate step must be an integer; got {arg!r}")
        if arg % self.context.params.slot_count == 0:
            raise ValueError(
                "rotate step must be nonzero modulo the "
                f"{self.context.params.slot_count} slots; "
                f"{arg} is the identity rotation"
            )
        return op, int(arg)

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
        return (self._check_step(op, op_arg),)

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
        pipe."""
        self._accept(self.sessions.get(client_id), frame)

    def _accept(self, session: ClientSession, frame: Frame) -> None:
        """The one admission site: queue the request, or refuse it with
        an ERROR frame; either way it is logged once."""
        now = self.clock()
        admitted = self._admit(session, frame, now)
        if isinstance(admitted, PendingRequest):
            self.queue.submit(admitted)
            self.log.emit(now, "admitted", session.client_id, frame.request_id)
            return
        message, code = admitted
        session.respond_error(frame.request_id, message, code)
        self.log.emit(now, "refused", session.client_id, frame.request_id, code)

    def _admit(
        self, session: ClientSession, frame: Frame, now: float
    ) -> Union[PendingRequest, Tuple[str, str]]:
        """The request ``frame`` carries, or why it is refused: a
        ``(message, ERROR code)`` pair."""
        # a frame handed over decoded (not rebuilt from bytes) is held to
        # the session's cap by the smallest envelope that carries it; one
        # the session's own decoder read is within it already
        cap = session.decoder.max_frame_bytes
        length = framing.envelope_length(frame)
        if length > cap:
            return f"frame length {length} exceeds cap {cap}", framing.ERR_FATAL
        refusal = session.misdirected(frame)
        if refusal is not None:
            return refusal, framing.ERR_FATAL
        try:
            steps = self._chain(frame.op, frame.op_arg)
        except ValueError as exc:
            return str(exc), framing.ERR_FATAL
        if frame.deadline and now >= frame.deadline:
            # dead on arrival: answer before spending a ciphertext
            # deserialization on work the client has already abandoned
            return "request deadline expired before admission", framing.ERR_DEADLINE
        # the key objects the request will execute under, captured NOW:
        # the session's whole pair for a chain that consumes any key, so
        # a tenant's squares, rotations and programs share one lane, and
        # none for a keyless chain, which batches across tenants.  The
        # lane is keyed on their identity and the flush installs them,
        # so later key swaps on the session cannot affect this request
        relin, galois = held = (session.relin_key, session.galois_keys)
        missing = ""
        if relin is None and any(STEP_OPS[op].relin for op, _ in steps):
            missing = "relinearization key"
        for op, arg in steps:
            element = STEP_OPS[op].element
            if not missing and element and (
                galois is None or element(self.context, arg) not in galois
            ):
                missing = f"Galois key for step {arg}" if op == "rotate" else "conjugation key"
        if missing:
            return f"{frame.op} refused: session has no {missing}", framing.ERR_FATAL
        keyed = any(STEP_OPS[op].relin or STEP_OPS[op].element for op, _ in steps)
        key = held if keyed else (None, None)
        # backpressure and drain refusals are transient by construction:
        # the request was never admitted, so resending it is always safe;
        # checked before the payload, so a refusal costs O(1)
        if self.queue.closed:
            return "worker draining; not admitting requests", framing.ERR_RETRYABLE
        if len(self.queue) >= self.queue.max_pending:
            return (
                f"request queue full ({self.queue.max_pending} pending); retry later",
                framing.ERR_RETRYABLE,
            )
        try:
            # header and exact length: a truncated or padded ciphertext
            # payload is refused here instead of decoding as zeros; the
            # words stay packed until the flush (:meth:`_unpack`)
            ct = admit_ciphertext(frame.payload, self.context)
            if not ct.is_ntt:  # what every step but a double or negate needs
                raise ValueError("ciphertext is not in NTT form, the one form served")
        except ValueError as exc:
            return f"bad payload: {exc}", framing.ERR_FATAL
        fault = self._typing_fault(steps, ct.level_count, ct.scale)
        if fault:
            return f"{frame.op} refused: {fault}", framing.ERR_FATAL
        # rotations carry a payload digest so a flush can recognize the
        # same ciphertext rotated by many steps and hang the whole set
        # off one plan input (one key-switch decomposition); only
        # rotations -- hashing a payload is not free on keyless traffic
        digest = (
            hashlib.sha256(frame.payload).digest()
            if frame.op == "rotate"
            else b""
        )
        return PendingRequest(
            session, frame.request_id, frame.op, frame.op_arg, ct, key, digest,
            deadline=frame.deadline,
        )

    def _typing_fault(self, steps, level_count: int, scale: float) -> str:
        """Why ``check_plan`` refuses ``steps`` on a fresh ciphertext at
        ``level_count`` and ``scale`` (``graph.input``'s typing), or ``""``.
        A node's type depends only on its own chain, so a flush -- its
        members' chains side by side -- is never re-checked."""
        key = (steps, level_count, scale)
        fault = self._typings.get(key)
        if fault is None:
            graph = PlanGraph()
            cur = graph.input("x", level_count=level_count, scale=scale)
            for op, arg in steps:
                cur = STEP_OPS[op].lower(graph, cur, arg)
            try:
                check_plan(graph, self.context)
                fault = ""
            except ValueError as exc:
                fault = str(exc)
            if len(self._typings) >= TYPING_MEMO_ENTRIES:
                self._typings.clear()
            self._typings[key] = fault
        return fault

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
                completed += self._execute(full.requests)
        for group in self.batcher.due(now):
            completed += self._execute(group.requests)
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
            completed += self._execute(group.requests)
        return completed

    # ------------------------------------------------------------------
    # admission lifecycle (the cluster drain protocol's worker half)
    # ------------------------------------------------------------------
    def stop_admitting(self) -> None:
        """Reject new requests with ERROR frames; pending work still runs."""
        self.queue.closed = True

    def resume_admitting(self) -> None:
        self.queue.closed = False

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
        same-shape nodes of distinct inputs are nodes it packs into one
        stacked call, whatever ops they came from.
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

    def _unpack(self, requests: List[PendingRequest], now: float):
        """Unpack the flush's distinct payloads, once, straight into the
        lane block its kernels run on, and leave each decoded element on
        the request that carried it; returns the servable members, each
        paired with the payload bytes of its input (each distinct input
        crosses PCIe once).  Corrupt residues -- the one wire check that
        needs the words -- refuse that payload's members with the fatal
        error admission would have given, and the rest of the flush runs
        as if they had never been in it."""
        source = self._sources(requests)
        sizes = [len(r.ciphertext.data) - HEADER_BYTES for r in requests]
        distinct = sorted(set(source))
        wires = [requests[i].ciphertext for i in distinct]
        decoded, errors = unpack_ciphertexts(wires, self.context)
        for k, ct in decoded.items():
            requests[distinct[k]].ciphertext = ct
        failed = {distinct[k]: exc for k, exc in errors.items()}
        members = []
        for request, i, size in zip(requests, source, sizes):
            if i in failed:
                self._answer_error(
                    request, now, "refused", f"bad payload: {failed[i]}", framing.ERR_FATAL
                )
            else:
                members.append((request, size))
        return members

    def _answer_error(
        self, request: PendingRequest, now: float, kind: str, message: str, code: str
    ) -> None:
        """Answer an admitted request with an ERROR frame, and log why."""
        request.session.respond_error(request.request_id, message, code)
        self.log.emit(now, kind, request.session.client_id, request.request_id, code)

    def _execute(self, requests: List[PendingRequest]) -> int:
        """Run one flush, answer every member exactly once (response or
        error); returns the member count."""
        # deadline re-check at flush time: a request admitted alive may
        # expire while its lane waits to fill; expired members get a
        # DEADLINE error and the rest of the flush executes without them
        flush_now = self.clock()
        alive = []
        for request in requests:
            if request.deadline and flush_now >= request.deadline:
                self._answer_error(
                    request, flush_now, "expired",
                    "request deadline expired while batching", framing.ERR_DEADLINE,
                )
            else:
                alive.append(request)
        if alive:
            self._run(self._unpack(alive, flush_now), flush_now)
        return len(requests)

    def _run(self, members: List[Tuple[PendingRequest, int]], flush_now: float) -> None:
        """Run unpacked ``(request, input bytes)`` members as one flush
        under the key pair they all captured at admission (the lane is
        keyed on its identity).

        The one isolation rule: admission typed every member's chain and
        held its Galois keys, so no known input makes a flush raise; if
        one does all the same, each member is re-run as a flush of one,
        and only a member that also fails alone is answered with an
        error -- a lane is its members served alone.
        """
        if not members:
            return
        requests = [request for request, _ in members]
        source = self._sources(requests)
        self.executor.relin_key, self.executor.galois_keys = requests[0].key
        t0 = time.perf_counter()  # lint: disable=R7 -- flush span; ROADMAP 2(b) makes it an event
        try:
            run = self.executor.run(*self._flush_plan(requests, source))
        except (ValueError, KeyError) as exc:
            if len(members) > 1:
                for (request, size), i in zip(members, source):
                    request.ciphertext = requests[i].ciphertext  # decoded input
                    self._run([(request, size)], flush_now)
            else:
                self._answer_error(
                    requests[0], flush_now, "failed", f"op failed: {exc}", framing.ERR_FATAL
                )
            return
        seconds = time.perf_counter() - t0  # lint: disable=R7 -- the flush span's end
        now = self.clock()
        out_bytes = 0
        # responses go out at the wire version each client negotiated at
        # HELLO time (v1 for legacy clients): one codec pass per version
        # and result shape (a lane spans ops, and a rescale drops a
        # level), each payload framed as it is made: its pieces (header
        # and a view of the lane's packed blob) are joined once, there
        passes: Dict[tuple, List[int]] = {}
        for i, request in enumerate(requests):
            ct = run.outputs[f"r{i}"]
            shape = (request.session.wire_version, ct.size, ct.level_count)
            passes.setdefault(shape, []).append(i)
        answered = []
        for (version, *_), batch in sorted(passes.items()):
            outputs = [run.outputs[f"r{i}"] for i in batch]
            for i, payload in zip(batch, pack_ciphertexts(outputs, version)):
                request = requests[i]
                client_id = request.session.client_id
                request.session.outbox.append(
                    framing.encode_frame(
                        framing.RESPONSE,
                        request.request_id,
                        client_id,
                        # a lane spans ops, so the response echoes each
                        # request's own op/op_arg
                        op=request.op,
                        op_arg=request.op_arg,
                        payload=payload,
                        frame_version=request.session.frame_version,
                    )
                )
                self.log.emit(now, "answered", client_id, request.request_id)
                answered.append((client_id, request.request_id))
                # billing reads the bytes that crossed the wire, each way
                out_bytes += sum(map(len, payload)) - HEADER_BYTES
        in_bytes = sum(members[i][1] for i in set(source))
        ops = {r.op for r in requests}
        record = FlushRecord(
            "rotate_hoisted" if run.sweeps else ops.pop() if len(ops) == 1 else "mixed",
            seconds,
            ScheduledOp(run.scheduled_kind, in_bytes, out_bytes, seconds),
            tuple(answered),
        )
        self.log.emit(now, "flushed", payload=record)
