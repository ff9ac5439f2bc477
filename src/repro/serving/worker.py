"""One sharded-serving worker: a server, wherever its transport runs it.

The cluster front-door (:mod:`repro.serving.cluster`) shards client
sessions across a pool of workers; each worker *is* a
:class:`repro.serving.server.EncryptedComputeServer` -- the paper's one
host queue in front of one board (Section 5.2 / Figure 7) -- built by
:func:`build_server` over a private :class:`~repro.ckks.context.CkksContext`
(hence its own backend instance and NTT tables).  Nothing is shared
between workers, so a worker can honestly run in -- and die with -- a
separate OS process, and nothing sits between a transport and the
server: the one command table :data:`COMMANDS` names the server method
behind each handle method, and both transports apply it.

Two transports implement the same :class:`WorkerHandle` contract, and
on both a request is the :class:`~repro.serving.framing.Frame` the
router decoded and CRC-checked, admitted by
:meth:`~repro.serving.server.EncryptedComputeServer.submit_frame`:

* :class:`LocalWorkerHandle` holds the server in-process and fully
  deterministically (injectable clock, synchronous pump), which is what
  the fault-injection and differential test layers drive -- ``kill()``
  simulates a crash by discarding the server, exactly the state loss a
  dead process implies;
* :class:`ProcessWorkerHandle` spawns a real worker process looping over
  its server behind a :mod:`multiprocessing` pipe (the frame crosses it
  pickled, never re-encoded or re-checked) -- the deployment shape,
  used by the scale benchmark and the process smoke tests.

Key material travels to workers in *wire format* and is deserialized
once per ``key_id`` by the server's session table
(:meth:`repro.serving.session.SessionManager.open_from_wire`); what a
worker reports back is a :class:`~repro.serving.server.ServingReport`
folded from its server's event log -- in-process, or on the router's
side of the pipe, which the log crosses as it is -- measured
:class:`~repro.system.scheduler.ScheduledOp` stream included.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.ckks.context import CkksContext, CkksParameters
from repro.serving.clock import SYSTEM_CLOCK, Clock
from repro.serving.framing import Frame
from repro.serving.server import EncryptedComputeServer, ServingReport


class WorkerDeadError(RuntimeError):
    """An operation was attempted on a dead worker."""


@dataclass(frozen=True)
class WorkerSpec:
    """Everything needed to build a worker's serving stack anywhere.

    Plain picklable data, so a spec crosses a process boundary: a
    spawned worker process reconstructs its whole stack from it.
    ``backend=None`` follows the process-wide active backend.
    """

    params: CkksParameters
    backend: Optional[str] = None
    max_batch_size: int = 8
    max_delay_seconds: float = 2e-3
    max_pending: int = 1024
    max_frame_bytes: Optional[int] = None


def build_server(spec: WorkerSpec, clock: Clock = SYSTEM_CLOCK) -> EncryptedComputeServer:
    """A worker's whole serving stack, built from its spec wherever the
    transport runs it: a private context (its own backend instance and
    NTT tables) under one server."""
    return EncryptedComputeServer(
        CkksContext(spec.params, backend=spec.backend),
        max_batch_size=spec.max_batch_size,
        max_delay_seconds=spec.max_delay_seconds,
        max_pending=spec.max_pending,
        max_frame_bytes=spec.max_frame_bytes,
        clock=clock,
    )


#: The one command table: a :class:`WorkerHandle` method -> ``(run,
#: timeout)``, what the server does with the command's arguments
#: (``run(server, *args)``) and how many seconds the router waits for its
#: reply (``None``: the command sends none).  The in-process transport
#: runs the row on its server, the process transport sends the method's
#: name, and the worker process runs the same row.
COMMANDS: Dict[str, Tuple[Callable[..., Any], Optional[float]]] = {
    "register_session": (EncryptedComputeServer.open_session, None),
    # answered between pumps, like stats: never executes pending work
    "register_program": (EncryptedComputeServer.register_program, 30.0),
    "submit": (EncryptedComputeServer.submit_frame, None),
    # generous: the worker answers only between pumps, and one pump may
    # execute a whole backlog of due batch flushes
    "poll_responses": (EncryptedComputeServer.collect_outboxes, 60.0),
    "begin_drain": (EncryptedComputeServer.stop_admitting, None),
    "resume": (EncryptedComputeServer.resume_admitting, None),
    # generous: a drain flushes every open lane
    "drain": (EncryptedComputeServer.drain, 60.0),
    # the log crosses as its columns, and the handle folds it
    "stats": (attrgetter("log"), 30.0),
}


class WorkerHandle:
    """The router-side contract every worker transport implements.

    The eight methods of :data:`COMMANDS` are defined here, once, each
    the server method its row names; a transport supplies the one
    primitive ``_call(command, *args)`` that runs a row, and ``alive``,
    ``kill``, ``stop`` and, where its own differs, ``ping`` and ``pump``.

    ``register_session`` takes ``EncryptedComputeServer.open_session``'s
    arguments as they are (the key blobs ``None`` once the worker holds
    the ``key_id``'s keys); ``register_program`` returns the server's
    normalized chain or raises its error; ``submit`` hands one decoded,
    CRC-checked request to the worker's ``server.submit_frame`` (a
    pickled ``Frame`` across a pipe), where a refusal is an answered
    request, never a raise; ``stats`` folds the worker's event log into
    a snapshot later work does not grow.

    One request forwarded through ``submit`` produces exactly one
    response frame (RESPONSE or ERROR) through ``poll_responses`` --
    unless the worker dies first, in which case the *router* owns
    surfacing the loss (see ``ServingCluster.kill_worker``).
    """

    worker_id: str

    def register_session(self, *session) -> None:
        self._call("register_session", *session)

    def register_program(self, program_id: int, steps) -> tuple:
        return self._call("register_program", program_id, steps)

    def submit(self, client_id: str, frame: Frame) -> None:
        self._call("submit", client_id, frame)

    def poll_responses(self) -> Dict[str, List[bytes]]:
        return self._call("poll_responses")

    def begin_drain(self) -> None:
        self._call("begin_drain")

    def resume(self) -> None:
        self._call("resume")

    def drain(self, now: Optional[float] = None) -> int:
        """Flush everything; returns the number of requests answered."""
        return self._call("drain", now=now)

    def stats(self) -> ServingReport:
        return ServingReport.fold(self._call("stats"))

    def ping(self) -> bool:
        """Liveness probe for the heartbeat supervisor.

        The default is the transport's own ``alive`` signal; transports
        with a richer health check (a process that is alive but wedged)
        may override.  Must never raise: a probe that blows up is
        indistinguishable from a dead worker, so report ``False`` instead.
        """
        return self.alive

    def pump(self, now: Optional[float] = None) -> None:
        """Give an in-process worker a scheduler turn (no-op for a
        self-pumping process worker)."""


class LocalWorkerHandle(WorkerHandle):
    """Deterministic in-process worker (the test layer's transport).

    ``kill()`` models a crash faithfully: the server -- queue contents,
    open lanes, un-collected outboxes, session table, key cache -- is
    discarded, so everything a dead process would lose is lost here too.
    """

    def __init__(
        self,
        worker_id: str,
        spec: WorkerSpec,
        clock: Clock = SYSTEM_CLOCK,
    ):
        self.worker_id = worker_id
        self._server: Optional[EncryptedComputeServer] = build_server(spec, clock)

    @property
    def alive(self) -> bool:
        return self._server is not None

    @property
    def server(self) -> EncryptedComputeServer:
        if self._server is None:
            raise WorkerDeadError(f"worker {self.worker_id!r} is dead")
        return self._server

    def _call(self, command: str, *args, **kwargs):
        run, _ = COMMANDS[command]
        return run(self.server, *args, **kwargs)

    def pump(self, now: Optional[float] = None) -> None:
        self.server.pump(now)

    def kill(self) -> None:
        self._server = None

    stop = kill


# ----------------------------------------------------------------------
# real worker processes
# ----------------------------------------------------------------------

#: Idle poll timeout of the worker process loop: long enough not to spin,
#: short enough that a deadline flush is never late by much.
_IDLE_POLL_SECONDS = 0.02

#: The router's end of every worker pipe this process opened.  A forked
#: child inherits a copy of each -- its own and every sibling's forked
#: before it -- and closes them all, so that closing one reaches exactly
#: its own worker as EOF.
_ROUTER_ENDS: "weakref.WeakSet" = weakref.WeakSet()


def _worker_process_main(conn, spec: WorkerSpec) -> None:
    """Entry point of a worker process: run the command table's rows
    until the router's end of the pipe closes (``stop``, or the router
    going away).

    The loop interleaves command handling with serve-loop pumps so
    deadline flushes happen even when no command arrives.  The protocol
    is strictly request-reply: the worker only ever writes to the pipe
    while the router is blocked reading the reply to a command it just
    sent, and every reply is one ``(command, reply)`` message -- an
    exception the row raised is the reply, raised again by the router.
    (An earlier design pushed completed responses unsolicited; with both
    sides free to initiate multi-buffer sends, router and worker could
    each block mid-``send`` with nobody reading -- a textbook
    duplex-pipe deadlock under real traffic volumes.)  Completed
    responses therefore accumulate in the session outboxes until the
    router asks via ``poll_responses``.
    """
    for end in list(_ROUTER_ENDS):
        end.close()
    if spec.backend is not None:
        # pin the process-global backend too: serialization helpers
        # consult it, and this process serves exactly one context
        from repro.ckks.backend import set_backend

        set_backend(spec.backend)
    server = build_server(spec)
    try:
        while True:
            timeout = 0.0 if server.pending_count else _IDLE_POLL_SECONDS
            if conn.poll(timeout):
                try:
                    command, *args = conn.recv()
                except EOFError:  # the router closed its end: nothing left to serve
                    return
                run, reply_timeout = COMMANDS[command]
                if reply_timeout is None:
                    run(server, *args)
                else:
                    try:
                        reply = run(server, *args)
                    except Exception as exc:  # lint: disable=R5 -- the router raises it again
                        reply = exc
                    conn.send((command, reply))
            server.pump()
    except (BrokenPipeError, KeyboardInterrupt):
        return
    finally:
        conn.close()


class ProcessWorkerHandle(WorkerHandle):
    """A worker running in a real OS process behind a duplex pipe."""

    def __init__(
        self,
        worker_id: str,
        spec: WorkerSpec,
        clock: Clock = SYSTEM_CLOCK,
    ):
        import multiprocessing as mp

        self.worker_id = worker_id
        #: deadline source of the reply wait below; a test installs a
        #: ManualClock here to exercise poll/drain/stats timeouts
        #: without real 60-second waits
        self._clock = clock
        # fork (where available) inherits loaded modules -- startup in
        # milliseconds instead of a fresh interpreter + numpy import
        ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else "spawn")
        self._conn, child_conn = ctx.Pipe(duplex=True)
        _ROUTER_ENDS.add(self._conn)  # before the fork: the child closes it too
        self._proc = ctx.Process(
            target=_worker_process_main,
            args=(child_conn, spec),
            name=f"serving-worker-{worker_id}",
            daemon=True,
        )
        self._proc.start()
        child_conn.close()
        #: responses received and not yet handed out: a poll reply that
        #: arrived after its own wait had timed out is kept for the next
        #: poll_responses() call
        self._response_buffer: Dict[str, List[bytes]] = {}

    @property
    def alive(self) -> bool:
        return self._proc.is_alive()

    def _require_alive(self) -> None:
        if not self.alive:
            raise WorkerDeadError(f"worker {self.worker_id!r} process is dead")

    def _call(self, command: str, *args, now: Optional[float] = None):
        """Send ``command``'s name and arguments (``now`` is dropped: the
        child runs on its own clock).

        A poll is request-reply by design: the worker never writes to
        the pipe unless we are in :meth:`_request` waiting to read, so
        neither side can block mid-send against the other.  A worker
        that is dead, dies mid-poll or stays silent past the timeout
        just yields what was already buffered; the router owns
        surfacing the loss.
        """
        if command != "poll_responses":
            return self._request(command, *args)
        try:
            self._request(command)
        except (WorkerDeadError, TimeoutError, OSError):
            pass
        out, self._response_buffer = self._response_buffer, {}
        return out

    def _request(self, command: str, *args):
        """Send ``(command, *args)`` and, when its row has a timeout, wait
        for the reply; returns the reply, or raises it if it is an
        exception.

        The one reply wait of the transport, on the injected clock:
        :class:`WorkerDeadError` when the process is dead at the send,
        found dead between reads or closes the pipe, ``TimeoutError``
        when nothing tagged ``command`` arrives within the timeout.  A
        poll reply is merged into the response buffer whichever command
        it turns up under, so a late one loses no frame.
        """
        self._require_alive()
        self._conn.send((command, *args))
        _, timeout = COMMANDS[command]
        if timeout is None:
            return None
        deadline = self._clock() + timeout
        while self._clock() < deadline:
            if not self._conn.poll(0.05):
                self._require_alive()
                continue
            try:
                tag, reply = self._conn.recv()
            except EOFError:
                raise WorkerDeadError(
                    f"worker {self.worker_id!r} died answering {command}"
                ) from None
            if tag == command and isinstance(reply, Exception):
                raise reply
            if tag == "poll_responses":
                for client_id, frames in reply.items():
                    self._response_buffer.setdefault(client_id, []).extend(frames)
            if tag == command:
                return reply
        raise TimeoutError(f"worker {self.worker_id!r} {command} timed out")

    def kill(self) -> None:
        """Hard-kill the process: everything in flight there is lost."""
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join(timeout=5.0)
        self._response_buffer.clear()

    def stop(self) -> None:
        """Graceful shutdown (drains nothing: call drain() first): the
        child reads EOF once the router's end closes, and leaves."""
        if not self._conn.closed:
            self._conn.close()
            self._proc.join(timeout=10.0)
        self.kill()  # no-op unless the worker did not leave
