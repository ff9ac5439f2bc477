"""One sharded-serving worker: a server, wherever its transport runs it.

The cluster front-door (:mod:`repro.serving.cluster`) shards client
sessions across a pool of workers; each worker *is* a
:class:`repro.serving.server.EncryptedComputeServer` -- the paper's one
host queue in front of one board (Section 5.2 / Figure 7) -- built by
:func:`build_server` over a private :class:`~repro.ckks.context.CkksContext`
(hence its own backend instance and NTT tables).  Nothing is shared
between workers, so a worker can honestly run in -- and die with -- a
separate OS process, and nothing sits between a transport and the
server: a handle method is the server method it names.

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

from dataclasses import dataclass
from typing import Dict, List, Optional

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


class WorkerHandle:
    """The router-side contract every worker transport implements.

    One request forwarded through :meth:`submit` produces exactly one
    response frame (RESPONSE or ERROR) through :meth:`poll_responses` --
    unless the worker dies first, in which case the *router* owns
    surfacing the loss (see ``ServingCluster.kill_worker``).
    """

    worker_id: str

    @property
    def alive(self) -> bool:
        raise NotImplementedError

    def ping(self) -> bool:
        """Liveness probe for the heartbeat supervisor.

        The default is the transport's own ``alive`` signal; transports
        with a richer health check (a process that is alive but wedged)
        may override.  Must never raise: a probe that blows up is
        indistinguishable from a dead worker, so report ``False`` instead.
        """
        return self.alive

    def register_session(
        self, client_id, key_id, relin_blob, galois_blobs, wire_version=1,
        frame_version=1,
    ) -> None:
        """Open or refresh a client's session at the worker -- the
        arguments of ``EncryptedComputeServer.open_session``, which both
        transports hand through as they are.  The blobs are ``None``
        once the worker holds the ``key_id``'s keys."""
        raise NotImplementedError

    def register_program(self, program_id: int, steps) -> tuple:
        """``EncryptedComputeServer.register_program`` at the worker, on
        both transports a call that returns the normalized chain or
        raises the server's own error."""
        raise NotImplementedError

    def submit(self, client_id: str, frame: Frame) -> None:
        """Hand one request the router decoded and CRC-checked to the
        worker's ``server.submit_frame`` -- a call in-process, a pickled
        ``Frame`` across a pipe (its payload then travels as ``bytes``).
        A refusal there (the worker's frame cap included) is an answered
        request, never a raise."""
        raise NotImplementedError

    def pump(self, now: Optional[float] = None) -> None:
        """Give an in-process worker a scheduler turn (no-op for a
        self-pumping process worker)."""

    def poll_responses(self) -> Dict[str, List[bytes]]:
        raise NotImplementedError

    def begin_drain(self) -> None:
        raise NotImplementedError

    def drain(self, now: Optional[float] = None) -> int:
        raise NotImplementedError

    def resume(self) -> None:
        raise NotImplementedError

    def kill(self) -> None:
        raise NotImplementedError

    def stop(self) -> None:
        raise NotImplementedError

    def stats(self) -> ServingReport:
        """Everything the worker's server has executed, folded from its
        event log: a snapshot later work does not grow."""
        raise NotImplementedError


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

    def register_session(self, *session) -> None:
        self.server.open_session(*session)

    def register_program(self, program_id: int, steps) -> tuple:
        return self.server.register_program(program_id, steps)

    def submit(self, client_id: str, frame: Frame) -> None:
        self.server.submit_frame(client_id, frame)

    def pump(self, now: Optional[float] = None) -> None:
        self.server.pump(now)

    def poll_responses(self) -> Dict[str, List[bytes]]:
        return self._server.collect_outboxes() if self.alive else {}

    def begin_drain(self) -> None:
        self.server.stop_admitting()

    def drain(self, now: Optional[float] = None) -> int:
        return self.server.drain(now)

    def resume(self) -> None:
        self.server.resume_admitting()

    def kill(self) -> None:
        self._server = None

    stop = kill

    def stats(self) -> ServingReport:
        return self.server.report


# ----------------------------------------------------------------------
# real worker processes
# ----------------------------------------------------------------------

#: Idle poll timeout of the worker process loop: long enough not to spin,
#: short enough that a deadline flush is never late by much.
_IDLE_POLL_SECONDS = 0.02


def _worker_process_main(conn, spec: WorkerSpec) -> None:
    """Entry point of a worker process: serve commands until told to stop.

    The loop interleaves command handling with serve-loop pumps so
    deadline flushes happen even when no command arrives.  The protocol
    is strictly request-reply: the worker only ever writes to the pipe
    while the router is blocked reading the reply to a command it just
    sent, and every reply is one ``(command, payload)`` message.  (An
    earlier design pushed completed responses unsolicited; with both
    sides free to initiate multi-buffer sends, router and worker could
    each block mid-``send`` with nobody reading -- a textbook
    duplex-pipe deadlock under real traffic volumes.)  Completed
    responses therefore accumulate in the session outboxes until the
    router asks via ``poll``.
    """
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
                    msg = conn.recv()
                except EOFError:  # router went away: nothing left to serve
                    return
                cmd = msg[0]
                if cmd == "register":
                    server.open_session(*msg[1:])
                elif cmd == "program":
                    try:
                        reply = server.register_program(*msg[1:])
                    except Exception as exc:  # lint: disable=R5 -- the router raises it again
                        reply = exc
                    conn.send(("program", reply))
                elif cmd == "frame":
                    server.submit_frame(msg[1], msg[2])
                elif cmd == "poll":
                    conn.send(("poll", server.collect_outboxes()))
                elif cmd == "stop_admitting":
                    server.stop_admitting()
                elif cmd == "resume":
                    server.resume_admitting()
                elif cmd == "drain":
                    # the flushed responses wait for the router's next poll
                    conn.send(("drain", server.drain()))
                    continue
                elif cmd == "stats":
                    # the log crosses as its columns; the router folds it
                    conn.send(("stats", server.log))
                elif cmd == "stop":
                    return
            server.pump()
    except (BrokenPipeError, KeyboardInterrupt):  # pragma: no cover
        return
    finally:
        conn.close()


class ProcessWorkerHandle(WorkerHandle):
    """A worker running in a real OS process behind a duplex pipe."""

    #: how long to wait for a poll reply: generous because the worker
    #: answers only between pumps, and one pump may execute a whole
    #: backlog of due batch flushes.
    POLL_TIMEOUT_SECONDS = 60.0
    #: how long to wait for a drain acknowledgement before declaring the
    #: worker wedged (generous: a drain flushes every open lane).
    DRAIN_TIMEOUT_SECONDS = 60.0
    #: how long to wait for a stats reply (shorter than drain: answering
    #: stats never executes pending work).
    STATS_TIMEOUT_SECONDS = 30.0

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

    def _send(self, msg) -> None:
        self._require_alive()
        self._conn.send(msg)

    def _request(self, command: str, timeout: float, *args):
        """Send ``(command, *args)`` and wait for its reply; returns the
        payload.

        The one reply wait of the transport, on the injected clock:
        :class:`WorkerDeadError` when the process is dead at the send,
        found dead between reads or closes the pipe, ``TimeoutError``
        when nothing tagged ``command`` arrives within ``timeout``.  A
        ``poll`` reply is merged into the response buffer whichever
        command it turns up under, so a late one loses no frame.
        """
        self._send((command, *args))
        deadline = self._clock() + timeout
        while self._clock() < deadline:
            if not self._conn.poll(0.05):
                self._require_alive()
                continue
            try:
                tag, payload = self._conn.recv()
            except EOFError:
                raise WorkerDeadError(
                    f"worker {self.worker_id!r} died answering {command}"
                ) from None
            if tag == "poll":
                for client_id, frames in payload.items():
                    self._response_buffer.setdefault(client_id, []).extend(frames)
            if tag == command:
                return payload
        raise TimeoutError(f"worker {self.worker_id!r} {command} timed out")

    def register_session(self, *session) -> None:
        self._send(("register", *session))

    def register_program(self, program_id: int, steps) -> tuple:
        # answered between pumps like stats, never executing pending work
        program = self._request("program", self.STATS_TIMEOUT_SECONDS, program_id, steps)
        if isinstance(program, Exception):
            raise program
        return program

    def submit(self, client_id: str, frame: Frame) -> None:
        self._send(("frame", client_id, frame))  # Frame.__reduce__: bytes

    def poll_responses(self) -> Dict[str, List[bytes]]:
        """Ask the worker for completed responses (one round-trip).

        Request-reply by design: the worker never writes to the pipe
        unless we are in :meth:`_request` waiting to read, so neither
        side can block mid-send against the other.  A worker that is
        dead, dies mid-poll or stays silent past the timeout just
        yields what was already buffered; the router owns surfacing
        the loss.
        """
        try:
            self._request("poll", self.POLL_TIMEOUT_SECONDS)
        except (WorkerDeadError, TimeoutError, OSError):
            pass
        out, self._response_buffer = self._response_buffer, {}
        return out

    def begin_drain(self) -> None:
        self._send(("stop_admitting",))

    def drain(self, now: Optional[float] = None) -> int:
        """Flush everything; blocks until the worker acknowledges."""
        return self._request("drain", self.DRAIN_TIMEOUT_SECONDS)

    def resume(self) -> None:
        self._send(("resume",))

    def kill(self) -> None:
        """Hard-kill the process: everything in flight there is lost."""
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join(timeout=5.0)
        self._response_buffer.clear()

    def stop(self) -> None:
        """Graceful shutdown (drains nothing: call drain() first)."""
        try:
            if self.alive:
                self._conn.send(("stop",))
                self._proc.join(timeout=10.0)
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
        self.kill()  # no-op unless the worker ignored the request

    def stats(self) -> ServingReport:
        return ServingReport.fold(self._request("stats", self.STATS_TIMEOUT_SECONDS))
