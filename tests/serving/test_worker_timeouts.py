"""Deterministic poll/drain/stats/failover timeout tests.

The ``ProcessWorkerHandle`` wait loops and the front door's
``_settle_client`` used to read ``time.monotonic()`` directly -- the
last wall-clock deadlines in the serving stack (the same class of gap
PR 6 closed for the batcher).  These tests install a
:class:`~repro.serving.clock.ManualClock` and drive each timeout to
expiry by *advancing time by hand*: a 60-second drain timeout fires in
microseconds of real time, and "the worker died while we were waiting"
is a scripted state, not a race.  None of these tests could exist
against the wall clock without minute-long sleeps.
"""

import asyncio

import pytest

from repro.serving.clock import ManualClock
from repro.serving.cluster import AsyncFrontDoor
from repro.serving.worker import ProcessWorkerHandle, WorkerDeadError


class _ScriptedProcess:
    """A stand-in worker process whose liveness follows a script."""

    def __init__(self, alive=True):
        self._alive = alive
        self._script = []

    def script_deaths(self, *alive_sequence):
        """Queue liveness answers; the last one repeats forever."""
        self._script = list(alive_sequence)

    def is_alive(self):
        if self._script:
            self._alive = self._script.pop(0)
        return self._alive


class _SilentConnection:
    """A pipe end that accepts commands and never answers.

    Each ``poll`` advances the manual clock by its timeout (modelling
    the real blocking wait) -- which is exactly what lets a test walk a
    60-second deadline to expiry instantly.
    """

    def __init__(self, clock, min_step=0.01):
        self.clock = clock
        self.min_step = min_step
        self.sent = []

    def send(self, msg):
        self.sent.append(msg)

    def poll(self, timeout=0.0):
        self.clock.advance(max(timeout, self.min_step))
        return False

    def recv(self):  # pragma: no cover - poll never returns True
        raise AssertionError("silent connection never has data")


def _stub_handle(clock, conn=None, alive=True):
    """A ProcessWorkerHandle wired to stubs instead of a spawned process."""
    handle = ProcessWorkerHandle.__new__(ProcessWorkerHandle)
    handle.worker_id = "w0"
    handle._clock = clock
    handle._conn = conn if conn is not None else _SilentConnection(clock)
    handle._proc = _ScriptedProcess(alive)
    handle._response_buffer = {}
    return handle


# ----------------------------------------------------------------------
# drain
# ----------------------------------------------------------------------
def test_drain_times_out_on_manual_clock():
    clock = ManualClock()
    handle = _stub_handle(clock)
    with pytest.raises(TimeoutError, match="drain timed out"):
        handle.drain()
    # the deadline expired on *injected* time, not a real 60s wait
    assert clock.now >= ProcessWorkerHandle.DRAIN_TIMEOUT_SECONDS


def test_drain_surfaces_worker_death_while_waiting():
    clock = ManualClock()
    handle = _stub_handle(clock)
    # alive for the _send liveness check, dead at the first wait check
    handle._proc.script_deaths(True, False)
    with pytest.raises(WorkerDeadError):
        handle.drain()
    # died long before the drain deadline: this is the failover path,
    # not a timeout
    assert clock.now < ProcessWorkerHandle.DRAIN_TIMEOUT_SECONDS


# ----------------------------------------------------------------------
# stats
# ----------------------------------------------------------------------
def test_stats_times_out_on_manual_clock():
    clock = ManualClock()
    handle = _stub_handle(clock)
    with pytest.raises(TimeoutError, match="stats timed out"):
        handle.stats()
    assert clock.now >= ProcessWorkerHandle.STATS_TIMEOUT_SECONDS


def test_stats_surfaces_worker_death_while_waiting():
    clock = ManualClock()
    handle = _stub_handle(clock)
    handle._proc.script_deaths(True, False)
    with pytest.raises(WorkerDeadError):
        handle.stats()


# ----------------------------------------------------------------------
# poll_responses
# ----------------------------------------------------------------------
def test_poll_responses_deadline_yields_buffered_frames():
    """A wedged worker must not hang the router's poll: the deadline
    expires on the injected clock and whatever was already buffered is
    returned (the router owns surfacing the loss)."""
    clock = ManualClock()
    handle = _stub_handle(clock)
    handle._response_buffer = {"client-a": [b"frame-1", b"frame-2"]}
    out = handle.poll_responses()
    assert out == {"client-a": [b"frame-1", b"frame-2"]}
    assert handle._response_buffer == {}
    assert clock.now >= ProcessWorkerHandle.POLL_TIMEOUT_SECONDS


def test_poll_responses_dead_worker_returns_buffer_without_waiting():
    clock = ManualClock()
    handle = _stub_handle(clock, alive=False)
    handle._response_buffer = {"client-a": [b"frame-1"]}
    assert handle.poll_responses() == {"client-a": [b"frame-1"]}
    # no deadline wait happened at all: the clock never advanced
    assert clock.now == 0.0


# ----------------------------------------------------------------------
# front-door settle window
# ----------------------------------------------------------------------
class _StallingCluster:
    """A cluster stub with one request that never completes: each pump
    advances manual time by one second, so the settle window expires
    after exactly ``timeout`` pumps."""

    def __init__(self):
        self.clock = ManualClock()
        self.pumps = 0

    def pump(self, now=None):
        self.pumps += 1
        self.clock.advance(1.0)
        return 0

    def client_inflight(self, client_id):
        return 1  # never settles

    def take_outbox(self, client_id):  # pragma: no cover - no writers
        return []


class _NullWriter:
    def write(self, data):  # pragma: no cover - nothing is written
        pass

    async def drain(self):
        pass


def test_settle_client_deadline_runs_on_cluster_clock():
    """Regression for the raw ``time.monotonic()`` settle loop: with the
    cluster's manual clock in charge, a connection whose request never
    answers settles out after ``timeout`` *injected* seconds -- the test
    completes instantly instead of blocking for ten real seconds."""
    cluster = _StallingCluster()
    front = AsyncFrontDoor(cluster, pump_interval=0.0)

    async def settle():
        await front._settle_client("client-a", _NullWriter(), timeout=10.0)

    asyncio.run(settle())
    # deadline = clock + 10s, one pump per loop turn advancing 1s each
    assert cluster.pumps == pytest.approx(10, abs=1)
    assert cluster.clock.now >= 10.0


class _ClosedConnection(_SilentConnection):
    """A pipe whose far end has closed: readable, and empty."""

    def poll(self, timeout=0.0):
        return True

    def recv(self):
        raise EOFError


def test_a_pipe_closed_mid_reply_is_a_dead_worker():
    handle = _stub_handle(ManualClock(), conn=_ClosedConnection(ManualClock()))
    with pytest.raises(WorkerDeadError, match="died answering stats"):
        handle.stats()

