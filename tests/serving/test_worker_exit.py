"""A worker process ends when its router goes away.

The child closes its inherited copy of the router's end of the pipe
first thing, so the router closing its own end reaches the child: as
EOF on its next read, or as a broken pipe on its next reply.  Either
way the child returns from its loop and exits cleanly instead of
polling forever.  A graceful ``stop()`` over a pipe that is already
closed still ends the child.

``SIGSTOP`` holds the child still while the router sends and closes, so
the order of events is fixed, not raced.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.serving import ProcessWorkerHandle, WorkerSpec

pytestmark = pytest.mark.skipif(
    not hasattr(signal, "SIGSTOP"), reason="needs POSIX job-control signals"
)


@pytest.fixture()
def handle(serving_context):
    worker = ProcessWorkerHandle("w0", WorkerSpec(params=serving_context.params))
    yield worker
    worker.kill()


def _exit_code(worker) -> int:
    worker._proc.join(timeout=30.0)
    return worker._proc.exitcode


def test_the_child_sees_eof_when_the_router_closes_its_end(handle):
    handle._conn.close()
    assert _exit_code(handle) == 0


def test_the_child_leaves_when_its_reply_has_no_reader(handle):
    os.kill(handle._proc.pid, signal.SIGSTOP)
    handle._conn.send(("poll",))
    handle._conn.close()
    os.kill(handle._proc.pid, signal.SIGCONT)
    assert _exit_code(handle) == 0


def test_stop_over_a_closed_pipe_still_ends_the_child(handle):
    os.kill(handle._proc.pid, signal.SIGSTOP)
    handle._conn.close()
    handle.stop()  # the stop command cannot be sent: stop falls back to kill
    assert not handle.alive
    assert handle._proc.exitcode == -signal.SIGKILL
