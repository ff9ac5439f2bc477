"""The one conservation oracle of the serving tests, read from an event stream.

Every request a front door admits is answered exactly once.  Read per
request off a :class:`repro.obs.EventLog` -- a router's, or a worker
server's -- that is: every ``admitted`` key meets exactly one terminal
event before it is admitted again (a retry may reuse its id once
answered), no admission is left open, and a terminal with no admission
open is a refusal at the door.  The aggregate law of the fold,
``completed + shed + failed_over + expired == submitted``, follows.
"""

from __future__ import annotations

#: the kinds that answer a request
TERMINAL = frozenset(("refused", "shed", "expired", "failed_over", "answered", "failed"))


def conserved(log) -> bool:
    """Assert the per-request law on ``log`` (once nothing is in flight)."""
    open_keys = set()
    for event in log:
        if event.kind == "admitted":
            assert event.key not in open_keys, f"{event.key} admitted while open"
            open_keys.add(event.key)
        elif event.kind in TERMINAL:
            if event.key in open_keys:
                open_keys.remove(event.key)
            else:
                assert event.kind == "refused", (
                    f"{event.kind} at t={event.time} for {event.key}, which has "
                    "no admission open: a request answered twice"
                )
    assert not open_keys, f"admitted and never answered: {sorted(open_keys)}"
    return True


def stream(log) -> list:
    """The ``(time, kind, key)`` stream of a log, for replay comparisons."""
    return [(event.time, event.kind, event.key) for event in log]
