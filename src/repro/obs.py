"""One append-only event log: what happened to each request, once.

HEAX accounts for its cost one module and one operation at a time
(Tables 7-8); the serving front door accounts one request at a time.
The router, each worker's server and the heartbeat supervisor append
an event where something happens -- never a counter -- and every report
is a fold over a log (``ServingReport.fold``, ``ClusterReport.fold``).
An event is its owner's clock time, a kind from :data:`KINDS` and a
key: the frame's ``(client_id, request_id)``, the worker id for the
supervisor's kinds, ``None`` for a flush.  Four parallel :mod:`array`
columns hold it (21 bytes an event), and a side table the few payloads
(a refusal's ERROR code, a ``FlushRecord``, a restart's delay), so a
forked worker's log crosses the pipe small, as it is.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, Iterator, List, NamedTuple, Tuple, Union

#: The one vocabulary.  A request's kinds first, keyed by its frame:
#: ``admitted`` (the router counted it submitted, or a worker queued it),
#: ``deduped`` (a retry answered from the router's cache), ``duplicate``
#: (a retry of a request still in flight), ``refused`` (answered at
#: admission), ``shed``, ``expired``, ``failed_over``, ``flushed`` (no
#: key; payload the ``FlushRecord``), ``answered`` and ``failed`` (the
#: executor raised on it alone); a server's ERROR answer carries its code
#: as payload.  Then the supervisor's probe, miss and transition kinds.
KINDS = (
    "admitted", "deduped", "duplicate", "refused", "shed", "expired",
    "failed_over", "flushed", "answered", "failed",
    "probe", "probe_error", "missed", "died", "failover_error", "quarantined",
    "restart_scheduled", "restarted", "recovered", "half_open", "rejoined",
)
_CODE = {kind: code for code, kind in enumerate(KINDS)}
_WORKER_KINDS = frozenset(range(_CODE["probe"], len(KINDS)))


class Event(NamedTuple):
    time: float
    kind: str
    key: Union[Tuple[str, int], str, None]
    payload: Any


class EventLog:
    """Append-only columns of events; iterate it for :class:`Event` s."""

    def __init__(self) -> None:
        self.times = array("d")
        self.kinds = array("B")
        #: index into ``names``: the client, or the supervised worker
        self.owners = array("I")
        self.request_ids = array("Q")
        self.names: List[str] = []
        self._name_index: Dict[str, int] = {}
        self.payloads: Dict[int, Any] = {}

    def emit(
        self, now: float, kind: str, owner: str = "", request_id: int = 0,
        payload: Any = None,
    ) -> None:
        index = self._name_index.get(owner)
        if index is None:
            index = self._name_index[owner] = len(self.names)
            self.names.append(owner)
        if payload is not None:
            self.payloads[len(self.kinds)] = payload
        self.times.append(now)
        self.kinds.append(_CODE[kind])
        self.owners.append(index)
        self.request_ids.append(request_id)

    def __iter__(self) -> Iterator[Event]:
        flushed = _CODE["flushed"]
        for i, (now, kind, owner, request_id) in enumerate(
            zip(self.times, self.kinds, self.owners, self.request_ids)
        ):
            name = self.names[owner]
            key = (
                None if kind == flushed
                else name if kind in _WORKER_KINDS
                else (name, request_id)
            )
            yield Event(now, KINDS[kind], key, self.payloads.get(i))

    def count(self, kind: str) -> int:
        return self.kinds.count(_CODE[kind])

    def payloads_of(self, kind: str) -> List[Any]:
        """The payloads of every ``kind`` event, oldest first."""
        code = _CODE[kind]
        return [p for i, p in self.payloads.items() if self.kinds[i] == code]

    def latencies(self) -> List[float]:
        """Admission-to-answer seconds of every answered request, in
        answer order (a request answered otherwise has none)."""
        admitted, answered = _CODE["admitted"], _CODE["answered"]
        since: Dict[Tuple[int, int], float] = {}
        out = []
        for now, kind, owner, request_id in zip(
            self.times, self.kinds, self.owners, self.request_ids
        ):
            if kind == admitted:
                since[owner, request_id] = now
            elif kind == answered and (owner, request_id) in since:
                out.append(now - since.pop((owner, request_id)))
        return out
