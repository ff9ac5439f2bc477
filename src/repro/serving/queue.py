"""Bounded request queue -- the server's admission control.

The host in Figure 7 stalls its writer when the accelerator's staging
buffers are full ("we stop the writing process if the buffer has not
been read yet"); the serving layer needs the same property one level
up: a client that streams faster than the batcher drains must be told
to back off rather than grow server memory without bound.
:class:`RequestQueue` enforces a hard pending-request cap and raises
:class:`BackpressureError` at admission time; the server converts that
into an ERROR frame the client can react to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from repro.ckks.keys import GaloisKeySet, RelinKey
from repro.ckks.poly import Ciphertext
from repro.ckks.serialization import WireCiphertext
from repro.serving.session import ClientSession


class BackpressureError(RuntimeError):
    """The pending-request cap was hit; the client must retry later."""


class QueueClosedError(BackpressureError):
    """The queue stopped admitting (worker drain); route elsewhere."""


@dataclass
class PendingRequest:
    """One admitted request waiting to be batched.

    ``key`` is the ``(relin_key, galois_keys)`` pair the request will
    execute under, captured *at admission* and ``None`` in each slot its
    steps do not consume: the batch lane is keyed on these objects'
    identity and the flush installs these same objects, so a session
    swapping its keys while the request is pending can neither corrupt
    the request nor any lane-mate's result.
    """

    session: ClientSession
    request_id: int
    op: str
    #: per-request data like the ciphertext: a ``rotate``'s step, or the
    #: id of the registered program to run
    op_arg: int
    #: header and length checked, words still packed: the flush that
    #: runs the request unpacks them and leaves the decoded element here
    ciphertext: Union[WireCiphertext, Ciphertext]
    enqueued_at: float
    key: Tuple[Optional[RelinKey], Optional[GaloisKeySet]] = (None, None)
    #: digest of the ciphertext's wire payload (rotate requests only);
    #: requests of one flush carrying the same digest share one plan
    #: input, which is what lets the executor fuse *the same ciphertext*
    #: rotated by many steps onto one key-switch decomposition.
    payload_digest: bytes = b""
    #: client-stamped absolute deadline on the serving clock (0 = none);
    #: checked again at batch-flush time -- an admitted request whose
    #: deadline passed while it waited in a lane is answered with a
    #: DEADLINE error instead of executing late.
    deadline: float = 0.0


@dataclass
class RequestQueue:
    """FIFO of admitted requests with a hard depth bound.

    Admission statistics live with the session (per client) and the
    serving report (global); the queue itself only enforces the bound.
    """

    max_pending: int = 1024
    #: a closed queue admits nothing -- the drain protocol's "stop
    #: admitting" step; requests already queued still flow to the batcher
    closed: bool = False
    _items: List[PendingRequest] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self._items)

    def close(self) -> None:
        self.closed = True

    def reopen(self) -> None:
        self.closed = False

    def submit(self, request: PendingRequest) -> None:
        if self.closed:
            raise QueueClosedError("worker draining; not admitting requests")
        if len(self._items) >= self.max_pending:
            raise BackpressureError(
                f"request queue full ({self.max_pending} pending); retry later"
            )
        self._items.append(request)

    def pop_all(self) -> List[PendingRequest]:
        """Hand every pending request to the batcher, oldest first."""
        items, self._items = self._items, []
        return items
