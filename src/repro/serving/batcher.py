"""Homogeneity-aware dynamic batching of independent client requests.

The throughput of a lane (``repro.ckks.batch``) comes from
executing N *same-shape* ciphertexts as one stacked kernel pass -- but
nothing guarantees that independent client requests arrive same-shaped
or adjacent.  The dynamic batcher closes that gap with one rule: every
admitted request is routed to the lane named by *its op, the key objects
its steps consume, and its ciphertext's shape* (the
:class:`CiphertextBatch` homogeneity tuple -- ring degree ``n``,
component count ``size``, ``level_count``, ``scale`` and NTT form).

A ``rotate``'s step is per-request data like its ciphertext, not lane
identity: rotations under one tenant's keys share one lane whatever
their steps and inputs, and what they share at execution -- one
key-switch decomposition for the rotations of one ciphertext, one
stacked call for same-step rotations of distinct ones -- is decided by
the plan executor from the flush's graph, not by a second kind of lane
here.  ``op_arg`` stays in the lane key only where it names a registered
program (a different chain is a different op).

A lane flushes when it reaches ``max_batch_size`` (a full pipeline) or
when its oldest request has waited ``max_delay_seconds`` (a latency
deadline) -- the classic dynamic-batching contract: batch as much as
the deadline allows, never more than the hardware width.  The delay
counts from the lane's *first* member.

**Policy note.**  Traffic this rule favours: a client-side matvec (one
ciphertext, many steps) flushes as one hoisted sweep, and rotations of
distinct ciphertexts by different steps flush together instead of each
step waiting out its own deadline.  Traffic it does not: every step
shares the lane's width, so a sweep that meets same-tenant rotations
inside one delay window may be split across two flushes by a lane that
fills mid-sweep (two decompositions instead of one), and a saturating
stream of distinct ciphertexts under k different steps packs stacked
calls ``max_batch_size / k`` wide where a lane per step packed them
full.  The answers are the same bits either way.

The key-material component of the lane key is the *identity of the key
objects the flush will actually consume* -- the ``(relin, galois)`` pair
captured on the request at admission, ``None`` where the request's steps
consume none -- beside the declared ``key_id``: a flush executes the
whole stacked key switch under one key, so requests may only share a
keyed lane when they carry the very same key objects.  A client that
(mis)declares another tenant's ``key_id`` while holding different keys
lands in its own lane, and a session that swaps its keys while requests
are pending cannot retroactively change what those requests execute
under.  A request that consumes no key at all batches across tenants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.serving.clock import SYSTEM_CLOCK, Clock
from repro.serving.queue import PendingRequest

#: (key_id, (id(relin), id(galois))) of a keyed request, None for a keyless one
KeyRef = Optional[Tuple[str, Tuple[int, int]]]
#: Homogeneity key: (op, program id or 0, key ref, n, size, levels, scale, ntt)
GroupKey = Tuple[str, int, KeyRef, int, int, int, float, bool]


def homogeneity_key(request: PendingRequest) -> GroupKey:
    """The batch lane a request belongs to."""
    ct = request.ciphertext
    relin, galois = request.key
    # the id()s tie the lane to the key *objects* captured on the request
    # at admission -- the very objects the flush consumes -- and the
    # request keeps them alive, so they are stable for the lane's
    # lifetime even if the session swaps keys meanwhile
    key_ref = (
        None
        if relin is None and galois is None
        else (request.session.key_id, (id(relin), id(galois)))
    )
    return (
        request.op,
        request.op_arg if request.op == "program" else 0,
        key_ref,
        ct.n,
        ct.size,
        ct.level_count,
        ct.scale,
        ct.is_ntt,
    )


@dataclass
class BatchGroup:
    """One flush unit: homogeneous requests sharing op, keys and shape."""

    key: GroupKey
    requests: List[PendingRequest] = field(default_factory=list)
    opened_at: float = 0.0

    @property
    def op(self) -> str:
        return self.key[0]

    def __len__(self) -> int:
        return len(self.requests)


class DynamicBatcher:
    """Groups pending requests into homogeneous flush units."""

    def __init__(
        self,
        max_batch_size: int = 8,
        max_delay_seconds: float = 2e-3,
        clock: Clock = SYSTEM_CLOCK,
    ):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_delay_seconds < 0:
            raise ValueError("max_delay_seconds must be >= 0")
        self.max_batch_size = max_batch_size
        self.max_delay_seconds = max_delay_seconds
        #: the one time source deadline decisions consult; the server
        #: (and the cluster scheduler above it) install their own clock
        #: here, so a manual-clock test controls every deadline flush --
        #: no call path falls back to wall time behind the test's back
        self.clock = clock
        self._groups: Dict[GroupKey, BatchGroup] = {}

    @property
    def pending_count(self) -> int:
        return sum(len(g) for g in self._groups.values())

    @property
    def open_lanes(self) -> int:
        return len(self._groups)

    def add(
        self, request: PendingRequest, now: Optional[float] = None
    ) -> Optional[BatchGroup]:
        """Route a request to its lane; return the lane if it just filled.

        ``now`` defaults to the batcher's injected clock.
        """
        if now is None:
            now = self.clock()
        key = homogeneity_key(request)
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = BatchGroup(key, opened_at=now)
        group.requests.append(request)
        if len(group) >= self.max_batch_size:
            return self._groups.pop(key)
        return None

    def due(self, now: Optional[float] = None) -> List[BatchGroup]:
        """Lanes due for a flush.

        A lane is due when its oldest request has aged past the batching
        delay -- or when any member's *request deadline* has arrived: a
        request whose client-stamped deadline passes while it batches
        must surface (the server answers it with a DEADLINE error) at
        the next pump, not whenever the lane's batching delay happens to
        elapse.
        """
        if now is None:
            now = self.clock()
        expired = [
            key
            for key, group in self._groups.items()
            if now - group.opened_at >= self.max_delay_seconds
            or any(r.deadline and now >= r.deadline for r in group.requests)
        ]
        return [self._groups.pop(key) for key in expired]

    def flush_all(self) -> List[BatchGroup]:
        """Flush every lane regardless of fill or deadline (drain/shutdown)."""
        groups = list(self._groups.values())
        self._groups.clear()
        return groups
