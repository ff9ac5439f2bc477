"""Homogeneity-aware dynamic batching of independent client requests.

The throughput of a lane (``repro.ckks.batch``) comes from
executing N *same-shape* ciphertexts as one stacked kernel pass -- but
nothing guarantees that independent client requests arrive same-shaped
or adjacent.  The dynamic batcher closes that gap: every admitted
request is routed to a lane keyed by the :class:`CiphertextBatch`
homogeneity tuple -- ring degree ``n``, component count ``size``,
``level_count``, ``scale`` and NTT form -- extended with the requested
operation (one flush runs one op), its argument (a rotation's step
selects its Galois key), and, for keyed ops, the session's ``key_id``
(one key broadcasts across a stacked key switch, so only requests under
the same key material may share a flush).

A lane flushes when it reaches ``max_batch_size`` (a full pipeline) or
when its oldest request has waited ``max_delay_seconds`` (a latency
deadline) -- the classic dynamic-batching contract: batch as much as
the deadline allows, never more than the hardware width.

**Hoist lanes.**  Rotation requests additionally carry a digest of
their ciphertext payload.  When two pending rotations target the *same*
ciphertext under the same key material -- the wire-level signature of a
matvec-style workload, one input rotated by many steps -- step-keyed
batching is the wrong axis: those requests share a key-switch
decomposition, not a batch stack.  The batcher therefore migrates them
into a *hoist lane* keyed by ``(digest, key, shape)`` instead of
``(op_arg, shape)``; the server plans a hoist-lane flush as one shared
input feeding every requested rotation, which the plan executor fuses
into a single sweep (decompose once, apply every requested step).
Rotations of distinct ciphertexts are untouched and keep batching
across clients by step.

The key-material component of the lane key is the *identity of the key
object the flush will actually consume* -- captured on the request at
admission, not looked up from the session at flush time -- rather than
the declared ``key_id`` string: a flush executes the whole stacked key
switch under one key, so requests may only share a keyed lane when
they carry the very same key object.  A client that (mis)declares
another tenant's ``key_id`` while holding different keys lands in its
own lane, and a session that swaps its keys while requests are pending
cannot retroactively change what those requests execute under.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.serving.clock import SYSTEM_CLOCK, Clock
from repro.serving.queue import PendingRequest

#: op name -> key material the op consumes (None for keyless ops).
OP_KEY_KIND = {
    "square": "relin",     # multiply by self + relinearize
    "double": None,        # ct + ct
    "negate": None,
    "rescale": None,
    "rotate": "galois",    # op_arg = slot step
    "conjugate": "galois",
    # a registered multi-op program (op_arg = program id), executed as
    # one plan; consumes the session's (relin, galois) bundle so its
    # lane is keyed on the full key material the plan may touch
    "program": "bundle",
}

SUPPORTED_OPS = tuple(sorted(OP_KEY_KIND))

#: Lane name of hoisted same-ciphertext rotation groups.
HOISTED_ROTATE = "rotate_hoisted"

#: Homogeneity key:
#: (op, op_arg, key-material-ref-or-None, n, size, levels, scale, ntt)
GroupKey = Tuple[str, int, Optional[Tuple[str, int]], int, int, int, float, bool]


def homogeneity_key(request: PendingRequest) -> GroupKey:
    """The batch lane a request belongs to."""
    ct = request.ciphertext
    if OP_KEY_KIND[request.op]:
        # the id() ties the lane to the key *object* captured on the
        # request at admission -- the very object the flush consumes --
        # and the request keeps it alive, so the id is stable for the
        # lane's lifetime even if the session swaps keys meanwhile.
        # A program's (relin, galois) bundle is identified by its
        # members: sessions of one tenant share the key objects but
        # each wraps them in its own bundle tuple, and those requests
        # must still share a program lane.
        key = request.key
        ident = tuple(map(id, key)) if isinstance(key, tuple) else id(key)
        key_ref = (request.session.key_id, ident)
    else:
        key_ref = None
    return (
        request.op,
        request.op_arg,
        key_ref,
        ct.n,
        ct.size,
        ct.level_count,
        ct.scale,
        ct.is_ntt,
    )


def hoist_key(request: PendingRequest):
    """The hoist lane a rotate request belongs to: same ciphertext bytes,
    same key material, same shape -- any step."""
    ct = request.ciphertext
    return (
        HOISTED_ROTATE,
        request.payload_digest,
        (request.session.key_id, id(request.key)),
        ct.n,
        ct.size,
        ct.level_count,
        ct.scale,
        ct.is_ntt,
    )


@dataclass
class BatchGroup:
    """One flush unit: homogeneous requests sharing op and shape."""

    key: GroupKey
    requests: List[PendingRequest] = field(default_factory=list)
    opened_at: float = 0.0

    @property
    def op(self) -> str:
        return self.key[0]

    @property
    def op_arg(self) -> int:
        return self.key[1]

    @property
    def hoisted(self) -> bool:
        """True for a hoist lane (one ciphertext, many rotation steps)."""
        return self.key[0] == HOISTED_ROTATE

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
        #: pending digest-bearing rotations currently in *step-keyed*
        #: lanes, counted per hoist key -- admission consults this so
        #: the lane scan below only runs when a mate actually exists
        #: (the common distinct-ciphertext stream stays O(1) per add).
        self._hoistable: Dict[tuple, int] = {}

    @property
    def pending_count(self) -> int:
        return sum(len(g) for g in self._groups.values())

    @property
    def open_lanes(self) -> int:
        return len(self._groups)

    def _forget(self, group: BatchGroup) -> None:
        """Drop a flushed/removed step-keyed rotate lane's requests from
        the hoistable index."""
        if group.op != "rotate":
            return
        for r in group.requests:
            if not r.payload_digest:
                continue
            hkey = hoist_key(r)
            left = self._hoistable.get(hkey, 0) - 1
            if left > 0:
                self._hoistable[hkey] = left
            else:
                self._hoistable.pop(hkey, None)

    def _extract_hoist_mates(self, hkey) -> Tuple[List[PendingRequest], Optional[float]]:
        """Pull pending rotate requests matching a hoist key out of their
        step-keyed lanes (emptied lanes close); returns them with the
        earliest lane-open time so the migrated requests keep their
        original deadline."""
        mates: List[PendingRequest] = []
        earliest: Optional[float] = None
        for key in list(self._groups):
            group = self._groups[key]
            if group.op != "rotate":
                continue
            keep = [r for r in group.requests if hoist_key(r) != hkey]
            if len(keep) == len(group.requests):
                continue
            mates.extend(r for r in group.requests if hoist_key(r) == hkey)
            earliest = (
                group.opened_at
                if earliest is None
                else min(earliest, group.opened_at)
            )
            if keep:
                group.requests = keep
            else:
                del self._groups[key]
        if mates:
            left = self._hoistable.get(hkey, 0) - len(mates)
            if left > 0:
                self._hoistable[hkey] = left
            else:
                self._hoistable.pop(hkey, None)
        return mates, earliest

    def add(
        self, request: PendingRequest, now: Optional[float] = None
    ) -> Optional[BatchGroup]:
        """Route a request to its lane; return the lane if it just filled.

        A rotate request whose payload digest matches pending rotations
        (an existing hoist lane, or step-keyed lane-mates that migrate
        out) lands in a hoist lane instead of its step-keyed lane.
        ``now`` defaults to the batcher's injected clock.
        """
        if now is None:
            now = self.clock()
        key = homogeneity_key(request)
        hoistable_rotate = request.op == "rotate" and bool(
            request.payload_digest
        )
        if hoistable_rotate:
            hkey = hoist_key(request)
            group = self._groups.get(hkey)
            if group is None and self._hoistable.get(hkey):
                mates, earliest = self._extract_hoist_mates(hkey)
                if mates:
                    group = self._groups[hkey] = BatchGroup(
                        hkey,
                        requests=mates,
                        opened_at=earliest if earliest is not None else now,
                    )
            if group is not None:
                key = hkey
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = BatchGroup(key, opened_at=now)
        group.requests.append(request)
        if hoistable_rotate and key is not hkey:
            # sitting in a step-keyed lane: a future same-digest arrival
            # may migrate it into a hoist lane
            self._hoistable[hkey] = self._hoistable.get(hkey, 0) + 1
        if len(group) >= self.max_batch_size:
            del self._groups[key]
            self._forget(group)
            return group
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
        groups = [self._groups.pop(key) for key in expired]
        for group in groups:
            self._forget(group)
        return groups

    def flush_all(self) -> List[BatchGroup]:
        """Flush every lane regardless of fill or deadline (drain/shutdown)."""
        groups = list(self._groups.values())
        self._groups.clear()
        self._hoistable.clear()
        return groups
