"""The five benchmark workloads: set-up, load generation, correctness.

Every workload is driven from one process on one thread through public
APIs only.  A *block* is the unit of measured work: one closed-loop
round (every client keeps its requests in flight until all are
answered), a stretch of the open-loop sweep schedule, or one plan
compile + run.  Blocks return what the driver observed; what the layers
did is read afterwards from the public stats objects (see
``bench.measure``).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.ckks.context import PAPER_PARAMETER_SETS, CkksContext, toy_parameters
from repro.ckks.decryptor import Decryptor
from repro.ckks.encoder import CkksEncoder
from repro.ckks.encryptor import Encryptor
from repro.ckks.keys import KeyGenerator
from repro.ckks.serialization import serialize_ciphertext, serialize_kswitch_key
from repro.plan import PlanExecutor, compile_plan, matvec_graph
from repro.serving import (
    LocalWorkerHandle,
    ProcessWorkerHandle,
    ServingCluster,
    SyntheticClient,
    SyntheticTenant,
    WorkerSpec,
    framing,
)

from bench.trace import CLOCK, Tracer, probe

TENANTS = 2
#: in-process workers run on the driver's thread, whatever their number
WORKERS = 2
#: distinct ciphertexts per client, cycled with fresh request ids (HE work
#: does not depend on the plaintext)
POOL = 4
SWEEP_STEPS = (1, 2, 3, 4, 5, 6)
#: open loop: sweeps due per second (about a third of saturation here)
SWEEP_RATE = 8.0
#: open loop: sweeps per traced / warm-up block (one second of schedule)
SWEEPS_PER_BLOCK = 8
MATVEC_DIM = 16
#: one response in this many is decrypted even when its bytes match an
#: already-verified response
CHECK_EVERY = 16
#: a block that has not completed after this long has lost a response
STALL_SECONDS = 60.0
#: |decoded - expected| allowed per slot (Set-A squares at scale 2^56 land
#: near 1e-5; the plan workload's own limit is tighter)
SERVING_TOLERANCE = 1e-3
PLAN_TOLERANCE = 1e-4


@dataclass(frozen=True)
class Workload:
    name: str
    #: one line for BENCHMARK.json: what it stresses and what it bypasses
    why: str
    kind: str  # "closed" | "open" | "plan"
    params: str  # key of PAPER_PARAMETER_SETS
    #: closed loop: the op of each request a client keeps in flight
    ops: Tuple[Tuple[str, int], ...] = ()
    wire_version: int = 1
    frame_version: int = 1
    clients_per_tenant: int = 4
    #: one forked worker instead of WORKERS in-process ones: with the
    #: driver that is nproc = 2 busy processes, and never more than that
    process_workers: bool = False
    #: ``WorkerSpec.max_delay_seconds``; the default everywhere but on the
    #: process row.  A child pumps while frames are still arriving, so at
    #: 2 ms what it batches together is a race between the driver's sends
    #: and its own flushes (87-93 % singletons, 97-144 req/s from run to
    #: run at one box speed).  A delay that never expires leaves only full
    #: lanes to flush, the same batches the in-process row makes, and the
    #: difference between the two rows is the transport.
    max_delay_seconds: float = 2e-3
    #: blocks discarded before measuring: a second or two, for lazy tables
    #: and the correctness baseline (every (client, slot, op) decrypted
    #: once).  The router's response cache (DEDUP_CACHE_SIZE = 128 per
    #: client) fills within the first seconds of the measured phase, whose
    #: timings are medians over its blocks, and most of them come later.
    warmup_blocks: int = 2
    #: blocks this box completes per second; sizes the traced run's fixed work
    blocks_per_second: float = 1.0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "serve_square_A",
            "Set-A square (MULT+RELIN) closed loop through the whole front "
            "door; kernels and BatchEvaluator dominate, codecs matter partly",
            "closed", "Set-A", ops=(("square", 0),) * 4,
            wire_version=2, frame_version=2,
            warmup_blocks=8, blocks_per_second=4.5,
        ),
        Workload(
            "serve_square_A_proc",
            "byte-identical trace to serve_square_A on one forked pipe worker "
            "that batches as in-process (driver + child = nproc); isolates "
            "transport cost, kernel gains move both rows",
            "closed", "Set-A", ops=(("square", 0),) * 4,
            wire_version=2, frame_version=2, process_workers=True,
            max_delay_seconds=1.0, warmup_blocks=8, blocks_per_second=4.5,
        ),
        Workload(
            "serve_light_A",
            "Set-A double/negate mixed in every round; kernels do almost "
            "nothing, so bit-packing, CRC framing and routing dominate",
            "closed", "Set-A",
            ops=(("double", 0), ("negate", 0), ("double", 0), ("negate", 0)),
            wire_version=2, frame_version=2,
            warmup_blocks=32, blocks_per_second=18.0,
        ),
        Workload(
            "serve_sweep_open_A",
            "Set-A open loop, one 6-step rotation sweep every 1/8 s on wire "
            "v1: hoist lanes, deadline flushes, latency is the slowest of 6",
            "open", "Set-A", clients_per_tenant=8,
            warmup_blocks=1, blocks_per_second=1.0,
        ),
        Workload(
            "plan_matvec16_B",
            "Set-B compile_plan + PlanExecutor.run of a 16x16 matvec, no "
            "serving: planner, evaluator and kernels only, codecs bypassed",
            "plan", "Set-B", warmup_blocks=2, blocks_per_second=2.4,
        ),
    )
}


@dataclass
class Block:
    """What the driver observed over one block."""

    #: first send (or first due time) to the last response, idle included
    wall: float = 0.0
    #: open loop: seconds slept waiting for the schedule or a deadline flush
    idle: float = 0.0
    requests: int = 0
    #: request frame bytes sent and response frame bytes received
    bytes_in: int = 0
    bytes_out: int = 0
    #: seconds, one per request (closed), sweep (open) or iteration (plan)
    latencies: List[float] = field(default_factory=list)
    #: open loop: send time minus due time, one per sweep
    late: List[float] = field(default_factory=list)
    #: open loop: a ``probe()`` reading per sweep, taken in the idle time
    #: after its last response (end-to-end runs only)
    probes: List[float] = field(default_factory=list)
    #: plan: seconds of the compile and run spans
    parts: Dict[str, float] = field(default_factory=dict)

    @property
    def busy(self) -> float:
        return self.wall - self.idle

    @property
    def wire_bytes(self) -> int:
        return self.bytes_in + self.bytes_out


def _stalled(t0: float) -> None:
    if CLOCK() - t0 > STALL_SECONDS:
        raise RuntimeError(
            f"block incomplete after {STALL_SECONDS:.0f} s: a response was lost"
        )


class ServingBench:
    """A two-worker ``ServingCluster`` with its tenants, clients and pool."""

    def __init__(self, workload: Workload, params, seed: int):
        self.wl = workload
        laps = [CLOCK()]
        self.ctx = CkksContext(params)
        laps.append(CLOCK())
        self.tenants = [
            SyntheticTenant(
                self.ctx, seed=seed + 101 * t, key_id=f"tenant-{t}",
                seed_expandable=workload.wire_version == 2,
            )
            for t in range(TENANTS)
        ]
        if workload.kind == "open":
            for tenant in self.tenants:
                tenant.galois_keys = tenant.keygen.galois_keys(SWEEP_STEPS)
        # interleaved by tenant, so consecutive arrivals alternate workers
        self.clients = [
            SyntheticClient(
                tenant, f"{tenant.key_id}-client-{c}",
                seed=seed + 13 * (c * TENANTS + t),
                wire_version=workload.wire_version,
                frame_version=workload.frame_version,
            )
            for c in range(workload.clients_per_tenant)
            for t, tenant in enumerate(self.tenants)
        ]
        self.tenant_of = {c.client_id: c.tenant for c in self.clients}
        laps.append(CLOCK())
        self.spec = WorkerSpec(
            params=params, max_delay_seconds=workload.max_delay_seconds
        )
        handle = ProcessWorkerHandle if workload.process_workers else LocalWorkerHandle
        self.cluster = ServingCluster(
            lambda wid: handle(wid, self.spec),
            worker_count=1 if workload.process_workers else WORKERS,
        )
        laps.append(CLOCK())
        for tenant in self.tenants:
            tenant.register_with(self.cluster, wire_version=workload.wire_version)
        for client in self.clients:
            client.connect_cluster(self.cluster)
        # a round trip: process workers answer only after they have
        # deserialized the keys, so the upload is complete when it returns
        self.cluster.worker_stats()
        laps.append(CLOCK())
        self.setup = dict(
            zip(
                ("context_s", "keygen_s", "worker_start_s", "key_upload_s"),
                (b - a for a, b in zip(laps, laps[1:])),
            )
        )
        self.attempted = 0
        self.failed = 0
        #: open loop: sweeps per traced / warm-up block
        self.block_sweeps = SWEEPS_PER_BLOCK
        self.pool: Dict[str, List[Tuple[np.ndarray, bytes]]] = {}
        self._next_id = 0
        self._sweeps_sent = 0
        #: request id -> (pool slot, op, op_arg)
        self._expect: Dict[int, Tuple[int, str, int]] = {}
        #: (client, slot, op, op_arg) -> payload of a decrypted-and-verified response
        self._verified: Dict[tuple, bytes] = {}
        #: (client, request id) -> SHA-256 of the response frame; filled only
        #: during the warm-up, which is the same work on every run
        self._digest_frames = False
        self._frame_hashes: Dict[Tuple[str, int], bytes] = {}
        #: the last block's frames, for the codec replay
        self.last_requests: List[bytes] = []
        self.last_responses: List[bytes] = []

    def close(self) -> None:
        self.cluster.stop()

    # ------------------------------------------------------------------
    def make_pool(self, rng: np.random.Generator) -> float:
        """Encrypt every client's ciphertext pool; returns the client-side
        milliseconds per ciphertext."""
        t0 = CLOCK()
        for client in self.clients:
            entries = []
            for _ in range(POOL):
                values = rng.uniform(-1.0, 1.0, 4)
                frame = client.request_bytes("double", values)
                entries.append((values, framing.decode_frame(frame).payload))
            self.pool[client.client_id] = entries
        return (CLOCK() - t0) / (POOL * len(self.clients)) * 1e3

    def key_upload_bytes(self) -> int:
        """Bytes ``register_tenant`` ships to a worker, re-serialized here."""
        total = 0
        for tenant in self.tenants:
            keys = [tenant.relin_key] + [
                tenant.galois_keys.key_for_element(e)
                for e in tenant.galois_keys.elements()
            ]
            total += sum(
                len(serialize_kswitch_key(k, version=self.wl.wire_version))
                for k in keys
            )
        return total

    def warm_up(self, blocks: int) -> None:
        idle = Tracer()
        self._digest_frames = True
        for _ in range(blocks):
            self.block(idle)
        self._digest_frames = False

    def response_digest(self) -> str:
        """One SHA-256 over the per-(client, request id) hashes of the
        warm-up's response frames: equal across transports and commits."""
        digest = hashlib.sha256()
        for key in sorted(self._frame_hashes):
            digest.update(self._frame_hashes[key])
        return digest.hexdigest()

    def conserved(self) -> bool:
        """The router's conservation law, with nothing shed or expired."""
        r = self.cluster.report
        return (
            r.completed + r.shed_requests + r.failed_over_requests
            + r.expired_requests == r.submitted
            and r.completed == r.submitted
        )

    # ------------------------------------------------------------------
    def _request(self, client_id: str, slot: int, op: str, op_arg: int):
        request_id = self._next_id
        self._next_id += 1
        self._expect[request_id] = (slot, op, op_arg)
        data = framing.encode_frame(
            framing.REQUEST, request_id, client_id, op=op, op_arg=op_arg,
            payload=self.pool[client_id][slot][1],
            frame_version=self.wl.frame_version,
        )
        return client_id, request_id, data

    def _take(self, tracer: Tracer, got: list) -> None:
        for client in self.clients:
            with tracer.span("take_outbox"):
                blobs = self.cluster.take_outbox(client.client_id)
            if blobs:
                at = CLOCK()
                got.extend((client.client_id, blob, at) for blob in blobs)

    def _expected(self, values, op: str, op_arg: int) -> np.ndarray:
        full = np.zeros(self.ctx.params.slot_count)
        full[: len(values)] = values
        if op == "square":
            return full * full
        if op == "double":
            return 2.0 * full
        if op == "negate":
            return -full
        return np.roll(full, -op_arg)  # rotate wraps the whole slot vector

    def _check(self, client_id: str, blob: bytes) -> None:
        """Count one response; a wrong or missing answer is a failure.

        Ops are pure functions of the ciphertext, so every response to
        the same (client, pool slot, op) must carry the same payload
        bytes: the first is decrypted against the plaintext model, the
        rest compare bytes, and one in CHECK_EVERY is decrypted anyway.
        """
        frame = framing.decode_frame(blob)
        slot, op, op_arg = self._expect.pop(frame.request_id)
        if self._digest_frames:
            self._frame_hashes[client_id, frame.request_id] = hashlib.sha256(
                blob
            ).digest()
        if frame.kind != framing.RESPONSE:
            self.failed += 1
            return
        key = (client_id, slot, op, op_arg)
        verified = self._verified.get(key)
        ok = verified is None or frame.payload == verified
        if verified is None or frame.request_id % CHECK_EVERY == 0:
            _, decoded = self.tenant_of[client_id].decrypt_response(blob)
            expected = self._expected(self.pool[client_id][slot][0], op, op_arg)
            ok = ok and bool(
                np.abs(np.asarray(decoded) - expected).max() < SERVING_TOLERANCE
            )
            if ok:
                self._verified[key] = frame.payload
        if not ok:
            self.failed += 1

    def _settle(self, block: Block, sends: list, got: list) -> None:
        """Post-block bookkeeping, outside every timer."""
        block.requests = len(sends)
        block.bytes_in = sum(len(d) for _, _, d in sends)
        block.bytes_out = sum(len(b) for _, b, _ in got)
        self.attempted += len(sends)
        self.last_requests = [d for _, _, d in sends]
        self.last_responses = [b for _, b, _ in got]
        for client_id, blob, _ in got:
            self._check(client_id, blob)
        self.failed += len(sends) - len(got)

    # ------------------------------------------------------------------
    def block(
        self, tracer: Tracer, sweeps: Optional[int] = None, probed: bool = False
    ) -> Block:
        if self.wl.kind == "open":
            return self._open_block(tracer, sweeps or self.block_sweeps, probed)
        return self._closed_round(tracer)

    def _closed_round(self, tracer: Tracer) -> Block:
        sends = [
            self._request(client.client_id, j % POOL, op, op_arg)
            for j, (op, op_arg) in enumerate(self.wl.ops)
            for client in self.clients
        ]
        cluster = self.cluster
        sent_at: Dict[int, float] = {}
        got: list = []
        t0 = CLOCK()
        for client_id, request_id, data in sends:
            sent_at[request_id] = CLOCK()
            with tracer.span("receive"):
                cluster.receive(client_id, data)
        while len(got) < len(sends):
            with tracer.span("pump"):
                cluster.pump()
            self._take(tracer, got)
            _stalled(t0)
        block = Block(wall=CLOCK() - t0)
        block.latencies = [
            at - sent_at[framing.peek_frame_ids(blob)[1]] for _, blob, at in got
        ]
        self._settle(block, sends, got)
        return block

    def _sweep(self) -> list:
        """The next sweep's six frames: one payload, one rotate per step."""
        k = self._sweeps_sent
        self._sweeps_sent += 1
        client = self.clients[k % len(self.clients)]
        slot = (k // len(self.clients)) % POOL
        return [
            self._request(client.client_id, slot, "rotate", step)
            for step in SWEEP_STEPS
        ]

    def _open_block(self, tracer: Tracer, sweeps: int, probed: bool) -> Block:
        cluster = self.cluster
        period = 1.0 / SWEEP_RATE
        block = Block()
        sends: list = []
        got: list = []
        sweep_of: Dict[int, int] = {}
        missing: Dict[int, int] = {}
        sent = 0
        frames = self._sweep()
        t0 = CLOCK()
        last = t0
        while sent < sweeps or missing:
            now = CLOCK()
            due = t0 + sent * period
            if sent < sweeps and now >= due:
                block.late.append(now - due)
                for client_id, request_id, data in frames:
                    sweep_of[request_id] = sent
                    with tracer.span("receive"):
                        cluster.receive(client_id, data)
                missing[sent] = len(frames)
                sends.extend(frames)
                sent += 1
                # framed while idle, so the next sweep leaves on time
                frames = self._sweep() if sent < sweeps else []
                continue
            pause = min(due - now, 1e-3) if sent < sweeps else 1e-3
            if missing:
                seen = len(got)
                with tracer.span("pump"):
                    cluster.pump()
                self._take(tracer, got)
                for _, blob, at in got[seen:]:
                    s = sweep_of[framing.peek_frame_ids(blob)[1]]
                    missing[s] -= 1
                    if not missing[s]:
                        del missing[s]
                        # from the instant the sweep was due to its last part
                        block.latencies.append(at - (t0 + s * period))
                        last = at
                        if probed:
                            # a millisecond or two, while the next sweep
                            # is normally due tens of milliseconds from now
                            t = CLOCK()
                            block.probes.append(probe())
                            block.idle += CLOCK() - t
                if len(got) > seen:
                    continue
                # nothing completed: a lane is waiting out its batching
                # delay; do not spin the scheduler while it does
                pause = 2e-4
            if pause > 0:
                t = CLOCK()
                time.sleep(pause)
                block.idle += CLOCK() - t
            _stalled(t0)
        block.wall = last - t0
        self._settle(block, sends, got)
        return block


class PlanBench:
    """One encrypted vector, one 16x16 matrix, one ``PlanExecutor``."""

    def __init__(self, workload: Workload, params, seed: int):
        self.wl = workload
        laps = [CLOCK()]
        self.ctx = CkksContext(params)
        laps.append(CLOCK())
        keygen = KeyGenerator(self.ctx, seed=seed)
        self.public_key = keygen.public_key()
        relin = keygen.relin_key()
        galois = keygen.galois_keys(range(1, MATVEC_DIM))
        self.decryptor = Decryptor(self.ctx, keygen.secret_key)
        self.encoder = CkksEncoder(self.ctx)
        laps.append(CLOCK())
        self.executor = PlanExecutor(self.ctx, relin_key=relin, galois_keys=galois)
        laps.append(CLOCK())
        self.setup = dict(
            zip(
                ("context_s", "keygen_s", "worker_start_s"),
                (b - a for a, b in zip(laps, laps[1:])),
            ),
            key_upload_s=0.0,
        )
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self._verified: Optional[bytes] = None
        self.last_run = None

    def close(self) -> None:
        pass

    def warm_up(self, blocks: int) -> None:
        idle = Tracer()
        for _ in range(blocks):
            self.block(idle)

    def conserved(self) -> bool:
        return True  # nothing is routed, so nothing can be shed or lost

    def response_digest(self) -> str:
        """SHA-256 of the (bit-identical every iteration) output ciphertext."""
        return hashlib.sha256(self._verified or b"").hexdigest()

    def make_pool(self, rng: np.random.Generator) -> float:
        t0 = CLOCK()
        self.matrix = rng.uniform(0.1, 1.0, (MATVEC_DIM, MATVEC_DIM)) / 4.0
        x = rng.uniform(-1.0, 1.0, MATVEC_DIM)
        self.expected = self.matrix @ x
        # the diagonal method reads a wrapped window: replicate the input
        packed = np.zeros(self.encoder.slot_count)
        packed[: 2 * MATVEC_DIM] = np.resize(x, 2 * MATVEC_DIM)
        encryptor = Encryptor(self.ctx, self.public_key, seed=self.seed + 1)
        self.input = encryptor.encrypt(self.encoder.encode(packed))
        self._input_bytes = len(serialize_ciphertext(self.input))
        return (CLOCK() - t0) * 1e3

    def block(self, tracer: Tracer) -> Block:
        t0 = CLOCK()
        with tracer.span("compile"):
            plan = compile_plan(matvec_graph(self.matrix)[0], self.ctx)
        t1 = CLOCK()
        with tracer.span("run"):
            run = self.executor.run(plan, {"x": self.input}, optimize=True)
        t2 = CLOCK()
        self.last_run = run
        blob = serialize_ciphertext(run.outputs["y"])
        block = Block(
            wall=t2 - t0, requests=1, latencies=[t2 - t0],
            # nothing crosses a wire: the bytes a caller would ship in and out
            bytes_in=self._input_bytes, bytes_out=len(blob),
            parts={"compile": t1 - t0, "run": t2 - t1},
        )
        ok = self._verified is None or blob == self._verified
        if self._verified is None or self.attempted % CHECK_EVERY == 0:
            decoded = self.encoder.decode(self.decryptor.decrypt(run.outputs["y"]))
            got = np.asarray(decoded)[:MATVEC_DIM].real
            ok = ok and bool(np.abs(got - self.expected).max() < PLAN_TOLERANCE)
            if ok:
                self._verified = blob
        self.attempted += 1
        self.failed += not ok
        return block


def build(workload: Workload, seed: int, smoke: bool = False):
    """One complete set-up of a workload's stack.

    ``smoke`` swaps the paper set for the n = 64 toy ring (the self-test).
    """
    params = toy_parameters(n=64) if smoke else PAPER_PARAMETER_SETS[workload.params]
    bench = (PlanBench if workload.kind == "plan" else ServingBench)(
        workload, params, seed
    )
    if smoke:
        bench.block_sweeps = 1
    return bench
