"""Admission fuzz: CRC-valid requests whose fields mean something wrong.

Byte damage is the CRC's business and is tested elsewhere (every flip,
every truncation).  The boundary bugs this repository has had were all
well-formed input with a wrong meaning: a NaN scale, a fractional
rotation step, a level count the context does not have.  Admission is
the only validator, so this suite starts from valid v1 and v2
ciphertext requests, changes one semantic field at a time (ring size
``n``, component count, ``level_count``, scale, the layout -- the wire
version byte and the NTT-form flag --, op and ``op_arg``), re-frames the
result with a valid CRC and submits it to the bare server, to a
one-worker ``LocalWorkerHandle`` cluster and to a one-worker
``ProcessWorkerHandle`` cluster.  Chain faults ride along: a rescale at
the last level, a program that squares twice, a header scale with under
1 bit of precision and a rotation step without its Galois key.

The oracle, per input: exactly one answer (a RESPONSE or a typed ERROR
frame), byte-identical on all three transports, and the per-request
conservation law on the bare server's and each router's event log
(``conservation.conserved``).  Nothing admitted fails later for a
reason admission could have seen: no answer is a flush's ``op
failed``, and no flush calls the plan checker.  A program step is validated at registration: a mutated
step raises ``ValueError`` on the bare server and on every worker alike.
"""

from __future__ import annotations

import itertools
import math
import struct
import sys

import conservation
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.ckks.evaluator import Evaluator
from repro.ckks.serialization import HEADER_BYTES, serialize_ciphertext
from repro.serving import framing, server as server_module
from repro.serving.cluster import ServingCluster
from repro.serving.server import EncryptedComputeServer
from repro.serving.traffic import SyntheticClient
from repro.serving.worker import LocalWorkerHandle, ProcessWorkerHandle, WorkerSpec

#: the ciphertext header: magic, version, kind, n, components, level
#: count (top bit: NTT form), scale
_HEADER = struct.Struct("<4sBBIHHd")
_NTT_FLAG = 0x8000

#: field -> values to write into it; every other field stays valid
MUTATIONS = {
    "n": st.sampled_from([0, 1, 32, 63, 65, 128, 2**31]),
    "components": st.sampled_from([0, 1, 3, 4, 0xFFFF]),
    "level_count": st.sampled_from([0, 1, 2, 4, 5, 0x7FFF]),
    "scale": st.sampled_from(
        [math.nan, -math.nan, 0.0, -0.0, math.inf, -math.inf, -(2.0**28), 5e-324, 2.0]
    ),
    "version": st.integers(0, 255),
    "ntt_flag": st.just(None),
    "op": st.sampled_from(
        ["", "bogus", "program", "rotate", "rescale", "square", "Square", "x" * 255]
    ),
    "op_arg": st.sampled_from([-(2**31), -1, 0, 1, 7, 32, 64, 2**31 - 1]),
}

#: programs every transport's server registers: 5 is servable, 6 squares
#: twice with no rescale between, which the plan checker refuses
PROGRAMS = {5: (("rotate", 1), "square", "rescale"), 6: ("square", "square")}

_ids = itertools.count(1)


def _mutate(payload: bytes, field: str, value) -> bytes:
    magic, version, kind, n, comps, level, scale = _HEADER.unpack_from(payload)
    fields = dict(n=n, components=comps, level_count=level & ~_NTT_FLAG,
                  scale=scale, version=version)
    ntt = level & _NTT_FLAG
    if field == "ntt_flag":
        ntt ^= _NTT_FLAG
    elif field in fields:
        fields[field] = value
    head = _HEADER.pack(
        magic, fields["version"], kind, fields["n"], fields["components"],
        fields["level_count"] | ntt, fields["scale"],
    )
    return head + payload[HEADER_BYTES:]


def _with_programs(target):
    """Register :data:`PROGRAMS` at a bare server or at every worker of
    a cluster."""
    for program_id, steps in PROGRAMS.items():
        target.register_program(program_id, steps)
    return target


def _flush_spy(check_plan, flush_calls):
    """``check_plan`` that counts the calls made inside a flush
    (``EncryptedComputeServer._run``) and makes each raise, so that a
    forked worker's flush that re-checks shows in its answers too."""
    flush = EncryptedComputeServer._run.__code__

    def spy(graph, context):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not flush:
            frame = frame.f_back
        if frame is not None:
            flush_calls.append(graph)
            raise ValueError("check_plan called by a flush")
        return check_plan(graph, context)

    return spy


class _Transports:
    """One tenant's client on a bare server and on two one-worker
    clusters, one per transport; every server registers
    :data:`PROGRAMS` and runs the flush spy."""

    def __init__(self, context, tenant, flush_calls):
        #: the graphs ``check_plan`` was called on from an in-process flush
        self.flush_calls = flush_calls
        # lanes flush when full or drained, never on a clock: a forked
        # worker pumps itself, and must group a stream as the others do
        lanes = dict(max_batch_size=4, max_delay_seconds=60.0)
        self.server = _with_programs(EncryptedComputeServer(context, **lanes))
        SyntheticClient(tenant, "fuzz", seed=1).connect(self.server)
        spec = WorkerSpec(params=context.params, **lanes)
        self.clusters = [
            ServingCluster(lambda wid: handle(wid, spec), worker_count=1)
            for handle in (LocalWorkerHandle, ProcessWorkerHandle)
        ]
        for cluster in self.clusters:
            tenant.register_with(cluster)
            SyntheticClient(tenant, "fuzz", seed=1).connect_cluster(cluster)
            _with_programs(cluster)

    def answers(self, *frames: bytes):
        """Each transport's answers to ``frames``, received, then drained."""
        for frame in frames:
            self.server.receive("fuzz", frame)
        self.server.drain()
        out = [self.server.sessions.get("fuzz").take_outbox()]
        for cluster in self.clusters:
            for frame in frames:
                cluster.receive("fuzz", frame)
            cluster.drain()
            out.append(cluster.take_outbox("fuzz"))
        return out

    def conserved(self) -> bool:
        logs = [self.server.log] + [cluster.log for cluster in self.clusters]
        return all(conservation.conserved(log) for log in logs)

    def stop(self):
        for cluster in self.clusters:
            cluster.stop()


@pytest.fixture(scope="module")
def transports(serving_context, tenant):
    flush_calls = []
    with pytest.MonkeyPatch.context() as patch:
        # a forked worker inherits the patch
        patch.setattr(
            server_module, "check_plan", _flush_spy(server_module.check_plan, flush_calls)
        )
        three = _Transports(serving_context, tenant, flush_calls)
        yield three
        three.stop()


@pytest.fixture(scope="module")
def payloads(serving_context, tenant):
    """A valid fresh ciphertext in both wire versions."""
    client = SyntheticClient(tenant, "payloads", seed=2)
    ct = client.encryptor.encrypt(tenant.encoder.encode([0.5, -0.25]))
    return {v: serialize_ciphertext(ct, version=v) for v in (1, 2)}


def _request(payload: bytes, op: str, op_arg: int) -> bytes:
    return framing.encode_frame(
        framing.REQUEST, next(_ids), "fuzz", op=op, op_arg=op_arg, payload=payload
    )


def _typed(frame):
    assert frame.kind in (framing.RESPONSE, framing.ERROR)
    if frame.kind == framing.ERROR:
        assert framing.error_class(frame) in framing.ERROR_CLASSES
        assert frame.payload  # the refusal names its reason
        # admission saw every reason a flush could fail for
        assert not frame.error_message.startswith("op failed"), frame.error_message
    return frame


def _one_typed_answer(bare, *routed):
    assert len(bare) == 1, bare
    assert all(answers == bare for answers in routed), (bare, routed)
    return _typed(framing.decode_frame(bare[0]))


@settings(
    max_examples=120, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    version=st.sampled_from([1, 2]),
    field_and_value=st.sampled_from(sorted(MUTATIONS)).flatmap(
        lambda f: st.tuples(st.just(f), MUTATIONS[f])
    ),
)
def test_one_semantic_field_at_a_time(transports, payloads, version, field_and_value):
    field, value = field_and_value
    op, op_arg = "square", 0
    payload = payloads[version]
    if field == "op":
        op = value
    elif field == "op_arg":
        op, op_arg = "rotate", value
    else:
        payload = _mutate(payload, field, value)
    frame = _one_typed_answer(*transports.answers(_request(payload, op, op_arg)))
    if field in ("n", "components", "level_count", "ntt_flag", "version"):
        # the context has one ring size and wire versions 1 and 2; a
        # payload's size follows from its header, so any other shape is
        # refused, never served
        changed = _HEADER.unpack_from(payload) != _HEADER.unpack_from(payloads[version])
        if changed and not (field == "version" and value in (1, 2)):
            assert frame.kind == framing.ERROR
    if field == "scale" and not (value > 0 and math.isfinite(value)):
        assert frame.kind == framing.ERROR
    assert transports.conserved()


@pytest.mark.parametrize("scale", [5e-324, 1e-200, 1e300])
def test_a_served_response_carries_a_wire_valid_scale(transports, payloads, scale):
    payload = bytearray(payloads[1])
    struct.pack_into("<d", payload, 14, scale)  # the header's scale field
    frame = _one_typed_answer(*transports.answers(_request(bytes(payload), "square", 0)))
    if frame.kind == framing.RESPONSE:
        served = _HEADER.unpack_from(frame.payload)[6]
        assert 0 < served < math.inf


@pytest.mark.parametrize(
    "op, scale",
    [("square", 5e-324), ("square", 1e-200), ("square", 1e300), ("rescale", 5e-324)],
)
def test_a_result_scale_off_the_rule_is_refused_at_admission(transports, payloads, op, scale):
    """The plan checker's rule, applied before anything is queued: a
    result scale must stay finite and > 0."""
    payload = bytearray(payloads[2])
    struct.pack_into("<d", payload, 14, scale)
    frame = _one_typed_answer(*transports.answers(_request(bytes(payload), op, 0)))
    assert frame.kind == framing.ERROR
    assert framing.error_class(frame) == framing.ERR_FATAL
    assert f"{op} refused" in frame.error_message and "scale" in frame.error_message
    assert transports.conserved()


@pytest.fixture(scope="module")
def last_level(serving_context, tenant):
    """A v2 ciphertext at the last level: no level left to rescale away."""
    client = SyntheticClient(tenant, "last-level", seed=3)
    ev = Evaluator(serving_context)
    ct = client.encryptor.encrypt(tenant.encoder.encode([0.5, -0.25]))
    while ct.level_count > 1:
        one = tenant.encoder.encode(1.0, level_count=ct.level_count)
        ct = ev.rescale(ev.multiply_plain(ct, one))
    return serialize_ciphertext(ct, version=2)


@pytest.mark.parametrize(
    "fault, op, op_arg, why",
    [
        ("last-level rescale", "rescale", 0, "cannot rescale at the last level"),
        ("square twice", "program", 6, "does not decrypt"),
        ("scale under 1 bit", "double", 0, "bits of precision left"),
        ("keyless step", "rotate", 2, "session has no Galois key for step 2"),
    ],
)
def test_a_chain_fault_is_refused_at_admission(
    transports, payloads, last_level, fault, op, op_arg, why
):
    """Faults a flush used to find are refused before anything is queued,
    with the same fatal ERROR on every transport."""
    payload = last_level if fault == "last-level rescale" else payloads[2]
    if fault == "scale under 1 bit":
        payload = _mutate(payload, "scale", 2.0)
    flushes = len(transports.server.report.flushes)
    frame = _one_typed_answer(*transports.answers(_request(payload, op, op_arg)))
    assert frame.kind == framing.ERROR
    assert framing.error_class(frame) == framing.ERR_FATAL
    assert frame.error_message.startswith(f"{op} refused: ") and why in frame.error_message
    assert len(transports.server.report.flushes) == flushes  # nothing was queued
    assert transports.conserved()


def test_no_flush_calls_check_plan(transports, payloads, last_level):
    """A mixed stream with programs, lanes of several members on every
    transport: each request is typed once, at admission, and no flush
    calls the plan checker -- in-process the spy counts none, and a
    forked worker's would have answered ``op failed``."""
    stream = [
        ("square", 0), ("program", 5), ("double", 0), ("rotate", 1),
        ("negate", 0), ("conjugate", 0), ("program", 5), ("square", 0),
    ]
    frames = [
        _request(payloads[1 + i % 2], op, op_arg) for i, (op, op_arg) in enumerate(stream)
    ]
    frames.append(_request(last_level, "double", 0))
    flushes = len(transports.server.report.flushes)
    answers = transports.answers(*frames)
    assert all(routed == answers[0] for routed in answers[1:])
    kinds = [_typed(framing.decode_frame(blob)).kind for blob in answers[0]]
    assert kinds == [framing.RESPONSE] * len(frames)
    assert max(f.batch_size for f in transports.server.report.flushes[flushes:]) > 1
    assert transports.flush_calls == []
    assert transports.conserved()


@pytest.mark.parametrize("version", [1, 2])
def test_the_unmutated_request_is_served(transports, payloads, version):
    frame = _one_typed_answer(*transports.answers(_request(payloads[version], "square", 0)))
    assert frame.kind == framing.RESPONSE
    assert transports.conserved()


@given(
    step=st.sampled_from([
        ("rotate", 1.7), ("rotate", 0), ("rotate", 32), ("rotate", -64),
        ("rotate", "1"), ("square", 1), ("rescale", -1), ("double", 0.5),
    ])
)
@settings(
    max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_a_mutated_program_step_is_refused_at_registration(transports, step):
    """The same rule on every transport: the bare server and each
    cluster (its worker, in-process or forked) refuse the chain, and none
    registers it."""
    local = transports.clusters[0]
    targets = [transports.server, *transports.clusters]
    pid = next(_ids)
    for target in targets:
        with pytest.raises(ValueError):
            target.register_program(pid, [step])
        assert pid not in target._programs
    for handle in local.workers.values():
        assert pid not in handle.server._programs
