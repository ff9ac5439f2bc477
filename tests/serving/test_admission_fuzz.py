"""Admission fuzz: CRC-valid requests whose fields mean something wrong.

Byte damage is the CRC's business and is tested elsewhere (every flip,
every truncation).  The boundary bugs this repository has had were all
well-formed input with a wrong meaning: a NaN scale, a fractional
rotation step, a level count the context does not have.  Admission is
the only validator, so this suite starts from valid v1 and v2
ciphertext requests, changes one semantic field at a time (ring size
``n``, component count, ``level_count``, scale, the layout -- the wire
version byte and the NTT-form flag --, op and ``op_arg``), re-frames the
result with a valid CRC and submits it to the bare server and to a
one-worker ``LocalWorkerHandle`` cluster.

The oracle, per input: exactly one answer (a RESPONSE or a typed ERROR
frame), byte-identical on both transports, and the cluster's
conservation law ``completed + shed + failed_over + expired ==
submitted``.  A program step is validated at registration: a mutated
step raises ``ValueError`` on the bare server and on every worker alike.
"""

from __future__ import annotations

import itertools
import math
import struct

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.ckks.serialization import HEADER_BYTES, serialize_ciphertext
from repro.serving import framing
from repro.serving.cluster import ServingCluster
from repro.serving.server import EncryptedComputeServer
from repro.serving.traffic import SyntheticClient
from repro.serving.worker import LocalWorkerHandle, WorkerSpec

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
        [math.nan, -math.nan, 0.0, -0.0, math.inf, -math.inf, -(2.0**28), 5e-324]
    ),
    "version": st.integers(0, 255),
    "ntt_flag": st.just(None),
    "op": st.sampled_from(["", "bogus", "program", "rotate", "square", "Square", "x" * 255]),
    "op_arg": st.sampled_from([-(2**31), -1, 0, 1, 7, 32, 64, 2**31 - 1]),
}

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


class _Transports:
    """One tenant's client on a bare server and on a one-worker cluster."""

    def __init__(self, context, tenant):
        self.server = EncryptedComputeServer(context, max_batch_size=4)
        SyntheticClient(tenant, "fuzz", seed=1).connect(self.server)
        spec = WorkerSpec(params=context.params)
        self.cluster = ServingCluster(
            lambda wid: LocalWorkerHandle(wid, spec), worker_count=1
        )
        tenant.register_with(self.cluster)
        SyntheticClient(tenant, "fuzz", seed=1).connect_cluster(self.cluster)

    def answers(self, frame: bytes):
        self.server.receive("fuzz", frame)
        self.server.drain()
        bare = self.server.sessions.get("fuzz").take_outbox()
        self.cluster.receive("fuzz", frame)
        self.cluster.drain()
        routed = self.cluster.take_outbox("fuzz")
        return bare, routed

    def stop(self):
        self.cluster.stop()


@pytest.fixture(scope="module")
def transports(serving_context, tenant):
    both = _Transports(serving_context, tenant)
    yield both
    both.stop()


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


def _conserved(report) -> bool:
    return (
        report.completed + report.shed_requests + report.failed_over_requests
        + report.expired_requests
    ) == report.submitted


def _one_typed_answer(bare, routed):
    assert len(bare) == 1 and len(routed) == 1, (bare, routed)
    assert bare == routed
    frame = framing.decode_frame(bare[0])
    assert frame.kind in (framing.RESPONSE, framing.ERROR)
    if frame.kind == framing.ERROR:
        assert framing.error_class(frame) in framing.ERROR_CLASSES
        assert frame.payload  # the refusal names its reason
    return frame


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
    assert _conserved(transports.cluster.report)


@pytest.mark.xfail(
    strict=True,
    reason="a positive scale whose product under- or overflows is admitted and "
    "served back as scale 0.0 or inf, which the wire refuses to decode",
)
@pytest.mark.parametrize("scale", [5e-324, 1e-200, 1e300])
def test_a_served_response_carries_a_wire_valid_scale(transports, payloads, scale):
    payload = bytearray(payloads[1])
    struct.pack_into("<d", payload, 14, scale)  # the header's scale field
    frame = _one_typed_answer(*transports.answers(_request(bytes(payload), "square", 0)))
    if frame.kind == framing.RESPONSE:
        served = _HEADER.unpack_from(frame.payload)[6]
        assert 0 < served < math.inf


@pytest.mark.parametrize("version", [1, 2])
def test_the_unmutated_request_is_served(transports, payloads, version):
    frame = _one_typed_answer(*transports.answers(_request(payloads[version], "square", 0)))
    assert frame.kind == framing.RESPONSE
    assert _conserved(transports.cluster.report)


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
    """The same rule on both transports: the bare server and the cluster's
    worker refuse the chain, and neither registers it."""
    servers = [transports.server] + [
        handle.server for handle in transports.cluster.workers.values()
    ]
    pid = next(_ids)
    for server in servers:
        with pytest.raises(ValueError):
            server.register_program(pid, [step])
        assert pid not in server._programs
