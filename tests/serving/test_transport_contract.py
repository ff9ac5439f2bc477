"""The transport contract: a worker is a server, wherever it runs.

Both :class:`WorkerHandle` transports drive a plain
:class:`EncryptedComputeServer` -- :class:`LocalWorkerHandle` holds it,
:class:`ProcessWorkerHandle` loops over it behind a pipe -- so the same
seeded trace fed through either must produce exactly what the bare
server produces when driven by hand: byte-identical response frames and
the same :class:`ServingReport` flush stream (timings aside, members
included), the process side's event log having crossed the pickle
boundary.  ``stats()`` is a fold over that log on both: a snapshot
later work does not grow.

A registered program is served alike on every transport, and a worker
that ``restart_worker`` brings back serves it again: the router
registers every program at each worker it builds, also at one that died
while the program was being registered.  A refused program raises the
server's own error on every transport, and the worker lives on.

Hostile frames get the same answer on every transport: a frame over the
worker's cap, a non-REQUEST kind, a mis-tagged ``client_id`` and a
dead-on-arrival deadline are each one ERROR frame, byte-identical
whether a bare server, a router over an in-process worker or a router
over a worker process answers it -- and the worker keeps serving.
"""

from __future__ import annotations

import pytest
from conservation import conserved

from repro.ckks.serialization import serialize_kswitch_key
from repro.serving import (
    ClusterReport,
    EncryptedComputeServer,
    LocalWorkerHandle,
    ProcessWorkerHandle,
    ServingCluster,
    ServingReport,
    SyntheticClient,
    SyntheticTenant,
    WorkerDeadError,
    WorkerSpec,
    framing,
    multi_tenant_traffic,
)
from repro.system.pcie import PcieModel
from repro.system.scheduler import HostScheduler

#: lanes never age out on their own: what flushes when is decided by
#: arrival order alone (a full lane, then the drain), on any clock
SPEC_KNOBS = dict(max_batch_size=4, max_delay_seconds=60.0)


def _flush_stream(report: ServingReport):
    return [
        (
            f.op, f.batch_size, f.batched, f.scheduled.kind,
            f.scheduled.input_bytes, f.scheduled.output_bytes, f.members,
        )
        for f in report.flushes
    ]


@pytest.fixture(scope="module")
def workload(serving_context):
    """Seeded two-tenant traffic and what a bare server answers to it."""
    _, clients, trace = multi_tenant_traffic(
        serving_context, 2, 2, 5, seed=77, wire_version=2, frame_version=2
    )
    server = EncryptedComputeServer(serving_context, **SPEC_KNOBS)
    for client in clients:
        client.connect(server)
    for client_id, frame in trace:
        server.receive(client_id, frame)
    assert server.drain() == len(trace)
    return clients, trace, server.collect_outboxes(), server.report


@pytest.mark.parametrize("transport", [LocalWorkerHandle, ProcessWorkerHandle])
def test_a_handle_serves_what_its_server_serves(transport, serving_context, workload):
    clients, trace, expected_frames, expected_report = workload
    handle = transport("w0", WorkerSpec(params=serving_context.params, **SPEC_KNOBS))
    try:
        uploaded = set()
        for client in clients:
            tenant = client.tenant
            first = tenant.key_id not in uploaded
            uploaded.add(tenant.key_id)
            # blobs travel once per key_id, as the router ships them
            handle.register_session(
                client.client_id,
                tenant.key_id,
                serialize_kswitch_key(tenant.relin_key, version=2) if first else None,
                {
                    elt: serialize_kswitch_key(
                        tenant.galois_keys.key_for_element(elt), version=2
                    )
                    for elt in tenant.galois_keys.elements()
                }
                if first
                else None,
                client.wire_version,
                client.frame_version,
            )
        for client_id, frame in trace:
            handle.submit(client_id, framing.decode_frame(frame))
        before = handle.stats()
        seen = len(before.flushes)
        handle.drain()
        assert handle.poll_responses() == expected_frames
        assert handle.poll_responses() == {}  # handed out exactly once

        report = handle.stats()
        assert isinstance(report, ServingReport)
        assert _flush_stream(report) == _flush_stream(expected_report)
        # every request answered by a flush, none with an ERROR
        served = sum(f.batch_size for f in report.flushes)
        assert served == len(trace) == len(report.latencies)
        # the measured op stream of either transport feeds the Figure-7
        # host pipeline as it is
        schedule = HostScheduler(PcieModel(3.2e9), 1 << 15).run(
            [f.scheduled for f in report.flushes]
        )
        assert schedule.ops == len(report.flushes)
        assert schedule.compute_seconds == pytest.approx(sum(f.seconds for f in report.flushes))

        # a snapshot: the earlier one did not grow, a later one equals this
        assert len(before.flushes) == seen < len(report.flushes)
        assert _flush_stream(handle.stats()) == _flush_stream(report)
    finally:
        handle.stop()


@pytest.fixture(scope="module")
def hostile(serving_context):
    """One client's hostile script, as the bytes its connection carries,
    and the worker frame cap it is played against."""
    tenant = SyntheticTenant(serving_context, seed=2611, key_id="tenant-h")
    client = SyntheticClient(tenant, "hostile", seed=5, wire_version=2, frame_version=2)

    def reframed(blob: bytes, client_id: str, pad: bytes = b"") -> bytes:
        frame = framing.decode_frame(blob)
        return framing.encode_frame(
            frame.kind, frame.request_id, client_id, op=frame.op,
            op_arg=frame.op_arg, payload=(frame.payload, pad), frame_version=2,
        )

    over_cap = reframed(client.request_bytes("double", [0.25]), "hostile", bytes(64))
    not_a_request = framing.encode_frame(framing.RESPONSE, 900, "hostile", frame_version=2)
    misdirected = reframed(client.request_bytes("double", [0.125]), "intruder")
    dead_on_arrival = client.request_bytes("double", [1.0], deadline=1.0)
    good = client.request_bytes("double", [0.5])
    # every frame fits but the padded one, whose 64 bytes put it past the
    # worker's cap and nowhere near the router's
    cap = len(good) - 4
    script = [over_cap, not_a_request, misdirected, dead_on_arrival, good]
    return tenant, client, cap, script


def _by_request(answers, script):
    """One answer per frame of the script, keyed by request id."""
    assert len(answers) == len(script)
    return {framing.peek_frame_ids(b)[1]: b for b in answers}


def _serve_hostile(target, context, tenant, client, cap, script):
    """``{request_id: answer bytes}`` of one target, its front door's
    event log (the router's, or a bare server's) and whether its worker
    is still alive."""
    if target is EncryptedComputeServer:
        server = EncryptedComputeServer(context, max_frame_bytes=cap, **SPEC_KNOBS)
        client.connect(server)
        for blob in script:
            server.submit_frame(client.client_id, framing.decode_frame(blob))
        server.drain()
        return _by_request(server.collect_outboxes()[client.client_id], script), server.log, True
    spec = WorkerSpec(params=context.params, max_frame_bytes=cap, **SPEC_KNOBS)
    cluster = ServingCluster(lambda wid: target(wid, spec), worker_count=1)
    try:
        tenant.register_with(cluster, wire_version=2)
        client.connect_cluster(cluster)
        for blob in script:
            cluster.receive(client.client_id, blob)
        cluster.pump()
        cluster.drain()
        assert cluster.inflight_count == 0
        answers = _by_request(cluster.take_outbox(client.client_id), script)
        return answers, cluster.log, cluster.workers["w0"].alive
    finally:
        cluster.stop()


@pytest.mark.parametrize(
    "target", [EncryptedComputeServer, LocalWorkerHandle, ProcessWorkerHandle]
)
def test_hostile_frames_get_the_same_answer_on_every_transport(
    target, serving_context, hostile
):
    tenant, client, cap, script = hostile
    expected, _, _ = _serve_hostile(EncryptedComputeServer, serving_context, *hostile)
    answers, log, alive = _serve_hostile(target, serving_context, *hostile)
    assert answers == expected
    assert alive
    over_cap, not_a_request, misdirected, dead, good = (
        framing.decode_frame(answers[framing.peek_frame_ids(b)[1]]) for b in script
    )
    length = len(script[0]) - 4 - 12  # a deadline-less frame's v1 envelope
    assert length > cap
    for refusal, text in (
        (over_cap, f"frame length {length} exceeds cap {cap}"),
        (not_a_request, "only REQUEST frames are served"),
        (misdirected, "frame client_id 'intruder' does not match"),
    ):
        assert framing.error_class(refusal) == framing.ERR_FATAL
        assert refusal.error_message.startswith(text)
    assert framing.error_class(dead) == framing.ERR_DEADLINE
    assert good.kind == framing.RESPONSE
    _, values = tenant.decrypt_response(answers[good.request_id])
    assert abs(values[0] - 1.0) < 1e-2
    assert conserved(log)
    if target is not EncryptedComputeServer:
        report = ClusterReport.fold(log)
        assert (report.submitted, report.completed, report.expired_requests) == (3, 2, 1)


#: one registered chain, servable at the fixtures' parameters
PROGRAM_ID, PROGRAM = 5, (("rotate", 1), "square", "rescale")
#: the chain as registration normalizes it
NORMALIZED = (("rotate", 1), ("square", 0), ("rescale", 0))


def _serve_program(target, context, tenant):
    """The answers of ``target`` to one program request, then -- a
    cluster's worker restarted in between -- to a second one."""
    client = SyntheticClient(tenant, "prog", seed=8, wire_version=2, frame_version=2)
    first, second = (
        client.request_bytes("program", values, op_arg=PROGRAM_ID)
        for values in ([0.5, 0.25], [-0.125])
    )
    if target is EncryptedComputeServer:
        server = EncryptedComputeServer(context, **SPEC_KNOBS)
        assert server.register_program(PROGRAM_ID, PROGRAM) == NORMALIZED
        client.connect(server)
        for blob in (first, second):
            server.receive(client.client_id, blob)
            server.drain()
        return server.collect_outboxes()[client.client_id]
    spec = WorkerSpec(params=context.params, **SPEC_KNOBS)
    cluster = ServingCluster(lambda wid: target(wid, spec), worker_count=1)
    try:
        tenant.register_with(cluster, wire_version=2)
        client.connect_cluster(cluster)
        assert cluster.register_program(PROGRAM_ID, PROGRAM) == NORMALIZED
        cluster.receive(client.client_id, first)
        cluster.drain()
        cluster.restart_worker("w0")
        cluster.receive(client.client_id, second)
        cluster.drain()
        assert cluster.inflight_count == 0
        return cluster.take_outbox(client.client_id)
    finally:
        cluster.stop()


@pytest.mark.parametrize(
    "target", [EncryptedComputeServer, LocalWorkerHandle, ProcessWorkerHandle]
)
def test_a_program_is_answered_alike_on_every_transport(target, serving_context, tenant):
    expected = _serve_program(EncryptedComputeServer, serving_context, tenant)
    assert [framing.decode_frame(b).kind for b in expected] == [framing.RESPONSE] * 2
    assert _serve_program(target, serving_context, tenant) == expected


@pytest.mark.parametrize(
    "target", [EncryptedComputeServer, LocalWorkerHandle, ProcessWorkerHandle]
)
def test_a_refused_program_raises_alike_on_every_transport(target, serving_context):
    if target is EncryptedComputeServer:
        register, cluster = EncryptedComputeServer(serving_context).register_program, None
    else:
        spec = WorkerSpec(params=serving_context.params, **SPEC_KNOBS)
        cluster = ServingCluster(lambda wid: target(wid, spec), worker_count=1)
        register = cluster.register_program
    try:
        with pytest.raises(ValueError, match="unknown program step 'nope'"):
            register(PROGRAM_ID, ["nope"])
        with pytest.raises(TypeError):
            register(PROGRAM_ID, [5])  # a step that is neither a name nor a pair
        assert register(PROGRAM_ID, PROGRAM) == NORMALIZED
    finally:
        if cluster is not None:
            cluster.stop()


def test_a_program_lands_at_a_worker_that_dies_registering_it(serving_context):
    spec = WorkerSpec(params=serving_context.params, **SPEC_KNOBS)
    cluster = ServingCluster(lambda wid: LocalWorkerHandle(wid, spec), worker_count=2)
    dying = cluster.workers["w0"]

    def die(*_):
        dying.kill()
        raise WorkerDeadError("w0 died registering the program")

    dying.register_program = die
    assert cluster.register_program(PROGRAM_ID, PROGRAM) == NORMALIZED
    assert cluster.workers["w1"].server._programs[PROGRAM_ID] == NORMALIZED
    cluster.kill_worker("w0")
    cluster.restart_worker("w0")
    assert cluster.workers["w0"].server._programs[PROGRAM_ID] == NORMALIZED
