"""The transport contract: a worker is a server, wherever it runs.

Both :class:`WorkerHandle` transports drive a plain
:class:`EncryptedComputeServer` -- :class:`LocalWorkerHandle` holds it,
:class:`ProcessWorkerHandle` loops over it behind a pipe -- so the same
seeded trace fed through either must produce exactly what the bare
server produces when driven by hand: byte-identical response frames and
the same :class:`ServingReport` flush stream (timings aside), the
process side having crossed the pickle boundary.  ``stats()`` is a
snapshot on both: the router may keep or mutate it freely.

Hostile frames get the same answer on every transport: a frame over the
worker's cap, a non-REQUEST kind, a mis-tagged ``client_id`` and a
dead-on-arrival deadline are each one ERROR frame, byte-identical
whether a bare server, a router over an in-process worker or a router
over a worker process answers it -- and the worker keeps serving.
"""

from __future__ import annotations

import pytest

from repro.ckks.serialization import serialize_kswitch_key
from repro.serving import (
    EncryptedComputeServer,
    LocalWorkerHandle,
    ProcessWorkerHandle,
    ServingCluster,
    ServingReport,
    SyntheticClient,
    SyntheticTenant,
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
            f.scheduled.input_bytes, f.scheduled.output_bytes,
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
        assert report.request_count == len(trace) == len(report.latencies)
        assert (report.error_responses, report.expired_requests) == (0, 0)
        # the measured op stream of either transport feeds the Figure-7
        # host pipeline as it is
        schedule = HostScheduler(PcieModel(3.2e9), 1 << 15).run_executed(report)
        assert schedule.ops == len(report.flushes)
        assert schedule.compute_seconds == pytest.approx(report.compute_seconds)

        # a snapshot: the earlier one did not grow, and mutating this
        # one does not reach the worker
        assert len(before.flushes) == seen < len(report.flushes)
        report.flushes.clear()
        report.latencies.append(1.0)
        report.error_responses += 7
        again = handle.stats()
        assert _flush_stream(again) == _flush_stream(expected_report)
        assert len(again.latencies) == len(trace) and again.error_responses == 0
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
            op_arg=frame.op_arg, payload=frame.payload + pad, frame_version=2,
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
    """``{request_id: answer bytes}`` of one target, its router report
    (``None`` for a bare server) and whether its worker is still alive."""
    if target is EncryptedComputeServer:
        server = EncryptedComputeServer(context, max_frame_bytes=cap, **SPEC_KNOBS)
        client.connect(server)
        for blob in script:
            server.submit_frame(client.client_id, framing.decode_frame(blob))
        server.drain()
        return _by_request(server.collect_outboxes()[client.client_id], script), None, True
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
        return answers, cluster.report, cluster.workers["w0"].alive
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
    answers, report, alive = _serve_hostile(target, serving_context, *hostile)
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
    if report is not None:
        assert (report.submitted, report.completed, report.expired_requests) == (3, 2, 1)
        assert (
            report.completed + report.shed_requests
            + report.failed_over_requests + report.expired_requests
        ) == report.submitted
