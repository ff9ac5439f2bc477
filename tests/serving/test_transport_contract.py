"""The transport contract: a worker is a server, wherever it runs.

Both :class:`WorkerHandle` transports drive a plain
:class:`EncryptedComputeServer` -- :class:`LocalWorkerHandle` holds it,
:class:`ProcessWorkerHandle` loops over it behind a pipe -- so the same
seeded trace fed through either must produce exactly what the bare
server produces when driven by hand: byte-identical response frames and
the same :class:`ServingReport` flush stream (timings aside), the
process side having crossed the pickle boundary.  ``stats()`` is a
snapshot on both: the router may keep or mutate it freely.
"""

from __future__ import annotations

import pytest

from repro.ckks.serialization import serialize_kswitch_key
from repro.serving import (
    EncryptedComputeServer,
    LocalWorkerHandle,
    ProcessWorkerHandle,
    ServingReport,
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
        seen = before.flush_count
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
        assert schedule.ops == report.flush_count
        assert schedule.compute_seconds == pytest.approx(report.compute_seconds)

        # a snapshot: the earlier one did not grow, and mutating this
        # one does not reach the worker
        assert before.flush_count == seen < report.flush_count
        report.flushes.clear()
        report.latencies.append(1.0)
        report.error_responses += 7
        again = handle.stats()
        assert _flush_stream(again) == _flush_stream(expected_report)
        assert len(again.latencies) == len(trace) and again.error_responses == 0
    finally:
        handle.stop()
