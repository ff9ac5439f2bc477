"""Wire-format-v2 serving: HELLO negotiation, v2 sessions, key upload.

The serving layer's v2 contract, end to end:

* the socket front-door negotiates the wire version at HELLO time --
  a client advertising v2 (``op_arg=2``) gets an acknowledgement and
  v2 responses; a legacy HELLO (``op_arg=0``) sees *byte-identical*
  protocol behavior to before negotiation existed (no ack, v1);
* the router serializes tenant key uploads at the registered version,
  and the stored blobs -- including failover re-uploads to restarted
  workers -- stay in that format;
* per-session response versions coexist on one worker, and the flush
  accounting bills the payload bytes that crossed the wire, each way.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.ckks.serialization import (
    HEADER_BYTES,
    LATEST_VERSION,
    ciphertext_wire_bytes,
    kswitch_key_wire_bytes,
)
from repro.serving import framing
from repro.serving.cluster import AsyncFrontDoor, ServingCluster
from repro.serving.traffic import SyntheticClient, SyntheticTenant, multi_tenant_traffic
from repro.serving.worker import LocalWorkerHandle, WorkerSpec


def _payload_version(frame_bytes: bytes) -> int:
    frame = framing.decode_frame(frame_bytes)
    assert frame.kind == framing.RESPONSE
    return frame.payload[4]  # HEAX header: magic(4) then version byte


@pytest.fixture()
def v2_tenant(serving_context) -> SyntheticTenant:
    return SyntheticTenant(serving_context, seed=777, key_id="t-v2",
                           seed_expandable=True)


class TestClusterV2Sessions:
    def test_v2_session_serves_v2_responses(self, make_cluster, v2_tenant):
        cluster = make_cluster(worker_count=2)
        v2_tenant.register_with(cluster, wire_version=2)
        client = SyntheticClient(v2_tenant, "cv2", seed=1, wire_version=2)
        client.connect_cluster(cluster)
        cluster.receive("cv2", client.request_bytes("square", [0.5]))
        cluster.drain()
        (blob,) = cluster.take_outbox("cv2")
        assert _payload_version(blob) == 2
        rid, vals = v2_tenant.decrypt_response(blob)
        assert abs(vals[0].real - 0.25) < 1e-2

    def test_v1_and_v2_clients_coexist_per_session(
        self, make_cluster, v2_tenant
    ):
        """Same tenant, same worker, different negotiated versions: each
        client's responses come back in its own format."""
        cluster = make_cluster(worker_count=1)
        v2_tenant.register_with(cluster, wire_version=2)
        old = SyntheticClient(v2_tenant, "old", seed=2, wire_version=1)
        new = SyntheticClient(v2_tenant, "new", seed=3, wire_version=2)
        old.connect_cluster(cluster)
        new.connect_cluster(cluster)
        cluster.receive("old", old.request_bytes("square", [1.0]))
        cluster.receive("new", new.request_bytes("square", [1.0]))
        cluster.drain()
        (b_old,) = cluster.take_outbox("old")
        (b_new,) = cluster.take_outbox("new")
        assert _payload_version(b_old) == 1
        assert _payload_version(b_new) == 2
        # identical math, differently shipped: both decrypt to 1.0
        for tenant_blob in (b_old, b_new):
            _, vals = v2_tenant.decrypt_response(tenant_blob)
            assert abs(vals[0].real - 1.0) < 1e-2

    def test_seeded_v2_upload_is_less_than_half_of_v1(
        self, serving_context, v2_tenant
    ):
        """The tenant key registry stores blobs in the requested format;
        seeded v2 more than halves the upload every worker receives."""
        spec = WorkerSpec(params=serving_context.params)

        def sizes(wire_version):
            cluster = ServingCluster(
                lambda wid: LocalWorkerHandle(wid, spec), worker_count=1
            )
            v2_tenant.register_with(cluster, wire_version=wire_version)
            tenant = cluster._tenants[v2_tenant.key_id]
            total = len(tenant.relin_blob) + sum(
                len(b) for b in tenant.galois_blobs.values()
            )
            cluster.stop()
            return total

        assert sizes(2) < sizes(1) / 2

    def test_failover_reupload_stays_v2(self, make_cluster, v2_tenant):
        """A restarted worker's fresh key cache is refilled from the
        stored v2 blobs, and traffic still answers correctly."""
        cluster = make_cluster(worker_count=2)
        v2_tenant.register_with(cluster, wire_version=2)
        client = SyntheticClient(v2_tenant, "cf", seed=4, wire_version=2)
        client.connect_cluster(cluster)
        victim = cluster._placement["cf"]
        cluster.kill_worker(victim)
        cluster.restart_worker(victim)
        cluster.receive("cf", client.request_bytes("square", [2.0]))
        cluster.drain()
        (blob,) = cluster.take_outbox("cf")
        assert _payload_version(blob) == 2
        _, vals = v2_tenant.decrypt_response(blob)
        assert abs(vals[0].real - 4.0) < 1e-2

    def test_flush_accounting_bills_v2_bytes(
        self, serving_context, make_cluster, v2_tenant
    ):
        """The recorded ScheduledOp must bill the modeled PCIe transfer
        at the session's actual wire bytes -- v2, here."""
        cluster = make_cluster(worker_count=1)
        v2_tenant.register_with(cluster, wire_version=2)
        client = SyntheticClient(v2_tenant, "cb", seed=5, wire_version=2)
        client.connect_cluster(cluster)
        frame = client.request_bytes("double", [1.0])
        assert (
            len(framing.decode_frame(frame).payload)
            == HEADER_BYTES
            + ciphertext_wire_bytes(
                serving_context.n, 2, serving_context.k, version=2,
                moduli=serving_context.basis_at_level(serving_context.k).moduli,
            )
        )
        cluster.receive("cb", frame)
        cluster.drain()
        (flush,) = cluster.worker_stats()[cluster._placement["cb"]].flushes
        expected = ciphertext_wire_bytes(
            serving_context.n, 2, serving_context.k, version=2,
            moduli=serving_context.basis_at_level(serving_context.k).moduli,
        )
        assert flush.scheduled.input_bytes == expected
        assert flush.scheduled.output_bytes == expected

    def test_flush_bills_the_payload_bytes_that_crossed(
        self, make_cluster, v2_tenant
    ):
        """Admission takes a payload at its own wire version, so a v2
        session may send a v1 payload: the flush bills the v1 bytes that
        came in and the v2 bytes that went out, not the session's
        version both ways."""
        cluster = make_cluster(worker_count=1)
        v2_tenant.register_with(cluster, wire_version=2)
        legacy = SyntheticClient(v2_tenant, "cm", seed=6, wire_version=1)
        cluster.register_client("cm", v2_tenant.key_id, wire_version=2)
        frame = legacy.request_bytes("double", [1.0])
        request = framing.decode_frame(frame)
        assert request.payload[4] == 1
        cluster.receive("cm", frame)
        cluster.drain()
        (blob,) = cluster.take_outbox("cm")
        assert _payload_version(blob) == 2
        _, vals = v2_tenant.decrypt_response(blob)
        assert abs(vals[0].real - 2.0) < 1e-2
        (flush,) = cluster.worker_stats()[cluster._placement["cm"]].flushes
        response = framing.decode_frame(blob)
        assert flush.scheduled.input_bytes == len(request.payload) - HEADER_BYTES
        assert flush.scheduled.output_bytes == len(response.payload) - HEADER_BYTES
        assert flush.scheduled.input_bytes > flush.scheduled.output_bytes

    def test_unsupported_version_rejected_at_registration(
        self, make_cluster, v2_tenant
    ):
        cluster = make_cluster(worker_count=1)
        v2_tenant.register_with(cluster, wire_version=2)
        with pytest.raises(ValueError, match="version"):
            cluster.register_client("cx", v2_tenant.key_id, wire_version=9)
        with pytest.raises(ValueError, match="version"):
            cluster.register_tenant("t-bad", wire_version=3)

    def test_reconnect_renegotiates_version(self, make_cluster, v2_tenant):
        cluster = make_cluster(worker_count=1)
        v2_tenant.register_with(cluster, wire_version=2)
        client = SyntheticClient(v2_tenant, "cr", seed=6, wire_version=1)
        client.connect_cluster(cluster)
        cluster.receive("cr", client.request_bytes("square", [1.0]))
        cluster.drain()
        (blob,) = cluster.take_outbox("cr")
        assert _payload_version(blob) == 1
        # the client reconnects speaking v2: same session, new version
        cluster.register_client("cr", v2_tenant.key_id, wire_version=2)
        cluster.receive("cr", client.request_bytes("square", [1.0]))
        cluster.drain()
        (blob,) = cluster.take_outbox("cr")
        assert _payload_version(blob) == 2


class TestFrontDoorNegotiation:
    """HELLO version negotiation over a real socket."""

    def _cluster(self, serving_context):
        spec = WorkerSpec(params=serving_context.params, max_delay_seconds=1e-3)
        cluster = ServingCluster(
            lambda wid: LocalWorkerHandle(wid, spec), worker_count=2
        )
        tenants, clients, trace = multi_tenant_traffic(
            serving_context, tenant_count=1, clients_per_tenant=1,
            requests_per_client=2, wire_version=2, seed_expandable=True,
        )
        for t in tenants:
            t.register_with(cluster, wire_version=2)
        return cluster, clients[0], [fr for _, fr in trace]

    async def _session(self, door, client, frames, hello_version):
        reader, writer = await asyncio.open_connection(door.host, door.port)
        writer.write(
            framing.encode_frame(
                framing.HELLO, 0, client.client_id,
                op=client.tenant.key_id, op_arg=hello_version,
            )
        )
        for fr in frames:
            writer.write(fr)
        await writer.drain()
        decoder = framing.FrameDecoder()
        got = []
        want = len(frames) + (1 if hello_version > 0 else 0)
        while len(got) < want:
            data = await asyncio.wait_for(reader.read(1 << 16), timeout=10)
            if not data:
                break
            got.extend(decoder.feed(data))
        writer.close()
        await writer.wait_closed()
        return got

    def _run(self, serving_context, hello_version):
        cluster, client, frames = self._cluster(serving_context)

        async def main():
            async with AsyncFrontDoor(cluster) as door:
                return await self._session(door, client, frames, hello_version)

        try:
            return asyncio.run(main()), client
        finally:
            cluster.stop()

    def test_v2_hello_acked_and_served_v2(self, serving_context):
        got, client = self._run(serving_context, hello_version=2)
        ack, *responses = got
        assert ack.kind == framing.RESPONSE
        assert ack.op == "hello"
        assert ack.op_arg == 2
        assert len(responses) == 2
        for frame in responses:
            assert frame.kind == framing.RESPONSE
            assert frame.payload[4] == 2

    def test_future_version_negotiated_down(self, serving_context):
        got, _ = self._run(serving_context, hello_version=9)
        ack = got[0]
        assert ack.op == "hello"
        assert ack.op_arg == LATEST_VERSION

    def test_legacy_hello_unchanged(self, serving_context):
        """op_arg=0 keeps the pre-negotiation protocol bit for bit: no
        ack frame, v1 responses."""
        got, _ = self._run(serving_context, hello_version=0)
        assert len(got) == 2
        for frame in got:
            assert frame.kind == framing.RESPONSE
            assert frame.op != "hello"
            assert frame.payload[4] == 1


class TestWireBytesHelpers:
    def test_seeded_galois_upload_matches_formula(self, serving_context):
        tenant = SyntheticTenant(
            serving_context, seed=11, key_id="t-f", seed_expandable=True
        )
        spec = WorkerSpec(params=serving_context.params)
        cluster = ServingCluster(
            lambda wid: LocalWorkerHandle(wid, spec), worker_count=1
        )
        try:
            tenant.register_with(cluster, wire_version=2)
            stored = cluster._tenants[tenant.key_id]
            expected = HEADER_BYTES + kswitch_key_wire_bytes(
                serving_context.n,
                serving_context.k,
                version=2,
                moduli=serving_context.key_basis.moduli,
                seeded=True,
            )
            assert len(stored.relin_blob) == expected
            for blob in stored.galois_blobs.values():
                assert len(blob) == expected
        finally:
            cluster.stop()
