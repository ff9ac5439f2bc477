"""Router units and transports: ring, placement, admission, front-door.

The fault and differential suites prove the cluster's end-to-end
properties; this file pins the pieces those proofs stand on -- the
consistent-hash ring's movement bounds, the router's admission rules,
same-tenant lane sharing across sharded clients, the real
process-worker transport, and the asyncio socket front-door's
connection protocol.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.serving import framing
from repro.serving.cluster import AsyncFrontDoor, HashRing, NoWorkersError, ServingCluster
from repro.serving.session import UnknownClientError
from repro.serving.traffic import SyntheticTenant, multi_tenant_traffic
from repro.serving.worker import LocalWorkerHandle, ProcessWorkerHandle, WorkerSpec


class TestHashRing:
    def test_placement_is_deterministic(self):
        a, b = HashRing(), HashRing()
        for ring in (a, b):
            for wid in ("w0", "w1", "w2", "w3"):
                ring.add(wid)
        keys = [f"tenant-{i}" for i in range(100)]
        assert [a.place(k) for k in keys] == [b.place(k) for k in keys]

    def test_removal_only_moves_the_removed_workers_keys(self):
        ring = HashRing()
        for wid in ("w0", "w1", "w2", "w3"):
            ring.add(wid)
        keys = [f"tenant-{i}" for i in range(200)]
        before = {k: ring.place(k) for k in keys}
        ring.remove("w1")
        after = {k: ring.place(k) for k in keys}
        for k in keys:
            if before[k] != "w1":
                assert after[k] == before[k], f"{k} moved needlessly"
            else:
                assert after[k] != "w1"

    def test_rejoin_restores_exact_placement(self):
        ring = HashRing()
        for wid in ("w0", "w1", "w2", "w3"):
            ring.add(wid)
        keys = [f"tenant-{i}" for i in range(200)]
        before = {k: ring.place(k) for k in keys}
        ring.remove("w2")
        ring.add("w2")
        assert {k: ring.place(k) for k in keys} == before

    def test_virtual_nodes_spread_load(self):
        ring = HashRing(vnodes=64)
        for wid in ("w0", "w1", "w2", "w3"):
            ring.add(wid)
        counts = {}
        for i in range(1000):
            wid = ring.place(f"tenant-{i}")
            counts[wid] = counts.get(wid, 0) + 1
        assert len(counts) == 4
        # no worker owns more than half the keyspace with 64 vnodes
        assert max(counts.values()) < 500

    def test_empty_ring_raises(self):
        with pytest.raises(NoWorkersError):
            HashRing().place("tenant-0")

    def test_add_is_idempotent(self):
        ring = HashRing()
        ring.add("w0")
        ring.add("w0")
        assert len(ring) == 1 and ring.worker_ids == ["w0"]

    def test_vnodes_validated(self):
        with pytest.raises(ValueError):
            HashRing(vnodes=0)


class TestPlacementAndLanes:
    def test_same_tenant_clients_colocate(self, serving_context, make_cluster):
        cluster = make_cluster(worker_count=4)
        tenants, clients, _ = multi_tenant_traffic(
            serving_context, tenant_count=4, clients_per_tenant=3,
            requests_per_client=1,
        )
        for t in tenants:
            t.register_with(cluster)
        for c in clients:
            c.connect_cluster(cluster)
        for c in clients:
            assert (
                cluster._placement[c.client_id]
                == cluster.ring.place(c.tenant.key_id)
            )

    def test_sharded_same_tenant_traffic_still_batches(
        self, serving_context, make_cluster
    ):
        """The point of key_id placement: a tenant's clients share one
        worker, so their keyed requests share batch lanes there."""
        cluster = make_cluster(worker_count=4)
        tenants, clients, trace = multi_tenant_traffic(
            serving_context, tenant_count=2, clients_per_tenant=4,
            requests_per_client=2, ops=[("square", 0)],
        )
        for t in tenants:
            t.register_with(cluster)
        for c in clients:
            c.connect_cluster(cluster)
        for cid, fr in trace:
            cluster.receive(cid, fr)
        cluster.drain()
        stats = cluster.worker_stats()
        batched = [f for s in stats.values() for f in s.flushes if f.batched]
        assert batched, "cross-client traffic produced no batched flushes"
        assert max(f.batch_size for f in batched) >= 4

    def test_unregistered_client_is_rejected(self, make_cluster):
        cluster = make_cluster(worker_count=2)
        with pytest.raises(UnknownClientError):
            cluster.receive("ghost", b"\x00")

    def test_unknown_tenant_is_rejected(self, make_cluster):
        cluster = make_cluster(worker_count=2)
        with pytest.raises(KeyError, match="register the tenant"):
            cluster.register_client("c0", "no-such-tenant")

    def test_reregistration_is_idempotent_but_keyid_is_sticky(
        self, serving_context, make_cluster
    ):
        cluster = make_cluster(worker_count=2)
        tenant = SyntheticTenant(serving_context, seed=11, key_id="t-a")
        other = SyntheticTenant(serving_context, seed=12, key_id="t-b")
        tenant.register_with(cluster)
        other.register_with(cluster)
        first = cluster.register_client("c0", "t-a")
        assert cluster.register_client("c0", "t-a") == first
        with pytest.raises(ValueError, match="registered under"):
            cluster.register_client("c0", "t-b")


    def test_a_key_id_is_bound_to_its_keys_once(self, serving_context, make_cluster):
        """Re-registering a tenant with *different* keys used to swap the
        router's blobs while every worker kept the old objects cached
        under the ``key_id``: clients of the new keys got RESPONSEs that
        decrypt to garbage, no error anywhere.  Now identical blobs are
        idempotent, different ones raise, and the fix the message names
        -- a new ``key_id`` -- serves correctly."""
        from repro.serving.traffic import SyntheticClient

        cluster = make_cluster(worker_count=2)
        old = SyntheticTenant(serving_context, seed=21, key_id="t")
        new = SyntheticTenant(serving_context, seed=22, key_id="t")
        old.register_with(cluster)
        SyntheticClient(old, "c-old", seed=1).connect_cluster(cluster)
        old.register_with(cluster)  # the same keys again: idempotent
        with pytest.raises(ValueError, match="new key_id"):
            new.register_with(cluster)
        # the refused registration changed nothing: old clients still serve
        new.key_id = "t-2"
        new.register_with(cluster)
        for tenant, cid in ((old, "c-old-2"), (new, "c-new")):
            client = SyntheticClient(tenant, cid, seed=2)
            client.connect_cluster(cluster)
            cluster.receive(cid, client.request_bytes("square", [3.0]))
        cluster.drain()
        for tenant, cid in ((old, "c-old-2"), (new, "c-new")):
            (blob,) = cluster.take_outbox(cid)
            _, values = tenant.decrypt_response(blob)
            assert abs(values[0] - 9.0) < 1e-2, cid

    @pytest.mark.parametrize("wire_version", [1, 2])
    def test_a_key_with_the_wrong_digit_count_is_refused_at_upload(
        self, serving_context, make_cluster, wire_version
    ):
        """A relin key one digit short used to register, connect, and
        then fail every full-level ``square`` ("basis implies 3 digits;
        key has 2").  The upload now refuses the session, so nothing is
        ever admitted under that key."""
        from repro.ckks.keys import RelinKey
        from repro.serving.traffic import SyntheticClient

        cluster = make_cluster(worker_count=2)
        tenant = SyntheticTenant(
            serving_context, seed=31, seed_expandable=wire_version == 2
        )
        short = RelinKey(tenant.relin_key.digits[:-1], seed=tenant.relin_key.seed)
        cluster.register_tenant("t", relin_key=short, wire_version=wire_version)
        client = SyntheticClient(tenant, "c0", seed=1)
        with pytest.raises(ValueError, match="key has 2 digits; context needs 3"):
            cluster.register_client("c0", "t", wire_version=wire_version)
        with pytest.raises(UnknownClientError):
            cluster.receive("c0", client.request_bytes("square", [3.0]))
        assert cluster.report.submitted == 0 and cluster.inflight_count == 0


class TestRouterAdmission:
    @pytest.fixture()
    def small_cluster(self, serving_context, make_cluster):
        cluster = make_cluster(worker_count=2)
        tenants, clients, trace = multi_tenant_traffic(
            serving_context, tenant_count=1, clients_per_tenant=1,
            requests_per_client=4,
        )
        for t in tenants:
            t.register_with(cluster)
        for c in clients:
            c.connect_cluster(cluster)
        return cluster, clients[0], trace

    def _one_error(self, cluster, client):
        (blob,) = cluster.take_outbox(client.client_id)
        frame = framing.decode_frame(blob)
        assert frame.kind == framing.ERROR
        return frame

    def test_non_request_kinds_are_errors(self, small_cluster):
        cluster, client, _ = small_cluster
        frame = framing.Frame(framing.RESPONSE, 9, client.client_id)
        cluster.receive_frame(client.client_id, frame)
        err = self._one_error(cluster, client)
        assert err.request_id == 9 and "REQUEST" in err.error_message
        assert cluster.report.submitted == 0

    def test_client_id_spoofing_is_an_error(self, small_cluster):
        cluster, client, trace = small_cluster
        frame = framing.decode_frame(trace[0][1])
        # the frame names the real client, the connection claims another
        cluster.register_client("impostor", client.tenant.key_id)
        cluster.receive_frame("impostor", frame)
        (blob,) = cluster.take_outbox("impostor")
        err = framing.decode_frame(blob)
        assert err.kind == framing.ERROR and "does not match" in err.error_message

    def test_duplicate_request_id_is_an_error(self, small_cluster):
        cluster, client, trace = small_cluster
        cluster.receive(client.client_id, trace[0][1])
        frame = framing.decode_frame(trace[0][1])
        cluster.receive_frame(client.client_id, frame)
        err = self._one_error(cluster, client)
        assert "already in flight" in err.error_message

    def test_latencies_are_recorded_on_the_router_clock(
        self, small_cluster, manual_clock
    ):
        cluster, client, trace = small_cluster
        for cid, fr in trace:
            cluster.receive(cid, fr)
        manual_clock.advance(0.25)
        cluster.pump()
        manual_clock.advance(0.25)
        cluster.pump()
        cluster.drain()
        assert len(cluster.report.latencies) == len(trace)
        assert all(0.25 <= lat <= 0.5 for lat in cluster.report.latencies)


@pytest.mark.slow
class TestProcessWorkers:
    """The deployment transport: real OS processes behind pipes."""

    def test_cluster_of_processes_serves_and_reports(self, serving_context):
        spec = WorkerSpec(params=serving_context.params, max_delay_seconds=1e-3)
        cluster = ServingCluster(
            lambda wid: ProcessWorkerHandle(wid, spec), worker_count=2
        )
        try:
            tenants, clients, trace = multi_tenant_traffic(
                serving_context, tenant_count=2, clients_per_tenant=2,
                requests_per_client=3,
            )
            for t in tenants:
                t.register_with(cluster)
            for c in clients:
                c.connect_cluster(cluster)
            for cid, fr in trace:
                cluster.receive(cid, fr)
            deadline = time.monotonic() + 60
            while cluster.inflight_count and time.monotonic() < deadline:
                cluster.pump()
                time.sleep(0.005)
            cluster.drain()
            assert cluster.inflight_count == 0
            total = 0
            for c in clients:
                for blob in cluster.take_outbox(c.client_id):
                    assert framing.decode_frame(blob).kind == framing.RESPONSE
                    total += 1
            assert total == len(trace)
            stats = cluster.worker_stats()
            assert sum(s.request_count for s in stats.values()) == len(trace)
            assert all(s.error_responses == 0 for s in stats.values())
        finally:
            cluster.stop()

    def test_killed_process_fails_over(self, serving_context):
        spec = WorkerSpec(params=serving_context.params, max_delay_seconds=60.0)
        cluster = ServingCluster(
            lambda wid: ProcessWorkerHandle(wid, spec), worker_count=2
        )
        try:
            tenants, clients, trace = multi_tenant_traffic(
                serving_context, tenant_count=2, clients_per_tenant=1,
                requests_per_client=2,
            )
            for t in tenants:
                t.register_with(cluster)
            for c in clients:
                c.connect_cluster(cluster)
            # a huge deadline parks the requests in lanes: kill mid-flight
            for cid, fr in trace:
                cluster.receive(cid, fr)
            victim = cluster._placement[clients[0].client_id]
            failed = cluster.kill_worker(victim)
            assert failed > 0
            assert not cluster.workers[victim].alive
            cluster.drain()
            kinds = []
            for c in clients:
                kinds += [
                    framing.decode_frame(b).kind
                    for b in cluster.take_outbox(c.client_id)
                ]
            assert len(kinds) == len(trace)
            assert kinds.count(framing.ERROR) == failed
        finally:
            cluster.stop()


class TestFrontDoor:
    """The asyncio socket layer's connection protocol."""

    def _cluster(self, serving_context, tenants=2):
        # a real wall clock: the front-door's background pump loop is
        # what fires deadline flushes while connections sit idle
        spec = WorkerSpec(params=serving_context.params, max_delay_seconds=1e-3)
        cluster = ServingCluster(
            lambda wid: LocalWorkerHandle(wid, spec), worker_count=2
        )
        tenants_, clients, trace = multi_tenant_traffic(
            serving_context, tenant_count=tenants, clients_per_tenant=1,
            requests_per_client=3,
        )
        for t in tenants_:
            t.register_with(cluster)
        return cluster, clients, trace

    async def _roundtrip(self, door, client, frames, expect=None):
        reader, writer = await asyncio.open_connection(door.host, door.port)
        writer.write(
            framing.encode_frame(
                framing.HELLO, 0, client.client_id, op=client.tenant.key_id
            )
        )
        for fr in frames:
            writer.write(fr)
        await writer.drain()
        decoder = framing.FrameDecoder()
        got = []
        want = len(frames) if expect is None else expect
        while len(got) < want:
            data = await asyncio.wait_for(reader.read(1 << 16), timeout=10)
            if not data:
                break
            got.extend(decoder.feed(data))
        writer.close()
        await writer.wait_closed()
        return got

    def test_concurrent_clients_roundtrip(self, serving_context, make_cluster):
        cluster, clients, trace = self._cluster(serving_context)
        by_client = {}
        for cid, fr in trace:
            by_client.setdefault(cid, []).append(fr)

        async def main():
            async with AsyncFrontDoor(cluster) as door:
                results = await asyncio.gather(
                    *(
                        self._roundtrip(door, c, by_client[c.client_id])
                        for c in clients
                    )
                )
            return results

        results = asyncio.run(main())
        for c, frames in zip(clients, results):
            assert len(frames) == len(by_client[c.client_id])
            for f in frames:
                assert f.kind == framing.RESPONSE, f.error_message
                # decryptable: the payload really is this tenant's bits
                c.tenant.decrypt_response(
                    framing.encode_frame(
                        f.kind, f.request_id, f.client_id, f.op, f.op_arg,
                        f.payload,
                    )
                )

    def test_request_before_hello_is_an_error(self, serving_context, make_cluster):
        cluster, clients, trace = self._cluster(serving_context)

        async def main():
            async with AsyncFrontDoor(cluster) as door:
                reader, writer = await asyncio.open_connection(door.host, door.port)
                writer.write(trace[0][1])  # REQUEST with no HELLO first
                await writer.drain()
                data = await asyncio.wait_for(reader.read(1 << 16), timeout=10)
                writer.close()
                await writer.wait_closed()
                return framing.FrameDecoder().feed(data)

        (frame,) = asyncio.run(main())
        assert frame.kind == framing.ERROR
        assert "HELLO" in frame.error_message

    def test_hello_with_unknown_tenant_is_an_error(
        self, serving_context, make_cluster
    ):
        cluster, clients, _ = self._cluster(serving_context)

        async def main():
            async with AsyncFrontDoor(cluster) as door:
                reader, writer = await asyncio.open_connection(door.host, door.port)
                writer.write(
                    framing.encode_frame(framing.HELLO, 0, "c-x", op="nope")
                )
                await writer.drain()
                data = await asyncio.wait_for(reader.read(1 << 16), timeout=10)
                writer.close()
                await writer.wait_closed()
                return framing.FrameDecoder().feed(data)

        (frame,) = asyncio.run(main())
        assert frame.kind == framing.ERROR
        assert "key_id" in frame.error_message or "tenant" in frame.error_message

    def test_corrupt_stream_serves_good_frames_then_closes(
        self, serving_context, make_cluster
    ):
        cluster, clients, trace = self._cluster(serving_context)
        client = clients[0]
        mine = [fr for cid, fr in trace if cid == client.client_id]

        async def main():
            async with AsyncFrontDoor(cluster) as door:
                reader, writer = await asyncio.open_connection(door.host, door.port)
                writer.write(
                    framing.encode_frame(
                        framing.HELLO, 0, client.client_id,
                        op=client.tenant.key_id,
                    )
                )
                # one good frame, then garbage that can never resync
                writer.write(mine[0] + b"\xde\xad\xbe\xef" * 4)
                await writer.drain()
                decoder = framing.FrameDecoder()
                got = []
                while True:
                    data = await asyncio.wait_for(reader.read(1 << 16), timeout=10)
                    if not data:
                        break  # server closed on us, as it must
                    got.extend(decoder.feed(data))
                writer.close()
                await writer.wait_closed()
                return got

        frames = asyncio.run(main())
        # the good frame ahead of the corruption was still served
        assert [f.kind for f in frames] == [framing.RESPONSE]
