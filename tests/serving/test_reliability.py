"""End-to-end reliability: frame integrity, idempotent retry, deadlines.

The acceptance bar of the reliability layer, as executable checks:

* **Frame integrity** -- every single-byte corruption of a v2 frame is
  caught by the CRC (an exhaustive sweep over byte offsets), corruption
  mid-stream never poisons neighbouring frames, and a client recovers
  by resending the identical bytes.
* **Idempotent retry** -- a retried request is never executed twice:
  a retry of a completed request replays the cached response
  *bit-identically*, a retry of an in-flight request is refused with a
  retryable error, and neither counts as a new submission.
* **Deadline propagation** -- client-stamped absolute deadlines are
  enforced at router admission, pull batch flushes forward, and answer
  a request expiring *exactly* at the flush instant with a DEADLINE
  error rather than serving it late.
* **Conservation** -- in every scenario, including the seeded chaos
  run mixing kills, restarts, corruption and retries:
  ``completed + shed + failed_over + expired == submitted``.
"""

from __future__ import annotations

import asyncio
import random
import struct

import pytest

from repro.serving import framing
from repro.serving.cluster import (
    AsyncFrontDoor,
    HashRing,
    ServingCluster,
    UnknownWorkerError,
)
from repro.serving.clock import ExponentialBackoff, ManualClock
from repro.serving.server import EncryptedComputeServer
from repro.serving.session import UnknownClientError
from repro.serving.supervisor import HeartbeatSupervisor
from repro.serving.traffic import ResilientClient, SyntheticClient, SyntheticTenant
from repro.serving.worker import LocalWorkerHandle, WorkerSpec


def conservation(report):
    return (
        report.completed
        + report.shed_requests
        + report.failed_over_requests
        + report.expired_requests
    ) == report.submitted


def settle(cluster, clock, steps=4, dt=0.01):
    """Pump until pending lanes have aged past any flush deadline."""
    for _ in range(steps):
        cluster.pump()
        clock.advance(dt)
    cluster.drain()


class FlakyTransport:
    """Wraps a cluster, corrupting chosen ``receive`` calls by one byte.

    The flipped byte sits inside the frame magic, so both v1 and v2
    decoders reject the frame; everything else delegates to the real
    cluster, which is what lets a :class:`ResilientClient` run its
    normal protocol over a corrupting wire.
    """

    def __init__(self, cluster, corrupt_calls=()):
        self._cluster = cluster
        self._corrupt_calls = set(corrupt_calls)
        self.calls = 0
        self.corruptions = 0

    def receive(self, client_id, data):
        self.calls += 1
        if self.calls in self._corrupt_calls:
            self.corruptions += 1
            mangled = bytearray(data)
            mangled[5] ^= 0xFF  # inside the magic, after the length prefix
            self._cluster.receive(client_id, bytes(mangled))
            return
        self._cluster.receive(client_id, data)

    def __getattr__(self, name):
        return getattr(self._cluster, name)


# ----------------------------------------------------------------------
# frame integrity (CRC)
# ----------------------------------------------------------------------
class TestFrameIntegrity:
    def _v2_frame(self):
        return framing.encode_frame(
            framing.REQUEST,
            7,
            "client-crc",
            op="square",
            op_arg=3,
            payload=bytes(range(64)),
            deadline=1.5,
            frame_version=framing.FRAME_V2,
        )

    def test_every_single_byte_corruption_is_caught(self):
        """Exhaustive sweep: flip each byte past the length prefix; the
        CRC (or a header check) must reject every one of them."""
        frame = self._v2_frame()
        for offset in range(4, len(frame)):
            mangled = bytearray(frame)
            mangled[offset] ^= 0xFF
            with pytest.raises(framing.StreamProtocolError):
                framing.FrameDecoder().feed(bytes(mangled))

    def test_length_prefix_corruption_never_yields_a_frame(self):
        """Corrupting the length prefix may make the decoder wait for
        bytes that never come -- fine -- but it must never hand back a
        decoded frame."""
        frame = self._v2_frame()
        for offset in range(4):
            mangled = bytearray(frame)
            mangled[offset] ^= 0xFF
            decoder = framing.FrameDecoder()
            try:
                frames = decoder.feed(bytes(mangled))
            except framing.StreamProtocolError:
                continue
            assert frames == []

    def test_corruption_mid_stream_spares_neighbours(
        self, make_cluster, tenant, make_client, manual_clock
    ):
        """frame1 | corrupt | frame3: frame1 is admitted, the stream
        errors, and a fresh resend of frame3 goes through -- the decoder
        was reset, not left wedged on the corrupt bytes."""
        cluster = make_cluster(worker_count=2)
        tenant.register_with(cluster)
        client = make_client()
        client.connect_cluster(cluster)
        cid = client.client_id

        good1 = client.request_bytes("square", [1.0, 2.0])
        bad = bytearray(client.request_bytes("square", [3.0]))
        bad[5] ^= 0xFF
        good3 = client.request_bytes("double", [4.0])
        with pytest.raises(framing.StreamProtocolError):
            cluster.receive(cid, good1 + bytes(bad) + good3)
        assert cluster.report.submitted == 1  # only frame1 got through

        cluster.receive(cid, good3)  # identical-bytes resend, clean wire
        settle(cluster, manual_clock)
        blobs = cluster.take_outbox(cid)
        assert len(blobs) == 2
        assert {framing.decode_frame(b).kind for b in blobs} == {framing.RESPONSE}
        assert conservation(cluster.report)

    @pytest.mark.parametrize("door", ["server", "cluster"])
    def test_one_corrupt_frame_does_not_wedge_the_session(
        self, door, serving_context, make_cluster, tenant, manual_clock
    ):
        """One ingress rule behind both front doors: the frame decoded
        ahead of a CRC mismatch is answered, the stream error is raised
        once, and the session's next good frame is served -- a
        standalone server used to re-raise the stale error on every
        later frame of that client, who cannot re-register."""
        client = SyntheticClient(tenant, "crc-c", seed=9, frame_version=2)
        if door == "server":
            front = EncryptedComputeServer(serving_context, clock=manual_clock)
            client.connect(front)
            take = lambda: front.sessions.get(client.client_id).take_outbox()
        else:
            front = make_cluster(worker_count=2)
            tenant.register_with(front)
            client.connect_cluster(front)
            take = lambda: front.take_outbox(client.client_id)

        ahead = client.request_bytes("square", [3.0])
        bad = bytearray(client.request_bytes("double", [1.0]))
        bad[-1] ^= 0xFF  # the CRC trailer itself
        with pytest.raises(framing.StreamProtocolError, match="CRC"):
            front.receive(client.client_id, ahead + bytes(bad))
        for step, value in enumerate([5.0, 7.0]):
            # good frames after the corruption, whole and split mid-frame
            good = client.request_bytes("double", [value])
            cut = len(good) // 2 if step else len(good)
            front.receive(client.client_id, good[:cut])
            front.receive(client.client_id, good[cut:])
        front.drain()
        answers = [tenant.decrypt_response(blob)[1][0].real for blob in take()]
        assert sorted(round(v) for v in answers) == [9, 10, 14]

    def test_resilient_client_resends_through_corruption(
        self, make_cluster, tenant, manual_clock
    ):
        """The client-side half: a CRC-corrupted send raises at the
        transport, and the client resends the identical bytes once."""
        cluster = make_cluster(worker_count=2)
        tenant.register_with(cluster)
        client = SyntheticClient(tenant, "flaky-c", seed=5)
        wire = FlakyTransport(cluster, corrupt_calls={2})
        rc = ResilientClient(client, wire)
        rc.connect()

        rc.submit("square", [1.0, 2.0])  # call 1: clean
        rid = rc.submit("double", [3.0])  # call 2: corrupted, resent as 3
        assert wire.corruptions == 1
        assert rc.corruption_resends == 1

        settle(cluster, manual_clock)
        rc.poll()
        assert rc.outstanding == 0
        assert not rc.failures
        assert rid in rc.responses
        assert cluster.report.submitted == 2  # the corrupt copy never counted
        assert conservation(cluster.report)


# ----------------------------------------------------------------------
# idempotent retry
# ----------------------------------------------------------------------
class TestIdempotentRetry:
    def test_retry_of_completed_request_replays_bit_identically(
        self, make_cluster, tenant, make_client, manual_clock
    ):
        cluster = make_cluster(worker_count=2)
        tenant.register_with(cluster)
        client = make_client()
        worker_id = client.connect_cluster(cluster)
        cid = client.client_id

        data = client.request_bytes("square", [1.5, 2.5])
        cluster.receive(cid, data)
        settle(cluster, manual_clock)
        (original,) = cluster.take_outbox(cid)
        assert framing.decode_frame(original).kind == framing.RESPONSE

        # the client never saw the response (say its link dropped) and
        # retries the *exact same bytes*
        cluster.receive(cid, data)
        (replayed,) = cluster.take_outbox(cid)
        assert replayed == original  # bit-identical replay
        assert cluster.report.dedup_hits == 1
        assert cluster.report.submitted == 1  # retry is not a submission
        # and the worker executed it exactly once
        assert cluster.worker_stats()[worker_id].request_count == 1
        assert conservation(cluster.report)

    def test_retry_of_inflight_request_is_refused_retryably(
        self, make_cluster, tenant, make_client, manual_clock
    ):
        cluster = make_cluster(worker_count=1)
        tenant.register_with(cluster)
        client = make_client()
        client.connect_cluster(cluster)
        cid = client.client_id

        data = client.request_bytes("square", [1.0])
        cluster.receive(cid, data)
        cluster.receive(cid, data)  # impatient duplicate, original pending
        (refusal,) = cluster.take_outbox(cid)
        frame = framing.decode_frame(refusal)
        assert frame.kind == framing.ERROR
        assert framing.is_retryable_error(frame)
        assert cluster.report.duplicate_inflight == 1
        assert cluster.report.submitted == 1

        settle(cluster, manual_clock)
        (response,) = cluster.take_outbox(cid)
        assert framing.decode_frame(response).kind == framing.RESPONSE
        assert conservation(cluster.report)

    def test_dedup_cache_is_bounded_lru(
        self, make_cluster, tenant, make_client, manual_clock, monkeypatch
    ):
        """Beyond the window a retry re-executes (safe: ops are pure),
        and recently-replayed entries are the ones kept."""
        monkeypatch.setattr("repro.serving.cluster.DEDUP_CACHE_SIZE", 2)
        cluster = make_cluster(worker_count=1)
        tenant.register_with(cluster)
        client = make_client()
        client.connect_cluster(cluster)
        cid = client.client_id

        sent = []
        for i in range(3):
            data = client.request_bytes("square", [float(i + 1)])
            sent.append(data)
            cluster.receive(cid, data)
        settle(cluster, manual_clock)
        assert len(cluster.take_outbox(cid)) == 3
        assert cluster.report.submitted == 3

        # request 0 was evicted (window is 2): its retry re-executes
        cluster.receive(cid, sent[0])
        settle(cluster, manual_clock)
        assert cluster.report.dedup_hits == 0
        assert cluster.report.submitted == 4
        # request 2 is still cached: replay, no execution
        cluster.receive(cid, sent[2])
        assert cluster.report.dedup_hits == 1
        assert cluster.report.submitted == 4
        assert conservation(cluster.report)


# ----------------------------------------------------------------------
# deadline propagation
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_expired_at_router_admission(
        self, make_cluster, tenant, make_client, manual_clock
    ):
        cluster = make_cluster(worker_count=2)
        tenant.register_with(cluster)
        client = make_client()
        client.connect_cluster(cluster)
        manual_clock.advance(1.0)

        cluster.receive(
            client.client_id,
            client.request_bytes("square", [1.0], deadline=0.5),
        )
        (blob,) = cluster.take_outbox(client.client_id)
        frame = framing.decode_frame(blob)
        assert frame.kind == framing.ERROR
        assert framing.error_class(frame) == framing.ERR_DEADLINE
        assert not framing.is_retryable_error(frame)
        assert cluster.report.expired_requests == 1
        assert cluster.report.submitted == 1
        assert conservation(cluster.report)

    def test_expired_at_worker_admission(self, serving_context, manual_clock):
        """The worker-side admission check, exercised directly: a frame
        whose deadline passed in transit is expired before its payload
        is even decoded."""
        server = EncryptedComputeServer(serving_context, clock=manual_clock)
        tenant = SyntheticTenant(serving_context, seed=11)
        client = SyntheticClient(tenant, "late", seed=1)
        client.connect(server)
        data = client.request_bytes("square", [1.0], deadline=0.5)
        manual_clock.advance(1.0)  # ...slow network...
        server.receive("late", data)
        assert server.report.expired_requests == 1
        (blob,) = server.collect_outboxes()["late"]
        frame = framing.decode_frame(blob)
        assert framing.error_class(frame) == framing.ERR_DEADLINE

    def test_deadline_expiring_exactly_at_flush_time(
        self, make_cluster, tenant, make_client, manual_clock
    ):
        """The deadline both pulls the flush forward (0.001 < the 0.002
        batcher delay) and, being exactly `now` at that flush, expires
        the request -- the boundary is answered DEADLINE, never served
        late."""
        cluster = make_cluster(worker_count=1)
        tenant.register_with(cluster)
        client = make_client()
        client.connect_cluster(cluster)
        cid = client.client_id

        cluster.receive(cid, client.request_bytes("square", [1.0], deadline=0.001))
        cluster.pump()  # queue -> lane at t=0; lane not yet due
        assert cluster.take_outbox(cid) == []
        manual_clock.advance(0.001)  # now == deadline, < max_delay
        cluster.pump()
        (blob,) = cluster.take_outbox(cid)
        frame = framing.decode_frame(blob)
        assert frame.kind == framing.ERROR
        assert framing.error_class(frame) == framing.ERR_DEADLINE
        assert cluster.report.expired_requests == 1
        assert conservation(cluster.report)

    def test_mixed_lane_expires_only_the_dead_member(
        self, make_cluster, tenant, make_client, manual_clock
    ):
        """Two requests share a batch lane; one's deadline passes while
        batching.  The expired one gets DEADLINE, the survivor executes
        in the (now smaller) flush -- pulled forward by the deadline."""
        cluster = make_cluster(worker_count=1)
        tenant.register_with(cluster)
        hurried, relaxed = make_client(), make_client()
        worker_id = hurried.connect_cluster(cluster)
        relaxed.connect_cluster(cluster)

        cluster.receive(
            hurried.client_id,
            hurried.request_bytes("square", [1.0, 2.0], deadline=0.001),
        )
        cluster.receive(
            relaxed.client_id, relaxed.request_bytes("square", [3.0, 4.0])
        )
        cluster.pump()  # both enter the same lane
        manual_clock.advance(0.001)  # hurried's deadline, < batcher delay
        cluster.pump()

        (blob,) = cluster.take_outbox(hurried.client_id)
        assert framing.error_class(framing.decode_frame(blob)) == framing.ERR_DEADLINE
        (blob,) = cluster.take_outbox(relaxed.client_id)
        rid, values = tenant.decrypt_response(blob)
        assert values[0] == pytest.approx(9.0, rel=1e-3, abs=1e-3)
        stats = cluster.worker_stats()[worker_id]
        assert stats.expired_requests == 1
        assert stats.request_count == 1
        report = cluster.report
        assert report.expired_requests == 1 and report.completed == 1
        assert conservation(report)


# ----------------------------------------------------------------------
# the resilient client's retry policy
# ----------------------------------------------------------------------
class TestResilientClient:
    def _backoff(self):
        return ExponentialBackoff(base=0.05, factor=2.0, jitter=0.0, seed=0)

    def test_shed_request_is_retried_to_success(
        self, make_cluster, tenant, manual_clock
    ):
        cluster = make_cluster(worker_count=1, max_inflight=1)
        tenant.register_with(cluster)
        client = SyntheticClient(tenant, "rc-ok", seed=3)
        rc = ResilientClient(client, cluster, backoff=self._backoff())
        rc.connect()

        first = rc.submit("double", [1.0])
        shed = rc.submit("double", [2.0])  # over max_inflight: shed
        assert cluster.report.shed_requests == 1
        rc.poll()  # classifies the shed as retryable, schedules resend
        assert shed in rc._retry_at and not rc.failures

        settle(cluster, manual_clock)  # completes `first`, frees capacity
        rc.poll()
        assert first in rc.responses
        manual_clock.advance(0.05)  # cross the backoff delay
        rc.poll()  # resend happens here
        assert rc.retries_sent == 1
        settle(cluster, manual_clock)
        rc.poll()
        assert rc.outstanding == 0
        assert shed in rc.responses and not rc.failures
        report = cluster.report
        assert report.shed_requests == 1 and report.completed == 2
        assert conservation(report)

    def test_fatal_error_is_terminal(self, make_cluster, tenant, manual_clock):
        cluster = make_cluster(worker_count=1)
        tenant.register_with(cluster)
        client = SyntheticClient(tenant, "rc-fatal", seed=4)
        rc = ResilientClient(client, cluster, backoff=self._backoff())
        rc.connect()
        rid = rc.submit("transmogrify", [1.0])  # op nobody implements
        settle(cluster, manual_clock)
        rc.poll()
        assert rc.retries_sent == 0
        assert rc.failures[rid].startswith(framing.ERR_FATAL)
        assert rc.outstanding == 0

    def test_deadline_error_is_terminal(self, make_cluster, tenant, manual_clock):
        cluster = make_cluster(worker_count=1)
        tenant.register_with(cluster)
        client = SyntheticClient(tenant, "rc-late", seed=5)
        rc = ResilientClient(client, cluster, backoff=self._backoff())
        rc.connect()
        manual_clock.advance(1.0)
        rid = rc.submit("double", [1.0], deadline=0.5)
        rc.poll()
        assert rc.retries_sent == 0
        assert rc.failures[rid].startswith(framing.ERR_DEADLINE)
        assert conservation(cluster.report)

    def test_retries_exhaust_into_failure(self, make_cluster, tenant, manual_clock):
        """max_inflight=0 sheds everything: after max_attempts retries
        the client gives up and records the failure."""
        cluster = make_cluster(worker_count=1, max_inflight=0)
        tenant.register_with(cluster)
        client = SyntheticClient(tenant, "rc-doomed", seed=6)
        rc = ResilientClient(client, cluster, max_attempts=2, backoff=self._backoff())
        rc.connect()
        rid = rc.submit("double", [1.0])
        for _ in range(6):
            manual_clock.advance(0.5)  # past any backoff delay
            rc.poll()
        assert rc.retries_sent == 2
        assert rc.failures[rid].startswith(framing.ERR_RETRYABLE)
        assert rc.outstanding == 0
        report = cluster.report
        assert report.submitted == report.shed_requests == 3
        assert conservation(report)


# ----------------------------------------------------------------------
# seeded chaos: kills, restarts, corruption, retries, deadlines
# ----------------------------------------------------------------------
class TestChaos:
    def test_seeded_chaos_conserves_and_recovers(
        self, serving_context, make_cluster, manual_clock
    ):
        """A deterministic storm: workers crash mid-traffic (the
        supervisor detects and restarts them), the wire corrupts chosen
        sends, some requests carry tight deadlines, and every client
        retries through it.  At the end every request is settled, the
        books balance, and every response decrypts to the right value."""
        rng = random.Random(20200807)
        cluster = make_cluster(worker_count=3)
        sup = HeartbeatSupervisor(
            cluster,
            probe_interval=0.02,
            miss_threshold=2,
            probation_window=0.2,
            quarantine_window=0.5,
            flap_threshold=3,
            backoff_base=0.05,
            backoff_factor=2.0,
            backoff_jitter=0.1,
            seed=42,
        )
        tenants = [
            SyntheticTenant(serving_context, seed=500 + 7 * t, key_id=f"chaos-t{t}")
            for t in range(3)
        ]
        for t in tenants:
            t.register_with(cluster)
        wire = FlakyTransport(cluster, corrupt_calls={5, 19, 33, 47})
        rcs = []
        for t in tenants:
            client = SyntheticClient(t, f"{t.key_id}-c0", seed=900 + len(rcs))
            rc = ResilientClient(
                client,
                wire,
                max_attempts=8,
                backoff=ExponentialBackoff(base=0.02, jitter=0.0, seed=len(rcs)),
            )
            rc.connect()
            rcs.append(rc)

        expect = {}  # (client_id, request_id) -> expected slot-0 value
        kill_steps = {8, 20, 32}
        for step in range(40):
            rc = rcs[step % len(rcs)]
            v = 0.25 + (step % 7) * 0.125
            if step % 3 == 0:
                op, expected = "square", v * v
            else:
                op, expected = "double", 2 * v
            deadline = (
                manual_clock.now + 0.001 if step % 10 == 9 else 0.0
            )  # every 10th request is nearly dead on arrival
            rid = rc.submit(op, [v], deadline=deadline)
            expect[(rc.client.client_id, rid)] = expected

            if step in kill_steps and len(cluster.ring) >= 2:
                victim = rng.choice(cluster.ring.worker_ids)
                cluster.workers[victim].kill()
            manual_clock.advance(0.02)
            cluster.pump()
            sup.tick()
            for r in rcs:
                r.poll()

        # let the storm settle: supervisor restarts what it must, the
        # clients retry what they must
        for _ in range(400):
            if all(r.outstanding == 0 for r in rcs):
                break
            manual_clock.advance(0.02)
            cluster.pump()
            sup.tick()
            for r in rcs:
                r.poll()
        assert all(r.outstanding == 0 for r in rcs)

        # the chaos actually happened
        assert sup.stats.deaths >= 1
        assert sup.stats.restarts >= 1
        assert wire.corruptions >= 1
        assert sum(r.retries_sent for r in rcs) >= 1
        assert cluster.report.expired_requests >= 1

        # conservation across kills, sheds, retries and expiries
        assert conservation(cluster.report)
        assert len(cluster.ring) == 3  # everyone restarted and rejoined

        # every settled answer is correct; failures are only deadline
        # expiries (nothing vanished, nothing failed fatally)
        for rc in rcs:
            tenant = rc.client.tenant
            for rid, blob in rc.responses.items():
                got_rid, values = tenant.decrypt_response(blob)
                assert got_rid == rid
                want = expect[(rc.client.client_id, rid)]
                assert values[0] == pytest.approx(want, rel=1e-3, abs=1e-3)
            for rid, why in rc.failures.items():
                assert why.startswith(framing.ERR_DEADLINE), why


# ----------------------------------------------------------------------
# regression: unknown ids are loud errors, not silent defaults
# ----------------------------------------------------------------------
class TestUnknownIdsAreLoud:
    def test_take_outbox_unknown_client(self, make_cluster):
        cluster = make_cluster(worker_count=1)
        with pytest.raises(UnknownClientError):
            cluster.take_outbox("never-registered")

    def test_client_inflight_unknown_client(self, make_cluster):
        cluster = make_cluster(worker_count=1)
        with pytest.raises(UnknownClientError):
            cluster.client_inflight("never-registered")

    def test_hash_ring_remove_absent_worker(self):
        ring = HashRing()
        ring.add("w0")
        with pytest.raises(UnknownWorkerError):
            ring.remove("w1")
        ring.remove("w0")
        with pytest.raises(UnknownWorkerError):
            ring.remove("w0")  # double remove is just as loud


# ----------------------------------------------------------------------
# frame-protocol negotiation at HELLO (socket layer)
# ----------------------------------------------------------------------
def envelope_versions(buf: bytes):
    """The frame-protocol version byte of each frame in a raw stream."""
    versions, pos = [], 0
    while pos < len(buf):
        (length,) = struct.unpack_from("<I", buf, pos)
        versions.append(buf[pos + 8])  # after length prefix + magic
        pos += 4 + length
    return versions


class TestFrameProtocolNegotiation:
    def _cluster(self, serving_context):
        spec = WorkerSpec(params=serving_context.params, max_delay_seconds=1e-3)
        cluster = ServingCluster(
            lambda wid: LocalWorkerHandle(wid, spec), worker_count=2
        )
        tenant = SyntheticTenant(serving_context, seed=77, key_id="fp-t")
        tenant.register_with(cluster)
        client = SyntheticClient(tenant, "fp-c", seed=1)
        return cluster, client

    def _run(self, serving_context, hello_payload):
        cluster, client = self._cluster(serving_context)

        async def main():
            async with AsyncFrontDoor(cluster) as door:
                reader, writer = await asyncio.open_connection(door.host, door.port)
                writer.write(
                    framing.encode_frame(
                        framing.HELLO, 0, client.client_id,
                        op=client.tenant.key_id, payload=hello_payload,
                    )
                )
                writer.write(client.request_bytes("square", [2.0]))
                await writer.drain()
                decoder = framing.FrameDecoder()
                got, raw = [], b""
                want = 1 + (1 if hello_payload else 0)
                while len(got) < want:
                    data = await asyncio.wait_for(reader.read(1 << 16), timeout=10)
                    if not data:
                        break
                    raw += data
                    got.extend(decoder.feed(data))
                writer.close()
                await writer.wait_closed()
                return got, raw

        try:
            return asyncio.run(main())
        finally:
            cluster.stop()

    def test_v2_frames_negotiated_and_used(self, serving_context):
        (ack, response), raw = self._run(serving_context, hello_payload=bytes([2]))
        assert ack.kind == framing.RESPONSE and ack.op == "hello"
        assert ack.payload == bytes([framing.FRAME_V2])
        assert response.kind == framing.RESPONSE
        # both the ack and the response ride the negotiated v2 envelope
        assert envelope_versions(raw) == [framing.FRAME_V2, framing.FRAME_V2]

    def test_future_frame_version_negotiated_down(self, serving_context):
        (ack, _), _ = self._run(serving_context, hello_payload=bytes([9]))
        assert ack.payload == bytes([framing.LATEST_FRAME_VERSION])

    def test_legacy_hello_stays_v1(self, serving_context):
        (response,), raw = self._run(serving_context, hello_payload=b"")
        assert response.op != "hello"
        assert response.kind == framing.RESPONSE
        assert envelope_versions(raw) == [framing.FRAME_VERSION]
