"""End-to-end serving: correctness, batching equivalence, backpressure,
error handling, and system-model accounting."""

import numpy as np
import pytest

from repro.ckks.serialization import (
    ciphertext_wire_bytes,
    deserialize_ciphertext,
    serialize_ciphertext,
    serialize_kswitch_key,
)
from repro.serving import framing
from repro.serving.server import EncryptedComputeServer
from repro.serving.session import UnknownClientError
from repro.serving.traffic import synthetic_traffic
from repro.system.pcie import PcieModel


def serve(server, tenant, clients, stream):
    for client in clients:
        client.connect(server)
    for client_id, data in stream:
        server.receive(client_id, data)
    return server.drain()


def collect_responses(server, clients):
    """(client_id, request_id) -> decoded response frame."""
    out = {}
    for client in clients:
        for blob in server.sessions.get(client.client_id).take_outbox():
            frame = framing.decode_frame(blob)
            out[(client.client_id, frame.request_id)] = frame
    return out


class TestEndToEnd:
    def test_square_responses_decrypt_correctly(self, serving_context, tenant):
        server = EncryptedComputeServer(serving_context, max_batch_size=4)
        clients, stream = synthetic_traffic(tenant, 4, 2, op="square", seed=31)
        completed = serve(server, tenant, clients, stream)
        assert completed == 8
        responses = collect_responses(server, clients)
        assert len(responses) == 8
        slots = serving_context.params.slot_count
        for (client_id, request_id), frame in responses.items():
            assert frame.kind == framing.RESPONSE and frame.op == "square"
            i = int(client_id.split("-")[1])
            expected = [
                (i + 1) / (request_id + j + 2) for j in range(min(slots, 4))
            ]
            _, values = tenant.decrypt_response(
                framing.encode_frame(
                    frame.kind, frame.request_id, client_id, payload=frame.payload
                )
            )
            got = np.array(values[: len(expected)]).real
            assert np.allclose(got, np.array(expected) ** 2, atol=1e-2)

    def test_batched_equals_sequential_bit_for_bit(self, serving_context, tenant):
        """The acceptance criterion: dynamic batching must not change bits."""

        def run(max_batch_size):
            server = EncryptedComputeServer(
                serving_context, max_batch_size=max_batch_size
            )
            clients, stream = synthetic_traffic(
                tenant,
                4,
                2,
                seed=77,
                ops=[("square", 0), ("rotate", 1), ("rescale", 0), ("double", 0)],
            )
            serve(server, tenant, clients, stream)
            return (
                {
                    key: frame.payload
                    for key, frame in collect_responses(server, clients).items()
                },
                server.report,
            )

        sequential, seq_report = run(max_batch_size=1)
        batched, batch_report = run(max_batch_size=4)
        assert seq_report.singleton_count == seq_report.flush_count  # all scalar
        assert batch_report.mean_batch_size > 1.0  # batching actually happened
        assert sequential.keys() == batched.keys()
        for key in sequential:
            assert sequential[key] == batched[key], f"bit mismatch for {key}"

    def test_mixed_level_requests_split_lanes(self, serving_context, tenant, make_client):
        """A rescaled ciphertext must not share a flush with a fresh one."""
        server = EncryptedComputeServer(serving_context, max_batch_size=8)
        client = make_client()
        client.connect(server)
        fresh = client.request_bytes("double", [1.0])
        # build a lower-level request by hand: rescale drops one prime
        frame = framing.decode_frame(client.request_bytes("double", [1.0]))
        ct = deserialize_ciphertext(frame.payload, serving_context)
        dropped = tenant.keygen  # reuse tenant context only
        from repro.ckks.evaluator import Evaluator

        low = Evaluator(serving_context).rescale(
            Evaluator(serving_context).multiply_plain(
                ct, tenant.encoder.encode(1.0)
            )
        )
        low_frame = framing.encode_frame(
            framing.REQUEST, 99, client.client_id, op="double",
            payload=serialize_ciphertext(low),
        )
        server.receive(client.client_id, fresh)
        server.receive(client.client_id, low_frame)
        server.drain()
        assert server.report.flush_count == 2
        assert server.report.singleton_count == 2

    def test_singleton_falls_back_to_scalar_path(self, serving_context, tenant, make_client):
        server = EncryptedComputeServer(serving_context, max_batch_size=8)
        client = make_client()
        client.connect(server)
        server.receive(client.client_id, client.request_bytes("square", [2.0]))
        assert server.drain() == 1
        (flush,) = server.report.flushes
        assert flush.batch_size == 1 and not flush.batched

    def test_deadline_flush_with_manual_clock(self, serving_context, tenant, make_client):
        now = {"t": 0.0}
        server = EncryptedComputeServer(
            serving_context,
            max_batch_size=8,
            max_delay_seconds=0.010,
            clock=lambda: now["t"],
        )
        client = make_client()
        client.connect(server)
        server.receive(client.client_id, client.request_bytes("square", [1.0]))
        server.receive(client.client_id, client.request_bytes("square", [2.0]))
        assert server.pump() == 0  # under-filled lane, deadline not reached
        now["t"] = 0.005
        assert server.pump() == 0
        now["t"] = 0.011
        assert server.pump() == 2  # deadline expired: flush at width 2
        (flush,) = server.report.flushes
        assert flush.batch_size == 2 and flush.batched


class TestBareOpsAreNotPlanChecked:
    """Every flush runs as a plan, but only *program* flushes run the
    plan checker.  Its headroom rule (scale^2 must leave 12 bits under
    the modulus budget) rejects a Set-A-shaped ``square`` -- scale 2^28
    at two ~30-bit levels -- which the evaluator serves correctly, so
    bare ops keep relying on the evaluator's own errors."""

    @pytest.mark.parametrize("width", [1, 3])
    def test_set_a_shaped_square_is_answered(self, width):
        from repro.ckks.context import CkksContext, toy_parameters
        from repro.plan import PlanGraph, PlanValidationError, check_plan
        from repro.serving.traffic import SyntheticClient, SyntheticTenant

        ctx = CkksContext(toy_parameters(n=64, k=2, prime_bits=30, scale=2.0**28))
        # the trap: the checker refuses exactly this request shape
        graph = PlanGraph()
        graph.output(graph.square(graph.input("x")), "y")
        with pytest.raises(PlanValidationError, match="headroom"):
            check_plan(graph, ctx)

        tenant = SyntheticTenant(ctx, seed=515, key_id="set-a-shaped")
        server = EncryptedComputeServer(ctx, max_batch_size=4)
        clients = [
            SyntheticClient(tenant, f"sq-{i}", seed=520 + i) for i in range(width)
        ]
        for i, client in enumerate(clients):
            client.connect(server)
            server.receive(
                client.client_id, client.request_bytes("square", [0.5 + i, -0.25])
            )
        assert server.drain() == width
        for i, client in enumerate(clients):
            (blob,) = server.sessions.get(client.client_id).take_outbox()
            assert framing.decode_frame(blob).kind == framing.RESPONSE
            _, values = tenant.decrypt_response(blob)
            np.testing.assert_allclose(
                np.array(values[:2]).real, [(0.5 + i) ** 2, 0.0625], atol=1e-2
            )


class TestAdmissionControl:
    def test_backpressure_produces_error_frames(self, serving_context, tenant, make_client):
        server = EncryptedComputeServer(serving_context, max_pending=2)
        client = make_client()
        client.connect(server)
        for _ in range(3):
            server.receive(client.client_id, client.request_bytes("double", [1.0]))
        session = server.sessions.get(client.client_id)
        assert session.requests_accepted == 2
        assert session.requests_rejected == 1
        errors = [
            framing.decode_frame(b)
            for b in session.take_outbox()
            if framing.decode_frame(b).kind == framing.ERROR
        ]
        assert len(errors) == 1
        assert "queue full" in errors[0].error_message
        assert server.report.rejected_requests == 1
        assert server.drain() == 2  # the admitted two still complete

    def test_unknown_client_rejected(self, serving_context):
        server = EncryptedComputeServer(serving_context)
        with pytest.raises(UnknownClientError):
            server.receive("nobody", b"")

    def test_truncated_ciphertext_payload_is_error_not_zeros(
        self, serving_context, tenant, make_client
    ):
        """The wire-format fix surfaces as an ERROR frame, not bad math."""
        server = EncryptedComputeServer(serving_context)
        client = make_client()
        client.connect(server)
        good = framing.decode_frame(client.request_bytes("double", [1.0]))
        server.submit_frame(
            client.client_id,
            framing.Frame(
                framing.REQUEST, 5, client.client_id, "double", 0,
                good.payload[:-8],
            ),
        )
        (blob,) = server.sessions.get(client.client_id).take_outbox()
        frame = framing.decode_frame(blob)
        assert frame.kind == framing.ERROR
        assert "truncated" in frame.error_message

    def test_unknown_op_rejected(self, serving_context, tenant, make_client):
        server = EncryptedComputeServer(serving_context)
        client = make_client()
        client.connect(server)
        server.receive(client.client_id, client.request_bytes("transmogrify", [1.0]))
        (blob,) = server.sessions.get(client.client_id).take_outbox()
        assert "unknown op" in framing.decode_frame(blob).error_message

    def test_keyed_op_without_key_rejected(self, serving_context, tenant, make_client):
        server = EncryptedComputeServer(serving_context)
        client = make_client()
        server.register_client(client.client_id)  # no keys cached
        server.receive(client.client_id, client.request_bytes("square", [1.0]))
        (blob,) = server.sessions.get(client.client_id).take_outbox()
        assert "relinearization" in framing.decode_frame(blob).error_message

    def test_infeasible_op_fails_flush_gracefully(
        self, serving_context, tenant, make_client
    ):
        server = EncryptedComputeServer(serving_context)
        client = make_client()
        client.connect(server)
        # step 2 has no Galois key in the tenant's set ([1] + conjugation)
        server.receive(client.client_id, client.request_bytes("rotate", [1.0], op_arg=2))
        assert server.drain() == 1
        (blob,) = server.sessions.get(client.client_id).take_outbox()
        frame = framing.decode_frame(blob)
        assert frame.kind == framing.ERROR and "op failed" in frame.error_message


class TestKeyUpload:
    def test_relin_key_uploaded_over_wire(self, serving_context, tenant, make_client):
        server = EncryptedComputeServer(serving_context)
        client = make_client()
        server.open_session(
            client.client_id, tenant.key_id,
            relin_blob=serialize_kswitch_key(tenant.relin_key),
        )
        server.receive(client.client_id, client.request_bytes("square", [3.0]))
        server.drain()
        (blob,) = server.sessions.get(client.client_id).take_outbox()
        _, values = tenant.decrypt_response(blob)
        assert abs(values[0].real - 9.0) < 1e-2

    def test_wrong_ring_key_rejected_at_upload(self, serving_context, tenant, make_client):
        from repro.ckks.context import CkksContext, toy_parameters
        from repro.ckks.keys import KeyGenerator

        other = CkksContext(toy_parameters(n=32, k=3, prime_bits=30))
        foreign = KeyGenerator(other, seed=5).relin_key()
        server = EncryptedComputeServer(serving_context)
        client = make_client()
        with pytest.raises(ValueError, match="ring mismatch"):
            server.open_session(
                client.client_id, "foreign",
                relin_blob=serialize_kswitch_key(foreign),
            )
        # rejected at the upload boundary: nothing was opened or cached
        assert client.client_id not in server.sessions
        server.open_session(
            client.client_id, "foreign",
            relin_blob=serialize_kswitch_key(tenant.relin_key),
        )
        assert server.sessions.get(client.client_id).relin_key is not None

    def test_truncated_key_rejected_at_upload(self, serving_context, tenant, make_client):
        server = EncryptedComputeServer(serving_context)
        client = make_client()
        blob = serialize_kswitch_key(tenant.relin_key)
        with pytest.raises(ValueError):
            server.open_session(client.client_id, tenant.key_id, relin_blob=blob[:-8])
        assert client.client_id not in server.sessions

    def test_sessions_of_one_key_id_share_the_cached_objects(
        self, serving_context, tenant
    ):
        """Blobs are read once per key_id: a second session -- and a
        refresh of the first -- gets the same key objects (one lane)."""
        server = EncryptedComputeServer(serving_context)
        blob = serialize_kswitch_key(tenant.relin_key)
        a = server.open_session("a", tenant.key_id, relin_blob=blob)
        b = server.open_session("b", tenant.key_id)
        assert a.relin_key is b.relin_key is not None
        assert server.open_session("a", tenant.key_id, frame_version=2) is a
        assert a.relin_key is b.relin_key and a.frame_version == 2


class TestSystemModelIntegration:
    def test_scheduled_ops_carry_wire_accurate_bytes(
        self, serving_context, tenant, make_client
    ):
        server = EncryptedComputeServer(serving_context, max_batch_size=2)
        client = make_client()
        client.connect(server)
        server.receive(client.client_id, client.request_bytes("square", [1.0]))
        server.receive(client.client_id, client.request_bytes("square", [2.0]))
        server.drain()
        (flush,) = server.report.flushes
        n, k = serving_context.n, serving_context.k
        # in: 2 size-2 ciphertexts; out: 2 size-2 (relinearized) results
        assert flush.scheduled.input_bytes == 2 * ciphertext_wire_bytes(n, 2, k)
        assert flush.scheduled.output_bytes == 2 * ciphertext_wire_bytes(n, 2, k)
        assert flush.scheduled.kind == "keyswitch"
        assert flush.scheduled.compute_seconds == flush.seconds > 0

    def test_schedule_report_runs_measured_stream(self, serving_context, tenant):
        server = EncryptedComputeServer(serving_context, max_batch_size=4)
        clients, stream = synthetic_traffic(tenant, 4, 2, op="square", seed=13)
        serve(server, tenant, clients, stream)
        report = server.schedule_report(PcieModel(3.2e9), 1 << 15)
        assert report.ops == server.report.flush_count
        assert report.total_seconds > 0
        assert report.compute_seconds == pytest.approx(
            server.report.compute_seconds
        )

    def test_latency_recorded_per_request(self, serving_context, tenant):
        server = EncryptedComputeServer(serving_context, max_batch_size=4)
        clients, stream = synthetic_traffic(tenant, 2, 3, op="double", seed=3)
        completed = serve(server, tenant, clients, stream)
        assert len(server.report.latencies) == completed == 6
        assert all(l >= 0 for l in server.report.latencies)


class TestKeyIsolation:
    def test_same_key_id_different_keys_never_share_a_flush(
        self, serving_context, tenant
    ):
        """A client claiming another tenant's key_id with different keys
        must get its own (correct) lane, not corrupt the tenant's batch."""
        from repro.ckks.keys import KeyGenerator
        from repro.serving.traffic import SyntheticClient, SyntheticTenant

        other = SyntheticTenant(serving_context, seed=505, key_id=tenant.key_id)
        assert other.relin_key is not tenant.relin_key
        server = EncryptedComputeServer(serving_context, max_batch_size=2)
        honest = SyntheticClient(tenant, "honest", seed=1)
        claimant = SyntheticClient(other, "claimant", seed=2)
        honest.connect(server)
        server.register_client(
            "claimant",
            relin_key=other.relin_key,
            galois_keys=other.galois_keys,
            key_id=tenant.key_id,  # same label, different key material
        )
        server.receive("honest", honest.request_bytes("square", [3.0]))
        server.receive("claimant", claimant.request_bytes("square", [3.0]))
        assert server.drain() == 2
        assert server.report.flush_count == 2  # two singleton lanes
        (h_blob,) = server.sessions.get("honest").take_outbox()
        (c_blob,) = server.sessions.get("claimant").take_outbox()
        _, h_vals = tenant.decrypt_response(h_blob)
        _, c_vals = other.decrypt_response(c_blob)
        assert abs(h_vals[0].real - 9.0) < 1e-2
        assert abs(c_vals[0].real - 9.0) < 1e-2


class TestStreamCorruption:
    def test_valid_requests_before_corruption_still_served(
        self, serving_context, tenant, make_client
    ):
        from repro.serving.framing import StreamProtocolError

        server = EncryptedComputeServer(serving_context)
        client = make_client()
        client.connect(server)
        good = client.request_bytes("double", [2.0])
        corrupt = bytearray(client.request_bytes("double", [1.0]))
        corrupt[4] = 0  # bad frame magic
        with pytest.raises(StreamProtocolError):
            server.receive(client.client_id, good + bytes(corrupt))
        assert server.drain() == 1  # the good request was accepted and served
        (blob,) = server.sessions.get(client.client_id).take_outbox()
        _, values = tenant.decrypt_response(blob)
        assert abs(values[0].real - 4.0) < 1e-2


class TestKeyCaptureAtAdmission:
    def test_key_rotation_mid_pending_does_not_corrupt_lane_mates(
        self, serving_context, tenant
    ):
        """A client uploading a new relin key while its request is pending
        must not change what any pending request executes under."""
        from repro.serving.traffic import SyntheticClient, SyntheticTenant

        server = EncryptedComputeServer(serving_context, max_batch_size=2)
        a = SyntheticClient(tenant, "rotator", seed=41)
        b = SyntheticClient(tenant, "victim", seed=42)
        a.connect(server)
        b.connect(server)
        server.receive("rotator", a.request_bytes("square", [3.0]))
        # mid-pending key rotation: a *different* (wrong-secret) key set
        rogue = SyntheticTenant(serving_context, seed=606)
        server.open_session(
            "rotator", "rogue", relin_blob=serialize_kswitch_key(rogue.relin_key)
        )
        server.receive("victim", b.request_bytes("square", [3.0]))
        server.drain()
        # both pending requests captured the original tenant key, so both
        # still batch together and decrypt correctly
        assert server.report.flush_count == 1
        (flush,) = server.report.flushes
        assert flush.batch_size == 2 and flush.batched
        for cid in ("rotator", "victim"):
            (blob,) = server.sessions.get(cid).take_outbox()
            _, values = tenant.decrypt_response(blob)
            assert abs(values[0].real - 9.0) < 1e-2, cid

    def test_request_after_rotation_uses_new_lane(
        self, serving_context, tenant, make_client
    ):
        server = EncryptedComputeServer(serving_context, max_batch_size=2)
        client = make_client()
        client.connect(server)
        server.receive(client.client_id, client.request_bytes("square", [2.0]))
        server.open_session(
            client.client_id, "rotated",
            relin_blob=serialize_kswitch_key(tenant.relin_key),
        )
        server.receive(client.client_id, client.request_bytes("square", [2.0]))
        server.drain()
        # same math keys, but distinct objects -> distinct lanes
        assert server.report.flush_count == 2
        for blob in server.sessions.get(client.client_id).take_outbox():
            _, values = tenant.decrypt_response(blob)
            assert abs(values[0].real - 4.0) < 1e-2


class TestFrameClientIdValidation:
    def test_mis_tagged_frame_rejected(self, serving_context, tenant, make_client):
        server = EncryptedComputeServer(serving_context)
        client = make_client()
        client.connect(server)
        good = framing.decode_frame(client.request_bytes("double", [1.0]))
        forged = framing.Frame(
            framing.REQUEST, good.request_id, "somebody-else",
            good.op, good.op_arg, good.payload,
        )
        server.submit_frame(client.client_id, forged)
        (blob,) = server.sessions.get(client.client_id).take_outbox()
        frame = framing.decode_frame(blob)
        assert frame.kind == framing.ERROR
        assert "does not match" in frame.error_message
        assert server.drain() == 0

    def test_empty_client_id_accepted(self, serving_context, tenant, make_client):
        """An empty wire client_id defers to the connection's session."""
        server = EncryptedComputeServer(serving_context)
        client = make_client()
        client.connect(server)
        good = framing.decode_frame(client.request_bytes("double", [1.0]))
        anonymous = framing.Frame(
            framing.REQUEST, good.request_id, "", good.op, good.op_arg, good.payload
        )
        server.submit_frame(client.client_id, anonymous)
        assert server.drain() == 1


class TestCheapRejection:
    def test_backpressure_rejects_before_payload_decode(
        self, serving_context, tenant, make_client
    ):
        """At the cap, even an undecodable payload is rejected as BUSY --
        proof the server never paid for deserialization."""
        server = EncryptedComputeServer(serving_context, max_pending=1)
        client = make_client()
        client.connect(server)
        server.receive(client.client_id, client.request_bytes("double", [1.0]))
        garbage = framing.encode_frame(
            framing.REQUEST, 7, client.client_id, op="double",
            payload=b"\xff" * 10,  # would raise if deserialized
        )
        server.receive(client.client_id, garbage)
        (blob,) = server.sessions.get(client.client_id).take_outbox()
        frame = framing.decode_frame(blob)
        assert frame.kind == framing.ERROR
        assert "queue full" in frame.error_message
        assert server.report.rejected_requests == 1


class TestHoistedRotationServing:
    """Same-ciphertext rotation sweeps execute through one hoisted
    key-switch decomposition, bit-identical to scalar service."""

    def _tenant_with_steps(self, serving_context, steps):
        from repro.serving.traffic import SyntheticClient, SyntheticTenant

        tenant = SyntheticTenant(serving_context, seed=909, key_id="tenant-h")
        tenant.galois_keys = tenant.keygen.galois_keys(steps, conjugation=True)
        return tenant, SyntheticClient(tenant, "hoist-client", seed=910)

    def test_rotation_sweep_served_hoisted_and_bit_identical(
        self, serving_context
    ):
        from repro.ckks.evaluator import Evaluator

        steps = [1, 2, 3]
        tenant, client = self._tenant_with_steps(serving_context, steps)
        server = EncryptedComputeServer(serving_context, max_batch_size=8)
        client.connect(server)
        values = [0.25 * i for i in range(4)]
        frames = client.rotation_sweep_bytes(values, steps)
        payload = framing.decode_frame(frames[0]).payload
        for blob in frames:
            server.receive(client.client_id, blob)
        assert server.drain() == len(steps)

        # one hoisted flush, not three scalar ones
        (flush,) = server.report.flushes
        assert flush.op == "rotate_hoisted"
        assert flush.batch_size == len(steps) and flush.batched
        assert flush.scheduled.kind == "keyswitch"

        # responses are bit-identical to scalar evaluator service
        ev = Evaluator(serving_context)
        ct = deserialize_ciphertext(payload, serving_context)
        expected = {
            step: serialize_ciphertext(ev.rotate(ct, step, tenant.galois_keys))
            for step in steps
        }
        outbox = server.sessions.get(client.client_id).take_outbox()
        assert len(outbox) == len(steps)
        for blob in outbox:
            frame = framing.decode_frame(blob)
            assert frame.kind == framing.RESPONSE and frame.op == "rotate"
            assert frame.payload == expected[frame.op_arg]

    def test_sweep_decrypts_to_each_rotation(self, serving_context):
        steps = [1, 2]
        tenant, client = self._tenant_with_steps(serving_context, steps)
        server = EncryptedComputeServer(serving_context)
        client.connect(server)
        base = list(np.linspace(-1.0, 1.0, serving_context.params.slot_count))
        for blob in client.rotation_sweep_bytes(base, steps):
            server.receive(client.client_id, blob)
        server.drain()
        for blob in server.sessions.get(client.client_id).take_outbox():
            frame = framing.decode_frame(blob)
            _, values = tenant.decrypt_response(blob)
            expected = np.roll(np.array(base), -frame.op_arg)
            np.testing.assert_allclose(
                np.array(values).real, expected, atol=1e-2
            )

    def test_distinct_ciphertexts_keep_batching_by_step(
        self, serving_context, tenant, make_client
    ):
        """The hoist path must not break cross-client step batching."""
        server = EncryptedComputeServer(serving_context, max_batch_size=8)
        clients = [make_client() for _ in range(3)]
        for c in clients:
            c.connect(server)
            server.receive(
                c.client_id, c.request_bytes("rotate", [1.0, 2.0], op_arg=1)
            )
        assert server.drain() == 3
        (flush,) = server.report.flushes
        assert flush.op == "rotate" and flush.batch_size == 3 and flush.batched

    def test_missing_key_step_fails_alone_in_hoist_flush(self, serving_context):
        """A keyless step must not take its servable lane-mates down --
        a rotate lane spans steps, and a member whose step has no Galois
        key is answered alone before the sweep runs."""
        tenant, client = self._tenant_with_steps(serving_context, [1])
        server = EncryptedComputeServer(serving_context)
        client.connect(server)
        # step 5 has no Galois key; step 1 does
        for blob in client.rotation_sweep_bytes([1.0], [1, 5]):
            server.receive(client.client_id, blob)
        assert server.drain() == 2
        by_kind = {}
        for blob in server.sessions.get(client.client_id).take_outbox():
            frame = framing.decode_frame(blob)
            by_kind[frame.kind] = frame
        assert set(by_kind) == {framing.RESPONSE, framing.ERROR}
        assert "Galois key" in by_kind[framing.ERROR].error_message


class TestOneKindOfLane:
    """A rotation's step is per-request data: rotations under one
    tenant's keys share a lane, and the executor alone decides what
    hoists (same input) and what packs (same step, distinct inputs)."""

    STEPS = [1, 2, 3]

    def _serve(self, context):
        from repro.serving.traffic import SyntheticClient, SyntheticTenant

        tenant = SyntheticTenant(context, seed=909, key_id="tenant-l")
        tenant.galois_keys = tenant.keygen.galois_keys(range(1, 11))
        server = EncryptedComputeServer(context, max_batch_size=8)
        fleet = [SyntheticClient(tenant, f"lane-{i}", seed=910 + i) for i in range(3)]
        for client in fleet:
            client.connect(server)
        # every PlanRun the server's one executor produces
        runs, run = [], server.executor.run
        server.executor.run = lambda *a, **k: runs.append(run(*a, **k)) or runs[-1]
        return tenant, server, fleet, runs

    def _one_ct(self, context):
        return ciphertext_wire_bytes(
            context.n, 2, context.k, moduli=context.basis_at_level(context.k).moduli
        )

    def test_two_clients_sweeps_share_one_flush(self):
        from repro.ckks.backend import CountingBackend
        from repro.ckks.context import CkksContext, toy_parameters

        L, R = 3, len(self.STEPS)
        be = CountingBackend("reference")
        ctx = CkksContext(toy_parameters(n=64, k=L, prime_bits=30), backend=be)
        tenant, server, (a, b, _), runs = self._serve(ctx)
        blobs = [
            (c.client_id, blob)
            for c, values in ((a, [0.5, -0.25]), (b, [0.125]))
            for blob in c.rotation_sweep_bytes(values, self.STEPS)
        ]
        be.reset()  # key generation and encryption above are not the flush
        for client_id, blob in blobs:
            server.receive(client_id, blob)
        assert server.drain() == 2 * R
        (flush,) = server.report.flushes
        (run,) = runs
        assert flush.op == "rotate_hoisted" and flush.batch_size == 2 * R
        assert (run.sweeps, run.fused_rotations) == (2, 2 * R)
        # exactly twice the one-sweep budget of TestHoistFlushBilling
        assert be.counts["ntt_inverse"] == 2 * (L + 2 * R)
        assert be.counts["ntt_forward"] == 2 * (L * L + 2 * L * R)
        # each distinct input crosses PCIe once, every rotation comes back
        assert flush.scheduled.input_bytes == 2 * self._one_ct(ctx)
        assert flush.scheduled.output_bytes == 2 * R * self._one_ct(ctx)

    def test_sweep_and_same_step_strangers_share_one_flush(self, serving_context):
        tenant, server, (a, b, c), runs = self._serve(serving_context)
        for blob in a.rotation_sweep_bytes([0.5, -0.25], self.STEPS):
            server.receive(a.client_id, blob)
        for stranger in (b, c):  # distinct ciphertexts, one step
            server.receive(
                stranger.client_id, stranger.request_bytes("rotate", [1.0], op_arg=2)
            )
        assert server.drain() == 5
        (flush,) = server.report.flushes
        (run,) = runs
        assert flush.op == "rotate_hoisted" and flush.batch_size == 5
        # the sweep fused, the strangers packed into one stacked call
        assert (run.sweeps, run.fused_rotations) == (1, 3)
        assert (run.lanes, run.packed_ops, run.scalar_ops) == (1, 2, 0)
        assert flush.scheduled.input_bytes == 3 * self._one_ct(serving_context)
        for client, expected in ((a, [0.5, -0.25]), (b, [1.0]), (c, [1.0])):
            for blob in server.sessions.get(client.client_id).take_outbox():
                step = framing.decode_frame(blob).op_arg
                _, values = tenant.decrypt_response(blob)
                slots = np.zeros(serving_context.params.slot_count)
                slots[: len(expected)] = expected
                np.testing.assert_allclose(
                    np.array(values).real, np.roll(slots, -step), atol=1e-2
                )

    def test_distinct_inputs_distinct_steps_flush_together(self, serving_context):
        """The named policy change: one flush, not one deadline per step."""
        tenant, server, fleet, runs = self._serve(serving_context)
        for step, client in enumerate(fleet, start=1):
            server.receive(
                client.client_id, client.request_bytes("rotate", [1.0], op_arg=step)
            )
        assert server.drain() == 3
        (flush,) = server.report.flushes
        assert flush.op == "rotate" and flush.batch_size == 3 and flush.batched
        assert (runs[0].sweeps, runs[0].scalar_ops) == (0, 3)

    def test_ten_step_sweep_at_width_eight_flushes_eight_plus_two(
        self, serving_context
    ):
        from repro.ckks.evaluator import Evaluator

        tenant, server, (client, *_), runs = self._serve(serving_context)
        steps = list(range(1, 11))
        frames = client.rotation_sweep_bytes([0.25 * i for i in range(4)], steps)
        for blob in frames:
            server.receive(client.client_id, blob)
        assert server.pump() == 8 and server.drain() == 2
        assert [(f.op, f.batch_size) for f in server.report.flushes] == [
            ("rotate_hoisted", 8),
            ("rotate_hoisted", 2),
        ]
        ct = deserialize_ciphertext(
            framing.decode_frame(frames[0]).payload, serving_context
        )
        ev = Evaluator(serving_context)
        outbox = server.sessions.get(client.client_id).take_outbox()
        assert [framing.decode_frame(b).op_arg for b in outbox] == steps
        for blob in outbox:
            frame = framing.decode_frame(blob)
            assert frame.payload == serialize_ciphertext(
                ev.rotate(ct, frame.op_arg, tenant.galois_keys)
            )

    def test_keyless_program_batches_across_tenants(self, serving_context, tenant):
        from repro.serving.traffic import SyntheticClient, SyntheticTenant

        other = SyntheticTenant(serving_context, seed=808, key_id="tenant-other")
        server = EncryptedComputeServer(serving_context)
        server.register_program(3, ("double", "negate"))
        clients = [
            SyntheticClient(tenant, "keyless-a", seed=1),
            SyntheticClient(other, "keyless-b", seed=2),
        ]
        for i, client in enumerate(clients):
            client.connect(server)
            server.receive(
                client.client_id,
                client.request_bytes("program", [0.25 * (i + 1)], op_arg=3),
            )
        assert server.drain() == 2
        (flush,) = server.report.flushes
        assert flush.op == "program" and flush.batch_size == 2 and flush.batched
        for i, client in enumerate(clients):
            (blob,) = server.sessions.get(client.client_id).take_outbox()
            _, values = client.tenant.decrypt_response(blob)
            assert abs(values[0].real + 0.5 * (i + 1)) < 1e-2


class TestIdentityRotation:
    """A rotation by a multiple of the slot count has one answer: refused
    alone, in words that name the step, wherever it arrives."""

    def _message(self, context, step):
        slots = context.params.slot_count
        return (
            f"rotate step must be nonzero modulo the {slots} slots; "
            f"{step} is the identity rotation"
        )

    def _answers(self, server, client):
        return [
            framing.decode_frame(blob)
            for blob in server.sessions.get(client.client_id).take_outbox()
        ]

    def test_refused_alone_inside_a_sweep(self, serving_context):
        from repro.serving.traffic import SyntheticClient, SyntheticTenant

        tenant = SyntheticTenant(serving_context, seed=606, key_id="tenant-i")
        tenant.galois_keys = tenant.keygen.galois_keys([1, 2])
        client = SyntheticClient(tenant, "identity-client", seed=607)
        server = EncryptedComputeServer(serving_context)
        client.connect(server)
        for blob in client.rotation_sweep_bytes([1.0], [1, 0, 2]):
            server.receive(client.client_id, blob)
        assert server.drain() == 2  # the identity step was never admitted
        error, *served = self._answers(server, client)
        assert error.kind == framing.ERROR and error.request_id == 1
        assert error.error_message == self._message(serving_context, 0)
        assert [(f.kind, f.op_arg) for f in served] == [
            (framing.RESPONSE, 1),
            (framing.RESPONSE, 2),
        ]
        (flush,) = server.report.flushes
        assert flush.op == "rotate_hoisted" and flush.batch_size == 2

    def test_refused_alone_beside_strangers(self, serving_context, tenant, make_client):
        server = EncryptedComputeServer(serving_context)
        clients = [make_client() for _ in range(3)]
        slots = serving_context.params.slot_count
        for client, step in zip(clients, (1, -2 * slots, 1)):
            client.connect(server)
            server.receive(
                client.client_id, client.request_bytes("rotate", [1.0], op_arg=step)
            )
        assert server.drain() == 2
        kinds = [self._answers(server, c)[0] for c in clients]
        assert [f.kind for f in kinds] == [
            framing.RESPONSE, framing.ERROR, framing.RESPONSE,
        ]
        assert kinds[1].error_message == self._message(serving_context, -2 * slots)

    def test_step_of_half_the_ring_is_the_same_refusal(
        self, serving_context, tenant, make_client
    ):
        server = EncryptedComputeServer(serving_context)
        client = make_client()
        client.connect(server)
        slots = serving_context.params.slot_count  # n / 2
        server.receive(
            client.client_id, client.request_bytes("rotate", [1.0], op_arg=slots)
        )
        assert server.drain() == 0
        (frame,) = self._answers(server, client)
        assert framing.error_class(frame) == framing.ERR_FATAL
        assert frame.error_message == self._message(serving_context, slots)

    @pytest.mark.parametrize("step", [0, 32, -64])
    def test_register_program_rejects_the_same_steps_in_the_same_words(
        self, serving_context, step
    ):
        import re

        server = EncryptedComputeServer(serving_context)
        with pytest.raises(
            ValueError, match=re.escape(self._message(serving_context, step))
        ):
            server.register_program(1, [("rotate", step), "double"])


class TestStandaloneFrameNegotiation:
    """``SyntheticClient.connect`` opens the session at the frame
    protocol the client speaks, as ``connect_cluster`` always did."""

    def _serve(self, context, client):
        server = EncryptedComputeServer(context)
        client.connect(server)
        server.receive(client.client_id, client.request_bytes("double", [1.0]))
        server.receive(client.client_id, client.request_bytes("transmogrify", [1.0]))
        assert server.drain() == 1
        session = server.sessions.get(client.client_id)
        return session, session.take_outbox()

    def test_frame_v2_client_is_answered_in_v2_envelopes(self, serving_context, tenant):
        from repro.serving.traffic import SyntheticClient

        client = SyntheticClient(
            tenant, "frames-v2", seed=31, frame_version=framing.FRAME_V2
        )
        session, outbox = self._serve(serving_context, client)
        assert session.frame_version == framing.FRAME_V2
        kinds = set()
        for blob in outbox:
            assert blob[8] == framing.FRAME_V2  # u32 length | magic | version
            kinds.add(framing.decode_frame(blob).kind)  # verifies the CRC
            flipped = bytearray(blob)
            flipped[-5] ^= 0x01  # last payload byte, ahead of the trailer
            with pytest.raises(ValueError, match="CRC mismatch"):
                framing.decode_frame(bytes(flipped))
        assert kinds == {framing.RESPONSE, framing.ERROR}

    def test_default_client_bytes_are_unchanged(self, serving_context, tenant):
        from repro.serving.traffic import SyntheticClient

        client = SyntheticClient(tenant, "frames-v1", seed=31)
        session, outbox = self._serve(serving_context, client)
        assert session.frame_version == framing.FRAME_VERSION == 1
        assert len(outbox) == 2
        for blob in outbox:
            frame = framing.decode_frame(blob)
            # the legacy envelope, byte for byte: no deadline, no trailer
            assert blob[8] == 1
            assert blob == framing.encode_frame(
                frame.kind, frame.request_id, frame.client_id,
                frame.op, frame.op_arg, frame.payload,
            )
