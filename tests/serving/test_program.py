"""Multi-op program requests: one registered op chain, one plan-executed
flush -- plus the rotation-sweep PCIe billing regression (a hoisted
sweep uploads its shared ciphertext once, not once per rotation).
"""

import numpy as np
import pytest

from repro.ckks.backend import CountingBackend
from repro.ckks.context import CkksContext, toy_parameters
from repro.ckks.serialization import ciphertext_wire_bytes, serialize_ciphertext
from repro.serving import framing
from repro.serving.server import EncryptedComputeServer
from repro.serving.traffic import SyntheticClient, SyntheticTenant

PROGRAM_ID = 7
PROGRAM = (("rotate", 1), "square", "rescale")


def _drain_frames(server, clients):
    out = {}
    for client in clients:
        for blob in server.sessions.get(client.client_id).take_outbox():
            frame = framing.decode_frame(blob)
            out[(client.client_id, frame.request_id)] = (frame, blob)
    return out


class TestProgramRequests:
    def _serve_program(self, serving_context, tenant, n_clients, max_batch_size):
        server = EncryptedComputeServer(
            serving_context, max_batch_size=max_batch_size
        )
        server.register_program(PROGRAM_ID, PROGRAM)
        clients = [
            SyntheticClient(tenant, f"prog-{i}", seed=600 + i)
            for i in range(n_clients)
        ]
        slots = serving_context.params.slot_count
        bases = {}
        for i, client in enumerate(clients):
            client.connect(server)
            base = np.linspace(-0.4, 0.4, slots) * (i + 1) / n_clients
            bases[client.client_id] = base
            server.receive(
                client.client_id,
                client.request_bytes("program", list(base), op_arg=PROGRAM_ID),
            )
        completed = server.drain()
        return server, clients, bases, completed

    def test_program_flush_is_batched_and_decrypts_correctly(
        self, serving_context, tenant
    ):
        server, clients, bases, completed = self._serve_program(
            serving_context, tenant, 4, max_batch_size=4
        )
        assert completed == 4
        (flush,) = server.report.flushes
        assert flush.op == "program" and flush.batch_size == 4 and flush.batched
        # rotate dominates the chain: the flush schedules as a key switch
        assert flush.scheduled.kind == "keyswitch"
        for client in clients:
            (blob,) = server.sessions.get(client.client_id).take_outbox()
            frame = framing.decode_frame(blob)
            assert frame.kind == framing.RESPONSE and frame.op == "program"
            _, values = tenant.decrypt_response(blob)
            expected = np.roll(bases[client.client_id], -1) ** 2
            np.testing.assert_allclose(
                np.array(values).real, expected, atol=1e-2
            )

    def test_batched_program_equals_singleton_bit_for_bit(
        self, serving_context, tenant
    ):
        def run(max_batch_size):
            server, clients, _, _ = self._serve_program(
                serving_context, tenant, 4, max_batch_size=max_batch_size
            )
            return {
                key: frame.payload
                for key, (frame, _) in _drain_frames(server, clients).items()
            }

        sequential = run(1)
        batched = run(4)
        assert sequential.keys() == batched.keys() and len(batched) == 4
        for key in sequential:
            assert sequential[key] == batched[key], f"bit mismatch for {key}"

    def test_cross_session_tenant_sharing_batches(self, serving_context, tenant):
        """Sessions of one tenant share key objects but wrap them in
        per-session bundles; they must still share a program lane."""
        server, _, _, _ = self._serve_program(
            serving_context, tenant, 3, max_batch_size=3
        )
        (flush,) = server.report.flushes
        assert flush.batch_size == 3 and flush.batched

    def test_unknown_program_id_rejected(self, serving_context, tenant, make_client):
        server = EncryptedComputeServer(serving_context)
        client = make_client()
        client.connect(server)
        server.receive(
            client.client_id,
            client.request_bytes("program", [1.0], op_arg=99),
        )
        server.drain()
        (blob,) = server.sessions.get(client.client_id).take_outbox()
        frame = framing.decode_frame(blob)
        assert frame.kind == framing.ERROR
        assert "unknown program id 99" in frame.error_message

    def test_program_without_relin_key_rejected(self, serving_context, tenant):
        server = EncryptedComputeServer(serving_context)
        server.register_program(PROGRAM_ID, PROGRAM)
        server.register_client("bare", key_id="bare")  # no keys uploaded
        bare = SyntheticClient(tenant, "unused", seed=5)
        ct = bare.encryptor.encrypt(tenant.encoder.encode([1.0]))
        server.receive(
            "bare",
            framing.encode_frame(
                framing.REQUEST,
                1,
                "bare",
                op="program",
                op_arg=PROGRAM_ID,
                payload=serialize_ciphertext(ct),
            ),
        )
        server.drain()
        (blob,) = server.sessions.get("bare").take_outbox()
        frame = framing.decode_frame(blob)
        assert frame.kind == framing.ERROR
        assert "relinearization key" in frame.error_message

    def test_register_program_validates_steps(self, serving_context):
        server = EncryptedComputeServer(serving_context)
        with pytest.raises(ValueError, match="unknown program step"):
            server.register_program(1, ["launder"])
        with pytest.raises(ValueError, match="rotate step must be nonzero"):
            server.register_program(1, [("rotate", 0)])
        with pytest.raises(ValueError, match="at least one step"):
            server.register_program(1, [])

    def test_reregistering_identical_steps_is_idempotent(self, serving_context):
        server = EncryptedComputeServer(serving_context)
        first = server.register_program(PROGRAM_ID, PROGRAM)
        assert server.register_program(PROGRAM_ID, list(PROGRAM)) == first

    def test_reregistering_different_steps_cannot_change_pending_requests(
        self, serving_context, tenant, make_client
    ):
        """A request is admitted (and key-checked) against the steps
        registered at that moment and looks them up again at flush time:
        an id silently rebound in between would execute the *new* chain
        under checks made for the old one."""
        server = EncryptedComputeServer(serving_context, max_batch_size=8)
        server.register_program(PROGRAM_ID, ["double"])
        client = make_client()
        client.connect(server)
        server.receive(
            client.client_id,
            client.request_bytes("program", [0.25, -0.5], op_arg=PROGRAM_ID),
        )
        server.pump()  # admitted into its lane, still pending
        assert server.pending_count == 1
        with pytest.raises(ValueError, match="already registered"):
            server.register_program(PROGRAM_ID, ["negate"])
        assert server.drain() == 1
        (blob,) = server.sessions.get(client.client_id).take_outbox()
        _, values = tenant.decrypt_response(blob)
        np.testing.assert_allclose(
            np.array(values[:2]).real, [0.5, -1.0], atol=1e-2
        )


class TestHoistFlushBilling:
    """The billing regression: a sweep rotates ONE ciphertext by many
    steps, so the flush bills one upload and one key-switch
    decomposition -- not one per rotation."""

    STEPS = [1, 2, 3]

    def _sweep(self, context, seed=909):
        tenant = SyntheticTenant(context, seed=seed, key_id="tenant-bill")
        tenant.galois_keys = tenant.keygen.galois_keys(
            self.STEPS, conjugation=True
        )
        client = SyntheticClient(tenant, "bill-client", seed=910)
        server = EncryptedComputeServer(context, max_batch_size=8)
        client.connect(server)
        for blob in client.rotation_sweep_bytes([0.5, -0.25], self.STEPS):
            server.receive(client.client_id, blob)
        assert server.drain() == len(self.STEPS)
        return server, client

    def test_hoisted_flush_bills_one_upload(self, serving_context):
        server, _ = self._sweep(serving_context)
        (flush,) = server.report.flushes
        assert flush.op == "rotate_hoisted"
        one_ct = ciphertext_wire_bytes(
            serving_context.n,
            2,
            serving_context.k,
            moduli=serving_context.basis_at_level(serving_context.k).moduli,
        )
        # the shared input crosses PCIe once...
        assert flush.scheduled.input_bytes == one_ct
        # ...while every rotation's result comes back
        assert flush.scheduled.output_bytes == len(self.STEPS) * one_ct

    def test_hoisted_flush_runs_one_decomposition(self):
        """CountingBackend regression: the flush's transform budget is
        the hoisted one (fan-out once), matching what it bills."""
        L, R = 3, len(self.STEPS)
        be = CountingBackend("reference")
        ctx = CkksContext(toy_parameters(n=64, k=L, prime_bits=30), backend=be)
        server, _ = self._sweep(ctx, seed=911)
        # count a fresh identical sweep against a reset counter: key
        # upload/encryption above polluted the counts
        be.reset()
        tenant = SyntheticTenant(ctx, seed=912, key_id="tenant-count")
        tenant.galois_keys = tenant.keygen.galois_keys(self.STEPS)
        client = SyntheticClient(tenant, "count-client", seed=913)
        client.connect(server)
        blobs = list(client.rotation_sweep_bytes([1.0], self.STEPS))
        be.reset()  # client-side encryption must not pollute the count
        for blob in blobs:
            server.receive(client.client_id, blob)
        assert server.drain() == R
        # one decomposition fan-out (L INTT + L^2 NTT rows) + the
        # per-rotation Modulus Switch -- the rotate_hoisted budget
        assert be.counts["ntt_inverse"] == L + 2 * R
        assert be.counts["ntt_forward"] == L * L + 2 * L * R
