"""Bytes until the datapath: a request is decoded once.

The router hands the frame it CRC-checked to an in-process worker as it
is, admission checks what the 22-byte ciphertext header and the byte
count can show, and the words are unpacked by the flush that runs the
request -- straight into the lane block its kernels read.  What that
must not change, and what it must change by exact numbers:

* **the worker's frame cap** holds on a frame whose bytes are never
  rebuilt (``WorkerSpec.max_frame_bytes`` under a cluster), refusing it
  with an answered fatal ERROR;
* **per-member isolation at the flush**: a payload whose header, length
  and CRC are valid but whose residues are not is the one wire error
  found at flush time -- its member alone is answered with it, its
  lane-mates as if they had been served alone;
* **no copy between wire and kernel, one codec call per flush each
  way**: counted under :class:`repro.ckks.backend.CountingBackend` and a
  spy over the handle and wire primitives.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.ckks.backend import CountingBackend, get_backend
from repro.ckks.context import CkksContext, toy_parameters
from repro.ckks.serialization import HEADER_BYTES
from repro.serving import framing
from repro.serving import server as server_module
from repro.serving.cluster import ServingCluster
from repro.serving.server import EncryptedComputeServer
from repro.serving.traffic import SyntheticClient, SyntheticTenant
from repro.serving.worker import LocalWorkerHandle, WorkerSpec

from conservation import conserved
from oracles import rotation_sweep_bytes

RESIDUE_ERROR = "bad payload: packed residue"


def corrupt_residue(request: bytes, frame_version: int) -> bytes:
    """The request with its first packed residue set to all ones: header,
    exact length and (re-computed) CRC valid, one residue >= its modulus."""
    frame = framing.decode_frame(request)
    payload = bytearray(frame.payload)
    payload[HEADER_BYTES : HEADER_BYTES + 8] = b"\xff" * 8
    return framing.encode_frame(
        frame.kind, frame.request_id, frame.client_id, op=frame.op,
        op_arg=frame.op_arg, payload=bytes(payload), frame_version=frame_version,
    )


@pytest.fixture(scope="module")
def tenant(serving_context) -> SyntheticTenant:
    tenant = SyntheticTenant(serving_context, seed=2201, key_id="tenant-d")
    tenant.galois_keys = tenant.keygen.galois_keys(range(1, 7))
    return tenant


def one_worker_cluster(context, clock, **spec) -> ServingCluster:
    spec = WorkerSpec(params=context.params, **spec)
    return ServingCluster(
        lambda wid: LocalWorkerHandle(wid, spec, clock=clock),
        worker_count=1, clock=clock,
    )


def serve(context, clock, tenant, stream, wire_versions):
    """Every client's outbox after ``stream`` is served by a fresh
    one-worker cluster: ``{client_id: [frame bytes]}`` and its report."""
    cluster = one_worker_cluster(context, clock)
    try:
        tenant.register_with(cluster, wire_version=2)
        for client_id, version in wire_versions.items():
            cluster.register_client(
                client_id, tenant.key_id, wire_version=version, frame_version=2
            )
        for client_id, blob in stream:
            cluster.receive(client_id, blob)
        # nothing is answered at receive: the residue check runs where
        # the words are unpacked
        assert not any(cluster.take_outbox(cid) for cid in wire_versions)
        cluster.pump()
        cluster.drain()
        # the router's books and the worker's, whose flush refused the
        # corrupt members it had admitted
        assert cluster.inflight_count == 0 and conserved(cluster.log)
        assert conserved(cluster.workers["w0"].server.log)
        return {cid: cluster.take_outbox(cid) for cid in wire_versions}, cluster.report
    finally:
        cluster.stop()


class TestWorkerFrameCapUnderACluster:
    def test_handed_over_frame_is_held_to_the_workers_cap(
        self, serving_context, manual_clock, tenant
    ):
        client = SyntheticClient(tenant, "capped", seed=1, frame_version=2)
        small = client.request_bytes("double", [1.0])
        length = framing.envelope_length(framing.decode_frame(small))
        for cap, fits in ((length, True), (length - 1, False)):
            cluster = one_worker_cluster(
                serving_context, manual_clock, max_frame_bytes=cap
            )
            tenant.register_with(cluster)
            client.connect_cluster(cluster)
            # the router's own cap admits it; the worker's refuses it
            # with an answer, never a raise out of receive
            cluster.receive(client.client_id, small)
            cluster.drain()
            (blob,) = cluster.take_outbox(client.client_id)
            answer = framing.decode_frame(blob)
            if fits:
                assert answer.kind == framing.RESPONSE
            else:
                assert framing.error_class(answer) == framing.ERR_FATAL
                assert answer.error_message == f"frame length {length} exceeds cap {cap}"
            assert cluster.inflight_count == 0 and conserved(cluster.log)
            assert cluster.report.completed == cluster.report.submitted == 1
            cluster.stop()

    def test_cap_counts_the_forward_envelope(self, serving_context, manual_clock, tenant):
        """A deadline needs a v2 envelope (12 more bytes), a deadline-less
        frame does not, whatever envelope the client sent: the cap is held
        against the smallest envelope that carries the handed-over frame."""
        client = SyntheticClient(tenant, "dated", seed=2, frame_version=2)
        plain = framing.decode_frame(client.request_bytes("double", [1.0]))
        dated = framing.decode_frame(
            client.request_bytes("double", [1.0], deadline=1e9)
        )
        for frame, version in ((plain, framing.FRAME_VERSION), (dated, framing.FRAME_V2)):
            encoded = framing.encode_frame(
                frame.kind, frame.request_id, frame.client_id, op=frame.op,
                op_arg=frame.op_arg, payload=frame.payload, deadline=frame.deadline,
                frame_version=version,
            )
            assert framing.envelope_length(frame) == len(encoded) - 4
        cap = framing.envelope_length(dated) - 1
        assert cap == framing.envelope_length(plain) + 11
        server = EncryptedComputeServer(serving_context, max_frame_bytes=cap)
        client.connect(server)
        for frame in (plain, dated):
            server.submit_frame(client.client_id, frame)
        (blob,) = server.sessions.get(client.client_id).take_outbox()
        refused = framing.decode_frame(blob)
        assert refused.request_id == dated.request_id
        assert refused.error_message == f"frame length {cap + 1} exceeds cap {cap}"
        assert server.drain() == 1


class TestPerMemberIsolationAtTheFlush:
    def test_corrupt_member_of_a_full_lane_fails_alone(
        self, serving_context, manual_clock, tenant
    ):
        clients = [
            SyntheticClient(tenant, f"iso-{i}", seed=30 + i, wire_version=2, frame_version=2)
            for i in range(8)
        ]
        versions = {c.client_id: 2 for c in clients}
        stream = [(c.client_id, c.request_bytes("double", [0.25 * (i + 1)]))
                  for i, c in enumerate(clients)]
        victim = 3
        stream[victim] = (stream[victim][0], corrupt_residue(stream[victim][1], 2))
        together, report = serve(serving_context, manual_clock, tenant, stream, versions)
        assert report.submitted == report.completed == 8
        for i, (client_id, blob) in enumerate(stream):
            (answer,) = together[client_id]
            alone, _ = serve(
                serving_context, manual_clock, tenant, [(client_id, blob)], versions
            )
            assert alone[client_id] == [answer], f"member {i}"
            frame = framing.decode_frame(answer)
            if i == victim:
                assert frame.kind == framing.ERROR
                assert framing.error_class(frame) == framing.ERR_FATAL
                assert frame.error_message.startswith(RESIDUE_ERROR)
                assert frame.error_message.endswith("corrupt row")
            else:
                _, values = tenant.decrypt_response(answer)
                assert abs(values[0].real - 0.5 * (i + 1)) < 1e-2

    def test_corrupt_sweep_payload_answers_every_step(
        self, serving_context, manual_clock, tenant
    ):
        client = SyntheticClient(tenant, "sweep", seed=50, wire_version=2, frame_version=2)
        other = SyntheticClient(tenant, "mate", seed=51, wire_version=2, frame_version=2)
        sweep = [corrupt_residue(b, 2) for b in rotation_sweep_bytes(client, [0.5], range(1, 7))]
        stream = [("sweep", blob) for blob in sweep]
        stream.append(("mate", other.request_bytes("rotate", [1.0, 2.0], op_arg=1)))
        answers, report = serve(
            serving_context, manual_clock, tenant, stream, {"sweep": 2, "mate": 2}
        )
        assert report.submitted == report.completed == 7
        assert len(answers["sweep"]) == 6
        for blob in answers["sweep"]:
            frame = framing.decode_frame(blob)
            assert frame.kind == framing.ERROR
            assert frame.error_message.startswith(RESIDUE_ERROR)
        # the lane-mate rotated a good ciphertext in the same flush
        _, values = tenant.decrypt_response(answers["mate"][0])
        assert abs(values[0].real - 2.0) < 1e-2

    def test_each_member_decodes_by_its_own_wire_version(
        self, serving_context, manual_clock, tenant, monkeypatch
    ):
        """One lane, wire v1 and v2 members interleaved: the version is
        the payload's, member by member, never the lane's; the responses
        are packed once per wire version present."""
        versions = {f"mix-{i}": 1 + i % 2 for i in range(6)}
        clients = [
            SyntheticClient(tenant, cid, seed=70 + i, wire_version=v, frame_version=2)
            for i, (cid, v) in enumerate(versions.items())
        ]
        stream = [(c.client_id, c.request_bytes("negate", [i + 1.0]))
                  for i, c in enumerate(clients)]
        packs = []
        pack = server_module.pack_ciphertexts

        def counting_pack(cts, version):
            packs.append((version, len(cts)))
            return pack(cts, version)

        monkeypatch.setattr(server_module, "pack_ciphertexts", counting_pack)
        answers, report = serve(serving_context, manual_clock, tenant, stream, versions)
        assert report.completed == 6
        assert sorted(packs) == [(1, 3), (2, 3)]
        for i, client in enumerate(clients):
            (blob,) = answers[client.client_id]
            assert framing.decode_frame(blob).payload[4] == client.wire_version
            _, values = tenant.decrypt_response(blob)
            assert abs(values[0].real + (i + 1.0)) < 1e-2


class _HandleSpy:
    """Counts calls of the handle primitives -- ``lifts``: those that
    return something other than their argument -- and keeps what
    ``scalar_mul_rows`` saw and the kernels the flush ran."""

    NAMES = ("select_rows", "from_rows", "copy_rows", "native_stack")
    KERNELS = ("add_rows", "negate_rows", "scalar_mul_rows")

    def __init__(self, backend, monkeypatch):
        self.calls = Counter()
        self.lifts = Counter()
        self.unpacked_rows = 0
        self.destinations = []
        self.scaled_operands = []
        for name in self.NAMES + self.KERNELS:
            monkeypatch.setattr(backend, name, self._counting(getattr(backend, name)))
        for name in ("unpack_rows", "unpack_rows_bits"):
            monkeypatch.setattr(backend, name, self._unpacking(getattr(backend, name)))

    def _counting(self, kernel):
        def spy(*args):
            name = kernel.__name__
            self.calls[name] += 1
            if name == "scalar_mul_rows":
                self.scaled_operands.append(args[1])
            out = kernel(*args)
            if name in self.NAMES and out is not args[0]:
                self.lifts[name] += 1
            return out

        return spy

    def _unpacking(self, kernel):
        def spy(*args):
            out = kernel(*args)
            self.unpacked_rows += len(out)
            self.destinations.append(args[3])
            return out

        return spy


class TestNoCopyBetweenWireAndKernel:
    L = 3

    @pytest.fixture()
    def counted(self):
        be = CountingBackend("numpy")
        ctx = CkksContext(toy_parameters(n=64, k=self.L, prime_bits=30), backend=be)
        tenant = SyntheticTenant(ctx, seed=2203, key_id="tenant-c")
        tenant.galois_keys = tenant.keygen.galois_keys(range(1, 7))
        server = EncryptedComputeServer(ctx, max_batch_size=8)
        return be, ctx, tenant, server

    def _fleet(self, tenant, server, count, wire_version=2):
        fleet = [
            SyntheticClient(tenant, f"nc-{i}", seed=90 + i, wire_version=wire_version)
            for i in range(count)
        ]
        for client in fleet:
            client.connect(server)
        return fleet

    def test_double_flush_runs_on_the_block_the_codec_filled(self, counted, monkeypatch):
        be, ctx, tenant, server = counted
        fleet = self._fleet(tenant, server, 8)
        blobs = [(c.client_id, c.request_bytes("double", [1.0 + i]))
                 for i, c in enumerate(fleet)]
        spy = _HandleSpy(be, monkeypatch)
        # responses are packed by the global backend (a ciphertext carries
        # no context): count its pack calls and the rows each carries
        packs = []
        wire = get_backend()
        pack = wire.pack_rows_bits
        monkeypatch.setattr(
            wire, "pack_rows_bits",
            lambda rows, bounds: packs.append(len(rows)) or pack(rows, bounds),
        )
        be.reset()
        for client_id, blob in blobs:
            server.receive(client_id, blob)
        assert spy.unpacked_rows == 0  # admission reads the header only
        assert server.pump() == 8
        assert spy.calls["select_rows"] == spy.calls["copy_rows"] == 0
        assert spy.calls["native_stack"] == 0
        assert be.conversion_rows == 0
        # one unpack call for the whole lane, each row decoded straight
        # into its row of one block: member b is rows b::8
        assert len(spy.destinations) == 1
        assert spy.unpacked_rows == 8 * 2 * self.L
        (dest,) = spy.destinations
        start, row = dest[0].ctypes.data, ctx.n * 8
        for k, member_row in enumerate(dest):
            b, r = divmod(k, 2 * self.L)
            assert member_row.ctypes.data == start + (r * 8 + b) * row
        # ... and one pack call for the whole lane's responses
        assert packs == [8 * 2 * self.L]
        # ... and that block is what the doubling kernel was handed: the
        # two components are its contiguous halves
        self.assert_ran_on_block(spy, ctx, start)
        for i, client in enumerate(fleet):
            (blob,) = server.sessions.get(client.client_id).take_outbox()
            _, values = tenant.decrypt_response(blob)
            assert abs(values[0].real - 2.0 * (1.0 + i)) < 1e-2

    def assert_ran_on_block(self, spy, ctx, start):
        """One ``scalar_mul_rows`` call per component, on that component's
        contiguous half of the unpacked block, and no other kernel."""
        assert spy.calls["add_rows"] == spy.calls["negate_rows"] == 0
        assert len(spy.scaled_operands) == 2
        for j, operand in enumerate(spy.scaled_operands):
            assert isinstance(operand, np.ndarray) and operand.flags.c_contiguous
            assert operand.shape == (self.L * 8, ctx.n)
            assert operand.ctypes.data == start + j * self.L * 8 * ctx.n * 8

    @pytest.mark.parametrize("pattern", ["ddddnnnn", "dndndndn"])
    def test_mixed_double_negate_flush_lifts_no_sub_lane(self, counted, monkeypatch, pattern):
        """Doubles beside negates are one lane with the op as a factor per
        member: nothing is copied out of the block the codec filled (the
        only handle calls left hand their argument back as it is)."""
        be, ctx, tenant, server = counted
        fleet = self._fleet(tenant, server, 8)
        ops = {"d": ("double", 2.0), "n": ("negate", -1.0)}
        blobs = [(c.client_id, c.request_bytes(ops[k][0], [1.0 + i]))
                 for i, (c, k) in enumerate(zip(fleet, pattern))]
        spy = _HandleSpy(be, monkeypatch)
        be.reset()
        for client_id, blob in blobs:
            server.receive(client_id, blob)
        assert server.pump() == 8
        assert sum(spy.lifts.values()) == 0
        assert spy.calls["select_rows"] == spy.calls["copy_rows"] == 0
        assert spy.calls["native_stack"] == 0
        assert be.conversion_rows == 0
        (dest,) = spy.destinations
        self.assert_ran_on_block(spy, ctx, dest[0].ctypes.data)
        (flush,) = server.report.flushes
        assert flush.op == "mixed" and flush.batch_size == 8
        for i, (client, k) in enumerate(zip(fleet, pattern)):
            (blob,) = server.sessions.get(client.client_id).take_outbox()
            _, values = tenant.decrypt_response(blob)
            assert abs(values[0].real - ops[k][1] * (1.0 + i)) < 1e-2

    @pytest.mark.parametrize("wire_version", [1, 2])
    def test_sweep_payload_is_unpacked_once(self, counted, monkeypatch, wire_version):
        be, ctx, tenant, server = counted
        (client,) = self._fleet(tenant, server, 1, wire_version)
        blobs = rotation_sweep_bytes(client, [0.5, -0.25], range(1, 7))
        spy = _HandleSpy(be, monkeypatch)
        for blob in blobs:
            server.receive(client.client_id, blob)
        assert server.drain() == 6
        # six requests, one distinct payload: size * L rows, once
        assert spy.unpacked_rows == 2 * self.L
        assert len(spy.destinations) == 1
        assert len(server.sessions.get(client.client_id).take_outbox()) == 6

    def test_program_lane_is_not_copied_between_steps(self, counted, monkeypatch):
        be, ctx, tenant, server = counted
        server.register_program(7, ("double", "negate", "double"))
        fleet = self._fleet(tenant, server, 8)
        blobs = [(c.client_id, c.request_bytes("program", [0.5 + i], op_arg=7))
                 for i, c in enumerate(fleet)]
        spy = _HandleSpy(be, monkeypatch)
        copied = []
        for name in _HandleSpy.NAMES:
            kernel = getattr(be, name)

            def weighing(*args, _kernel=kernel):
                out = _kernel(*args)
                # a matrix handed through as it is costs nothing
                if not any(out is a for a in args):
                    copied.append((_kernel.__name__, len(out)))
                return out

            monkeypatch.setattr(be, name, weighing)
        be.reset()
        for client_id, blob in blobs:
            server.receive(client_id, blob)
        assert server.pump() == 8
        assert copied == [] and be.conversion_rows == 0
        assert spy.unpacked_rows == 8 * 2 * self.L
        for i, client in enumerate(fleet):
            (blob,) = server.sessions.get(client.client_id).take_outbox()
            _, values = tenant.decrypt_response(blob)
            assert abs(values[0].real + 4.0 * (0.5 + i)) < 1e-2
