"""One payload copy per direction, and no view of memory that can change.

On the way in, a request decoded out of the immutable ``bytes`` handed
to ``receive`` keeps its payload as a view of them all the way to the
flush, and a request handed over in a mutable buffer (a ``bytearray``,
or a ``memoryview`` of one) is copied at ``receive``: the caller may
overwrite the buffer before the flush, on a bare server, a cluster over
an in-process worker and a cluster over a worker process alike, and the
answer is the unmutated request's.  The socket front door reads each
frame whole, however the client's writes split the stream, so a request
that arrives over a socket is decoded in place too.  On the way out, a
v2 lane is packed once and every response payload is a view of that one
blob, a v1 payload is its header and one word block a component, and
either is joined once, into its frame.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.ckks.serialization import pack_ciphertexts, serialize_ciphertext
from repro.serving import (
    AsyncFrontDoor,
    EncryptedComputeServer,
    LocalWorkerHandle,
    ProcessWorkerHandle,
    ServingCluster,
    SyntheticClient,
    WorkerSpec,
    framing,
)

#: lanes flush when drained, never on a clock (a forked worker pumps itself)
SPEC_KNOBS = dict(max_batch_size=4, max_delay_seconds=60.0)
TRANSPORTS = [EncryptedComputeServer, LocalWorkerHandle, ProcessWorkerHandle]


def _client(tenant, wire_version):
    return SyntheticClient(tenant, "copies", seed=9, wire_version=wire_version)


def _requests(tenant, wire_version) -> bytes:
    """Two requests of one client, as one stream chunk."""
    client = _client(tenant, wire_version)
    return client.request_bytes("square", [0.5, -0.25]) + client.request_bytes(
        "double", [0.125]
    )


def _serve(target, context, tenant, wire_version, hand_over):
    """The answers of a fresh ``target`` to :func:`_requests`, which
    ``hand_over`` passes to ``receive`` (and may overwrite once it has
    returned), then drained."""
    client = _client(tenant, wire_version)
    stream = _requests(tenant, wire_version)
    if target is EncryptedComputeServer:
        server = EncryptedComputeServer(context, **SPEC_KNOBS)
        client.connect(server)
        hand_over(stream, lambda data: server.receive(client.client_id, data))
        server.drain()
        return server.sessions.get(client.client_id).take_outbox()
    spec = WorkerSpec(params=context.params, **SPEC_KNOBS)
    cluster = ServingCluster(lambda wid: target(wid, spec), worker_count=1)
    try:
        tenant.register_with(cluster, wire_version=wire_version)
        client.connect_cluster(cluster)
        hand_over(stream, lambda data: cluster.receive(client.client_id, data))
        cluster.drain()
        assert cluster.inflight_count == 0
        return cluster.take_outbox(client.client_id)
    finally:
        cluster.stop()


def _as_bytes(stream, receive):
    receive(stream)


def _as_bytearray(stream, receive):
    buffer = bytearray(stream)
    receive(buffer)
    buffer[:] = bytes(len(buffer))  # overwritten before the flush


def _as_memoryview(stream, receive):
    buffer = bytearray(stream)
    receive(memoryview(buffer))
    buffer[:] = bytes(len(buffer))


@pytest.mark.parametrize("wire_version", [1, 2])
@pytest.mark.parametrize("hand_over", [_as_bytearray, _as_memoryview])
@pytest.mark.parametrize("target", TRANSPORTS, ids=lambda t: t.__name__)
def test_a_mutable_request_buffer_is_copied_at_receive(
    target, hand_over, wire_version, serving_context, tenant
):
    expected = _serve(target, serving_context, tenant, wire_version, _as_bytes)
    assert [framing.decode_frame(b).kind for b in expected] == [framing.RESPONSE] * 2
    got = _serve(target, serving_context, tenant, wire_version, hand_over)
    assert got == expected


def _pending(server: EncryptedComputeServer):
    """The wire ciphertexts admitted and not yet flushed."""
    return [request.ciphertext for request in server.queue._items]


@pytest.mark.parametrize("wire_version", [1, 2])
@pytest.mark.parametrize("via", ["server", "cluster"])
def test_an_admitted_payload_is_a_view_of_the_received_bytes(
    via, wire_version, serving_context, tenant, make_cluster
):
    client = _client(tenant, wire_version)
    stream = _requests(tenant, wire_version)
    if via == "server":
        server = EncryptedComputeServer(serving_context, **SPEC_KNOBS)
        client.connect(server)
        server.receive(client.client_id, stream)
    else:
        cluster = make_cluster(worker_count=1)
        tenant.register_with(cluster, wire_version=wire_version)
        client.connect_cluster(cluster)
        cluster.receive(client.client_id, stream)
        server = cluster.workers["w0"].server
    wires = _pending(server)
    assert len(wires) == 2
    for wire in wires:
        assert isinstance(wire.data, memoryview) and wire.data.readonly
        assert wire.data.obj is stream


class _RecordingDoor(AsyncFrontDoor):
    """A front door that keeps every REQUEST frame it dispatches."""

    def __init__(self, cluster):
        super().__init__(cluster)
        self.requests = []

    def _dispatch(self, frame, client_id, writer):
        if frame.kind == framing.REQUEST:
            self.requests.append(frame)
        return super()._dispatch(frame, client_id, writer)


def _over_socket(door, client, stream: bytes, piece: int):
    """Open ``client``'s session, write ``stream`` in ``piece``-byte
    writes, and return the two answers, the HELLO ack skipped."""

    async def main():
        async with door:
            reader, writer = await asyncio.open_connection(door.host, door.port)
            hello = framing.encode_frame(
                framing.HELLO, 0, client.client_id, op=client.tenant.key_id,
                op_arg=client.wire_version,
            )
            data = hello + stream
            for pos in range(0, len(data), piece):
                writer.write(data[pos : pos + piece])
                await writer.drain()
                await asyncio.sleep(0.005)  # the door reads this piece alone
            decoder, got = framing.FrameDecoder(), []
            while len(got) < 3:
                data = await asyncio.wait_for(reader.read(1 << 16), timeout=10)
                assert data, "the front door closed the connection"
                got.extend(decoder.feed(data))
            writer.close()
            await writer.wait_closed()
            return got

    ack, *answers = asyncio.run(main())
    assert ack.op == "hello"
    return answers


@pytest.mark.parametrize("piece", [1000, 1 << 20], ids=["1000-byte-writes", "one-write"])
@pytest.mark.parametrize("wire_version", [1, 2])
def test_a_socket_request_is_decoded_in_place(
    wire_version, piece, serving_context, tenant
):
    expected = [
        framing.decode_frame(b)
        for b in _serve(LocalWorkerHandle, serving_context, tenant, wire_version, _as_bytes)
    ]
    spec = WorkerSpec(params=serving_context.params, max_delay_seconds=1e-3)
    cluster = ServingCluster(lambda wid: LocalWorkerHandle(wid, spec), worker_count=1)
    try:
        tenant.register_with(cluster, wire_version=wire_version)
        door = _RecordingDoor(cluster)
        client = _client(tenant, wire_version)
        answers = _over_socket(door, client, _requests(tenant, wire_version), piece)
    finally:
        cluster.stop()
    assert len(door.requests) == 2
    for frame in door.requests:
        assert isinstance(frame.payload, memoryview) and frame.payload.readonly
        assert type(frame.payload.obj) is bytes
    key = lambda f: f.request_id  # noqa: E731 -- lanes may answer out of order
    assert [
        (f.kind, f.request_id, bytes(f.payload)) for f in sorted(answers, key=key)
    ] == [(f.kind, f.request_id, bytes(f.payload)) for f in sorted(expected, key=key)]


def test_v2_pieces_are_views_of_one_packed_blob(serving_context, tenant):
    client = _client(tenant, 2)
    cts = [
        client.encryptor.encrypt(tenant.encoder.encode([0.1 * b, -0.5]))
        for b in range(3)
    ]
    payloads = list(pack_ciphertexts(cts, 2))
    blobs = {id(body.obj) for _, body in payloads}
    assert len(blobs) == 1
    for ct, (head, body) in zip(cts, payloads):
        assert isinstance(body, memoryview) and body.readonly
        assert not isinstance(body.obj, bytes)
        assert head + body == serialize_ciphertext(ct, 2)


def test_a_v1_payload_is_its_header_and_one_word_block_a_component(serving_context, tenant):
    client = _client(tenant, 1)
    ct = client.encryptor.encrypt(tenant.encoder.encode([0.25, -0.5]))
    head, *words = next(pack_ciphertexts([ct], 1))
    assert len(words) == ct.size
    assert all(len(block) == ct.level_count * ct.n * 8 for block in words)
    assert b"".join((head, *words)) == serialize_ciphertext(ct, 1)


@pytest.mark.parametrize("frame_version", [1, 2])
def test_a_payload_in_pieces_frames_as_its_join(frame_version):
    pieces = (b"HEAX-header", memoryview(b"--packed residues--")[2:-2], b"")
    framed = framing.encode_frame(
        framing.RESPONSE, 7, "c", op="square", payload=pieces,
        frame_version=frame_version,
    )
    assert framed == framing.encode_frame(
        framing.RESPONSE, 7, "c", op="square", payload=b"".join(pieces),
        frame_version=frame_version,
    )
    assert framing.decode_frame(framed).payload == b"".join(pieces)
