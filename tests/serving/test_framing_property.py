"""Property/fuzz tests for the wire layer: framing and deserializers.

The sharded front-door stands or falls with its byte-level parsers --
every router, worker and socket connection runs :class:`FrameDecoder`
over adversarially chunked streams, and every payload goes through one
of the three HEAX deserializers.  These tests state the parsers'
contracts as *properties* over seeded random inputs (``random.Random``
only -- no external property-testing dependency, and every run replays
the identical cases):

* chunking invariance -- a decoder fed a stream one byte at a time, or
  re-chunked at any seeded random boundaries, yields exactly the frames
  of a one-shot decode, in order;
* truncation safety -- any prefix of a valid stream yields exactly the
  complete frames before the cut and raises nothing (a partial frame
  just waits);
* corruption reporting -- a corrupted frame header raises
  :class:`StreamProtocolError` that *carries* every frame decoded ahead
  of the corruption, so good requests in the same read are never lost;
* the payload rule -- frames fed whole, as one multi-frame chunk or one
  byte at a time decode to equal frames and get byte-identical answers
  from a server; a payload is a view of a ``bytes`` chunk exactly when
  the frame was decoded in place, a copy otherwise, and a corrupt frame
  at any position raises carrying the same frames ahead of it in every
  feeding;
* deserializer totality -- for ciphertext/plaintext/key-switching-key
  blobs, truncation always raises ``ValueError`` (never silent zeros),
  arbitrary byte corruption either raises ``ValueError`` or returns a
  well-typed object, and valid blobs round-trip byte-identically.
"""

from __future__ import annotations

import random

import pytest

from repro.ckks.keys import KeyGenerator
from repro.ckks.serialization import (
    HEADER_BYTES,
    deserialize_ciphertext,
    deserialize_kswitch_key,
    serialize_ciphertext,
    serialize_kswitch_key,
)
from repro.serving import framing
from repro.serving.framing import FrameDecoder, StreamProtocolError


# ----------------------------------------------------------------------
# seeded random frame streams
# ----------------------------------------------------------------------
def random_frame(rng: random.Random) -> bytes:
    kind = rng.choice((framing.REQUEST, framing.RESPONSE, framing.ERROR, framing.HELLO))
    request_id = rng.randrange(0, 1 << 48)
    client_id = "".join(rng.choice("abcdef-0123456789") for _ in range(rng.randrange(0, 24)))
    op = rng.choice(("", "square", "rotate", "conjugate", "x" * rng.randrange(1, 40)))
    op_arg = rng.randrange(-(1 << 20), 1 << 20)
    payload = rng.randbytes(rng.randrange(0, 512))
    return framing.encode_frame(kind, request_id, client_id, op, op_arg, payload)


def random_stream(rng: random.Random, count: int):
    """``count`` random frames plus their concatenated stream bytes."""
    frames_bytes = [random_frame(rng) for _ in range(count)]
    return frames_bytes, b"".join(frames_bytes)


def decode_stream_oneshot(frames_bytes):
    return [framing.decode_frame(b) for b in frames_bytes]


class TestChunkingInvariance:
    @pytest.mark.parametrize("seed", range(8))
    def test_byte_at_a_time_equals_one_shot(self, seed):
        rng = random.Random(1000 + seed)
        frames_bytes, stream = random_stream(rng, rng.randrange(1, 8))
        expected = decode_stream_oneshot(frames_bytes)

        decoder = FrameDecoder()
        got = []
        for i in range(len(stream)):
            got.extend(decoder.feed(stream[i : i + 1]))
        assert got == expected
        assert len(decoder._buffer) == 0

    @pytest.mark.parametrize("seed", range(16))
    def test_random_rechunking_equals_one_shot(self, seed):
        rng = random.Random(2000 + seed)
        frames_bytes, stream = random_stream(rng, rng.randrange(1, 12))
        expected = decode_stream_oneshot(frames_bytes)

        # seeded random cut points, including empty chunks
        cuts = sorted(rng.randrange(0, len(stream) + 1) for _ in range(rng.randrange(0, 40)))
        bounds = [0] + cuts + [len(stream)]
        decoder = FrameDecoder()
        got = []
        for lo, hi in zip(bounds, bounds[1:]):
            got.extend(decoder.feed(stream[lo:hi]))
        assert got == expected
        assert len(decoder._buffer) == 0

    def test_single_frame_every_boundary(self):
        """Exhaustive split of one frame at every byte boundary."""
        rng = random.Random(3)
        frame_bytes = random_frame(rng)
        expected = framing.decode_frame(frame_bytes)
        for cut in range(len(frame_bytes) + 1):
            decoder = FrameDecoder()
            first = decoder.feed(frame_bytes[:cut])
            second = decoder.feed(frame_bytes[cut:])
            assert first + second == [expected], f"split at {cut}"


class TestTruncation:
    @pytest.mark.parametrize("seed", range(8))
    def test_any_prefix_yields_exactly_complete_frames(self, seed):
        rng = random.Random(4000 + seed)
        frames_bytes, stream = random_stream(rng, 4)
        expected = decode_stream_oneshot(frames_bytes)
        # frame end offsets within the stream
        ends = []
        pos = 0
        for b in frames_bytes:
            pos += len(b)
            ends.append(pos)

        for cut in sorted(rng.randrange(0, len(stream) + 1) for _ in range(32)):
            complete = sum(1 for e in ends if e <= cut)
            decoder = FrameDecoder()
            got = decoder.feed(stream[:cut])
            assert got == expected[:complete], f"prefix of {cut} bytes"
            assert len(decoder._buffer) == cut - (ends[complete - 1] if complete else 0)


class TestCorruption:
    @pytest.mark.parametrize("seed", range(12))
    def test_header_corruption_carries_prior_frames(self, seed):
        """Corrupt a header byte of frame k: the decoder raises
        StreamProtocolError whose ``frames`` are exactly frames 0..k-1."""
        rng = random.Random(5000 + seed)
        frames_bytes, _ = random_stream(rng, 4)
        expected = decode_stream_oneshot(frames_bytes)
        victim = rng.randrange(0, len(frames_bytes))

        # flip one byte of magic/version/kind: offsets 4..9 after the
        # length prefix -- guaranteed malformed, never "just a longer
        # frame" the decoder would wait for
        corrupt = bytearray(frames_bytes[victim])
        offset = rng.randrange(4, 10)
        corrupt[offset] ^= 0xFF
        stream = b"".join(frames_bytes[:victim]) + bytes(corrupt) + b"".join(
            frames_bytes[victim + 1 :]
        )

        decoder = FrameDecoder()
        with pytest.raises(StreamProtocolError) as excinfo:
            decoder.feed(stream)
        assert excinfo.value.frames == expected[:victim]
        # the corrupt head stays corrupt: the stream cannot resync
        with pytest.raises(StreamProtocolError):
            decoder.feed(b"")

    def test_oversized_length_rejected_before_buffering(self):
        decoder = FrameDecoder(max_frame_bytes=1 << 10)
        huge = (1 << 20).to_bytes(4, "little")
        with pytest.raises(StreamProtocolError, match="exceeds cap"):
            decoder.feed(huge)


def _feedings(frames_bytes):
    """The chunkings of one stream: frames fed whole, one multi-frame
    chunk, one byte at a time, and the whole stream in mutable buffers."""
    stream = b"".join(frames_bytes)
    return {
        "whole": list(frames_bytes),
        "one chunk": [stream],
        "every byte": [stream[i : i + 1] for i in range(len(stream))],
        "bytearray": [bytearray(stream)],
        "memoryview": [memoryview(bytearray(stream))],
    }


def _feed(chunks):
    """Every frame a fresh decoder yields over ``chunks``, and the frames
    collected before a :class:`StreamProtocolError` (with it) if one
    is raised."""
    decoder, frames = FrameDecoder(), []
    for chunk in chunks:
        try:
            frames.extend(decoder.feed(chunk))
        except StreamProtocolError as exc:
            frames.extend(exc.frames)
            with pytest.raises(StreamProtocolError):
                decoder.feed(b"")  # the corrupt head stays corrupt
            return frames, exc
    assert len(decoder._buffer) == 0
    return frames, None


class TestPayloadRule:
    @pytest.mark.parametrize("seed", range(8))
    def test_every_feeding_decodes_equal_frames(self, seed):
        rng = random.Random(6000 + seed)
        frames_bytes, _ = random_stream(rng, rng.randrange(1, 6))
        expected = decode_stream_oneshot(frames_bytes)
        for name, chunks in _feedings(frames_bytes).items():
            frames, error = _feed(chunks)
            assert error is None and frames == expected, name
            for frame in frames:
                # a view only of the immutable bytes it was decoded from
                if name in ("whole", "one chunk"):
                    assert isinstance(frame.payload, memoryview), name
                    assert frame.payload.readonly
                    assert any(frame.payload.obj is chunk for chunk in chunks)
                else:
                    assert type(frame.payload) is bytes, name

    def test_a_tail_is_buffered_and_copied(self):
        rng = random.Random(17)
        first, second = random_frame(rng), random_frame(rng)
        chunk = first + second[:5]
        decoder = FrameDecoder()
        [head] = decoder.feed(chunk)
        assert head.payload.obj is chunk
        assert bytes(decoder._buffer) == second[:5]
        [tail] = decoder.feed(second[5:])
        assert type(tail.payload) is bytes
        assert tail == framing.decode_frame(second)

    @pytest.mark.parametrize("seed", range(4))
    def test_a_corrupt_frame_carries_the_same_frames_in_every_feeding(self, seed):
        rng = random.Random(7000 + seed)
        frames_bytes, _ = random_stream(rng, 4)
        expected = decode_stream_oneshot(frames_bytes)
        for victim in range(len(frames_bytes)):
            corrupt = bytearray(frames_bytes[victim])
            corrupt[rng.randrange(4, 10)] ^= 0xFF  # magic, version or kind
            stream = list(frames_bytes)
            stream[victim] = bytes(corrupt)
            for name, chunks in _feedings(stream).items():
                frames, error = _feed(chunks)
                assert error is not None, (victim, name)
                assert frames == expected[:victim], (victim, name)


@pytest.mark.parametrize("wire_version", [1, 2])
def test_every_feeding_gets_the_same_answers(serving_context, tenant, wire_version):
    from repro.serving import EncryptedComputeServer, SyntheticClient

    def answers(chunks):
        client = SyntheticClient(tenant, "feeder", seed=3, wire_version=wire_version)
        server = EncryptedComputeServer(serving_context)
        client.connect(server)
        for chunk in chunks:
            server.receive(client.client_id, chunk)
        server.drain()
        return server.sessions.get(client.client_id).take_outbox()

    client = SyntheticClient(tenant, "feeder", seed=3, wire_version=wire_version)
    frames_bytes = [
        client.request_bytes(op, [0.25, -0.5], op_arg=arg)
        for op, arg in (("square", 0), ("double", 0), ("rotate", 1), ("negate", 0))
    ]
    feedings = _feedings(frames_bytes)
    expected = answers(feedings.pop("whole"))
    assert [framing.decode_frame(b).kind for b in expected] == [framing.RESPONSE] * 4
    for name, chunks in feedings.items():
        assert answers(chunks) == expected, name


# ----------------------------------------------------------------------
# the three payload deserializers
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def wire_objects(serving_context):
    """One valid serialized blob per kind, plus its deserializer."""
    keygen = KeyGenerator(serving_context, seed=77)
    from repro.ckks.encoder import CkksEncoder
    from repro.ckks.encryptor import Encryptor

    encoder = CkksEncoder(serving_context)
    pt = encoder.encode([0.5, -0.25, 0.125])
    ct = Encryptor(serving_context, keygen.public_key(), seed=7).encrypt(pt)
    ksk = keygen.relin_key()  # a RelinKey IS a KswitchKey
    return [
        ("ciphertext", serialize_ciphertext(ct), deserialize_ciphertext),
        ("kswitch_key", serialize_kswitch_key(ksk), deserialize_kswitch_key),
    ]


class TestDeserializerProperties:
    def test_round_trip_is_byte_identical(self, serving_context, wire_objects):
        serializers = {
            "ciphertext": serialize_ciphertext,
            "kswitch_key": serialize_kswitch_key,
        }
        for name, blob, deserialize in wire_objects:
            obj = deserialize(blob, serving_context)
            assert serializers[name](obj) == blob, name

    def test_every_truncation_raises(self, serving_context, wire_objects):
        """No prefix of a valid blob deserializes -- exact-length checks
        mean truncation can never produce silent zero residues."""
        for name, blob, deserialize in wire_objects:
            rng = random.Random(len(blob))
            cuts = {0, 1, HEADER_BYTES - 1, HEADER_BYTES, len(blob) - 1}
            cuts.update(rng.randrange(0, len(blob)) for _ in range(32))
            for cut in sorted(cuts):
                with pytest.raises(ValueError):
                    deserialize(blob[:cut], serving_context)

    def test_trailing_bytes_raise(self, serving_context, wire_objects):
        for name, blob, deserialize in wire_objects:
            with pytest.raises(ValueError, match="trailing"):
                deserialize(blob + b"\x00", serving_context)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_corruption_is_total(self, serving_context, wire_objects, seed):
        """Flipping arbitrary bytes either raises ValueError or yields a
        well-typed object -- never a crash, never a wrong type."""
        expected_types = {
            "ciphertext": "Ciphertext",
            "plaintext": "Plaintext",
            "kswitch_key": "KswitchKey",
        }
        for name, blob, deserialize in wire_objects:
            rng = random.Random(6000 + seed + len(blob))
            for _ in range(24):
                corrupt = bytearray(blob)
                for _ in range(rng.randrange(1, 4)):
                    corrupt[rng.randrange(0, len(corrupt))] ^= 1 << rng.randrange(8)
                try:
                    obj = deserialize(bytes(corrupt), serving_context)
                except ValueError:
                    continue  # rejection is the expected common outcome
                assert type(obj).__name__ == expected_types[name]

    def test_kind_confusion_rejected(self, serving_context, wire_objects):
        """Every blob fed to the other two deserializers is rejected."""
        by_name = {name: (blob, de) for name, blob, de in wire_objects}
        for name, (blob, _) in by_name.items():
            for other, (_, deserialize) in by_name.items():
                if other == name:
                    continue
                with pytest.raises(ValueError):
                    deserialize(blob, serving_context)
