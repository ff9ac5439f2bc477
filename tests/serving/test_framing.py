"""Frame encode/decode and the incremental stream decoder."""

import struct

import pytest

from repro.serving.framing import (
    DEFAULT_MAX_FRAME_BYTES,
    ERROR,
    FRAME_OVERHEAD,
    Frame,
    FrameDecoder,
    REQUEST,
    RESPONSE,
    decode_frame,
    encode_frame,
)


def sample_frame(payload=b"\x01\x02\x03", kind=REQUEST):
    return encode_frame(kind, 42, "client-7", op="rotate", op_arg=-3, payload=payload)


class TestRoundTrip:
    @pytest.mark.parametrize("kind", [REQUEST, RESPONSE, ERROR])
    @pytest.mark.parametrize("payload", [b"", b"x", b"\x00" * 257])
    def test_roundtrip(self, kind, payload):
        frame = decode_frame(sample_frame(payload, kind))
        assert frame == Frame(kind, 42, "client-7", "rotate", -3, payload)

    def test_empty_op_and_client(self):
        frame = decode_frame(encode_frame(RESPONSE, 0, ""))
        assert frame.client_id == "" and frame.op == "" and frame.payload == b""

    def test_error_message_helper(self):
        blob = encode_frame(ERROR, 9, "c", payload="queue full".encode())
        assert decode_frame(blob).error_message == "queue full"

    def test_overhead_constant_matches(self):
        assert len(encode_frame(REQUEST, 0, "")) == FRAME_OVERHEAD


class TestValidation:
    def test_unknown_kind_rejected_on_encode(self):
        with pytest.raises(ValueError, match="kind"):
            encode_frame(99, 1, "c")

    def test_unknown_kind_rejected_on_decode(self):
        blob = bytearray(sample_frame())
        blob[4 + 5] = 99  # kind byte: prefix(4) + magic(4) + version(1)
        with pytest.raises(ValueError, match="kind"):
            decode_frame(bytes(blob))

    def test_bad_magic_rejected(self):
        blob = bytearray(sample_frame())
        blob[4] = 0
        with pytest.raises(ValueError, match="not a serving-protocol frame"):
            decode_frame(bytes(blob))

    def test_bad_version_rejected(self):
        blob = bytearray(sample_frame())
        blob[4 + 4] = 200
        with pytest.raises(ValueError, match="version"):
            decode_frame(bytes(blob))

    def test_truncated_buffer_rejected(self):
        blob = sample_frame()
        for cut in (0, 3, 10, len(blob) - 1):
            with pytest.raises(ValueError):
                decode_frame(blob[:cut])

    def test_trailing_bytes_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            decode_frame(sample_frame() + b"junk")

    def test_inconsistent_id_lengths_rejected(self):
        blob = bytearray(sample_frame(b""))
        # op_len byte claims more than the body holds
        struct.pack_into("<B", blob, 4 + 4 + 1 + 1 + 8 + 4 + 1, 255)
        with pytest.raises(ValueError, match="inconsistent"):
            decode_frame(bytes(blob))

    def test_oversized_ids_rejected_on_encode(self):
        with pytest.raises(ValueError, match="255"):
            encode_frame(REQUEST, 1, "c" * 300)


class TestFrameDecoder:
    def test_single_feed_many_frames(self):
        frames = [sample_frame(bytes([i])) for i in range(5)]
        out = FrameDecoder().feed(b"".join(frames))
        assert [f.payload for f in out] == [bytes([i]) for i in range(5)]

    def test_byte_dribble(self):
        """Frames survive arrival one byte at a time (worst-case socket)."""
        stream = sample_frame(b"abc") + sample_frame(b"defg")
        decoder = FrameDecoder()
        out = []
        for i in range(len(stream)):
            out.extend(decoder.feed(stream[i : i + 1]))
        assert [f.payload for f in out] == [b"abc", b"defg"]
        assert len(decoder._buffer) == 0

    def test_partial_frame_waits(self):
        blob = sample_frame(b"xyz")
        decoder = FrameDecoder()
        assert decoder.feed(blob[:-1]) == []
        assert len(decoder._buffer) == len(blob) - 1
        assert [f.payload for f in decoder.feed(blob[-1:])] == [b"xyz"]

    def test_oversized_frame_rejected(self):
        decoder = FrameDecoder(max_frame_bytes=64)
        blob = sample_frame(b"\x00" * 128)
        with pytest.raises(ValueError, match="cap"):
            decoder.feed(blob)

    def test_default_cap_fits_setc_ciphertext(self):
        # Set-C size-3 ciphertext: 3 comps x 8 primes x 2^14 x 8 B
        assert 3 * 8 * 16384 * 8 < DEFAULT_MAX_FRAME_BYTES

    def test_undersized_length_field_rejected(self):
        with pytest.raises(ValueError, match="below fixed header"):
            FrameDecoder().feed(struct.pack("<I", 2) + b"ab")


class TestStreamErrorSalvage:
    """A malformed frame must not lose valid frames from the same chunk."""

    def test_feed_raises_with_salvaged_frames(self):
        from repro.serving.framing import StreamProtocolError

        good = sample_frame(b"keep-me")
        bad = bytearray(sample_frame(b"x"))
        bad[4] = 0  # corrupt magic of the second frame
        with pytest.raises(StreamProtocolError) as excinfo:
            FrameDecoder().feed(good + bytes(bad))
        assert [f.payload for f in excinfo.value.frames] == [b"keep-me"]

    def test_next_frame_does_not_consume_on_error(self):
        bad = bytearray(sample_frame(b"x"))
        bad[4] = 0
        decoder = FrameDecoder()
        with pytest.raises(ValueError):
            decoder.feed(bytes(bad))
        assert len(decoder._buffer) == len(bad)  # still at the head
        with pytest.raises(ValueError):
            decoder.next_frame()  # a corrupt stream stays corrupt

    def test_next_frame_incremental_consumption(self):
        decoder = FrameDecoder()
        assert decoder.next_frame() is None
        decoder.feed(b"")  # no-op
        stream = sample_frame(b"a") + sample_frame(b"b")
        decoder._buffer.extend(stream)
        assert decoder.next_frame().payload == b"a"
        assert decoder.next_frame().payload == b"b"
        assert decoder.next_frame() is None
