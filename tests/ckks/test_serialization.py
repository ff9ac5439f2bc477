"""Tests for the wire format and its size accounting.

Beyond round-trip correctness, the corruption classes here pin down the
*rejection* behavior: every way a payload can be malformed -- truncated
at any header or payload boundary, padded with trailing bytes, wrong
magic, wrong kind, wrong ring -- must raise ``ValueError``.  Before
these checks existed a truncated ciphertext deserialized silently into
zeros (``int.from_bytes(b"", "little") == 0``)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ckks.backend import available_backends, use_backend
from repro.ckks.batch import CiphertextBatch
from repro.ckks.context import CkksContext, toy_parameters
from repro.ckks.encoder import CkksEncoder
from repro.ckks.encryptor import Encryptor
from repro.ckks.evaluator import Evaluator
from repro.ckks.keys import KeyGenerator
from repro.ckks.serialization import (
    HEADER_BYTES,
    WORD_BYTES,
    admit_ciphertext,
    ciphertext_wire_bytes,
    deserialize_ciphertext,
    deserialize_kswitch_key,
    kswitch_key_wire_bytes,
    pack_ciphertexts,
    polynomial_wire_bytes,
    serialize_ciphertext,
    serialize_kswitch_key,
    unpack_ciphertexts,
)


class TestCiphertextRoundTrip:
    def test_roundtrip_preserves_decryption(
        self, toy_context, encoder, encryptor, decryptor
    ):
        vals = np.array([1.25, -3.0, 0.5])
        ct = encryptor.encrypt(encoder.encode(vals))
        blob = serialize_ciphertext(ct)
        back = deserialize_ciphertext(blob, toy_context)
        out = encoder.decode(decryptor.decrypt(back)).real[:3]
        assert np.allclose(out, vals, atol=1e-3)

    def test_roundtrip_exact_polynomials(self, toy_context, encoder, encryptor):
        ct = encryptor.encrypt(encoder.encode([2.0]))
        back = deserialize_ciphertext(serialize_ciphertext(ct), toy_context)
        assert back.size == ct.size
        assert back.scale == ct.scale
        for p, q in zip(ct.polys, back.polys):
            assert p == q

    def test_size3_ciphertext(self, toy_context, encoder, encryptor, evaluator):
        a = encryptor.encrypt(encoder.encode([1.0]))
        prod = evaluator.multiply(a, a)
        back = deserialize_ciphertext(serialize_ciphertext(prod), toy_context)
        assert back.size == 3

    def test_wrong_context_rejected(self, toy_context, encoder, encryptor):
        from repro.ckks.context import CkksContext, toy_parameters

        other = CkksContext(toy_parameters(n=32, k=2, prime_bits=28))
        ct = encryptor.encrypt(encoder.encode([1.0]))
        with pytest.raises(ValueError):
            deserialize_ciphertext(serialize_ciphertext(ct), other)

    def test_bad_magic_rejected(self, toy_context, encoder, encryptor):
        ct = encryptor.encrypt(encoder.encode([1.0]))
        blob = bytearray(serialize_ciphertext(ct))
        blob[0] = 0
        with pytest.raises(ValueError):
            deserialize_ciphertext(bytes(blob), toy_context)

    def test_kind_mismatch_rejected(self, toy_context, relin_key):
        with pytest.raises(ValueError):
            deserialize_ciphertext(serialize_kswitch_key(relin_key), toy_context)


class TestLaneDecode:
    """``unpack_ciphertexts`` is the one ciphertext decoder: N admitted
    blobs land in one lane, ``deserialize_ciphertext`` is its lane of one."""

    def _blobs(self, encoder, encryptor, versions):
        cts = [encryptor.encrypt(encoder.encode([0.5 + b])) for b in range(len(versions))]
        return cts, [serialize_ciphertext(ct, version=v) for ct, v in zip(cts, versions)]

    def test_lane_equals_one_decode_per_member_whatever_its_version(
        self, toy_context, encoder, encryptor
    ):
        cts, blobs = self._blobs(encoder, encryptor, (1, 2, 2, 1, 2))
        wires = [admit_ciphertext(blob, toy_context) for blob in blobs]
        assert [w.version for w in wires] == [1, 2, 2, 1, 2]
        elements, errors = unpack_ciphertexts(wires, toy_context)
        assert not errors
        for ct, blob, element in zip(cts, blobs, elements.values()):
            alone = deserialize_ciphertext(blob, toy_context)
            assert element.polys == alone.polys == ct.polys
            assert element.scale == alone.scale == ct.scale
        # the elements are one lane's split: joining them copies nothing
        lane = CiphertextBatch.join(list(elements.values()))
        assert lane is elements[0].origin[0] and lane.count == 5
        assert CiphertextBatch.join([elements[3]]).count == 1

    def test_corrupt_member_fails_alone(self, toy_context, encoder, encryptor):
        """A residue >= its modulus is found where the words are
        unpacked; the lane is compacted around the failed slot."""
        cts, blobs = self._blobs(encoder, encryptor, (2, 2, 2))
        width = toy_context.basis_at_level(3).moduli[0].value.bit_length()
        corrupt = bytearray(blobs[1])
        corrupt[HEADER_BYTES : HEADER_BYTES + 8] = b"\xff" * 8
        assert width < 64
        wires = [
            admit_ciphertext(bytes(b), toy_context)
            for b in (blobs[0], corrupt, blobs[2])
        ]
        elements, errors = unpack_ciphertexts(wires, toy_context)
        assert list(errors) == [1] and list(elements) == [0, 2]
        assert "packed residue" in str(errors[1]) and "corrupt row" in str(errors[1])
        assert elements[0].polys == cts[0].polys
        assert elements[2].polys == cts[2].polys
        assert CiphertextBatch.join([elements[0], elements[2]]).count == 2
        with pytest.raises(ValueError, match="packed residue .* corrupt row"):
            deserialize_ciphertext(bytes(corrupt), toy_context)

    def test_ragged_lane_rejected(self, toy_context, encoder, encryptor, evaluator):
        a = encryptor.encrypt(encoder.encode([1.0]))
        wires = [
            admit_ciphertext(serialize_ciphertext(ct), toy_context)
            for ct in (a, evaluator.multiply(a, a))
        ]
        with pytest.raises(ValueError, match="ragged lane"):
            unpack_ciphertexts(wires, toy_context)
        with pytest.raises(ValueError, match="ragged lane"):
            pack_ciphertexts([a, evaluator.multiply(a, a)])


_LANE_STACKS = {}


def _lane_stack(name):
    """One keyed toy context per backend, built once (Hypothesis draws
    inside one test invocation)."""
    if name not in _LANE_STACKS:
        with use_backend(name):
            ctx = CkksContext(toy_parameters(n=64, k=3, prime_bits=30, scale=2.0**28))
            keygen = KeyGenerator(ctx, seed=2701)
            _LANE_STACKS[name] = (
                ctx, CkksEncoder(ctx), Encryptor(ctx, keygen.public_key(), seed=2702),
                Evaluator(ctx),
            )
    return _LANE_STACKS[name]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_lane_encoder_is_one_serialize_per_member(data):
    """Payload ``b`` of ``pack_ciphertexts(cts, v)`` is
    ``serialize_ciphertext(cts[b], v)`` byte for byte, and the payloads
    come back through the lane decoder:
    widths 1-8, sizes 2-3, every level, both versions, a lane's
    ``split()`` members and independent ciphertexts, both backends."""
    name = data.draw(st.sampled_from(["reference", "numpy"]))
    if name not in available_backends():
        return
    ctx, encoder, encryptor, evaluator = _lane_stack(name)
    width = data.draw(st.integers(min_value=1, max_value=8))
    size = data.draw(st.integers(min_value=2, max_value=3))
    level = data.draw(st.integers(min_value=1, max_value=ctx.k))
    version = data.draw(st.sampled_from([1, 2]))
    split = data.draw(st.booleans())
    values = data.draw(st.lists(st.floats(-1, 1), min_size=width, max_size=width))
    with use_backend(name):
        cts = []
        for value in values:
            ct = encryptor.encrypt(encoder.encode([value]))
            if size == 3:
                ct = evaluator.multiply(ct, ct)
            while ct.level_count > level:
                ct = evaluator.rescale(ct)
            cts.append(ct)
        if split:
            cts = CiphertextBatch.join(cts).split()
        blobs = list(pack_ciphertexts(cts, version))
        assert blobs == [serialize_ciphertext(ct, version) for ct in cts]
        wires = [admit_ciphertext(blob, ctx) for blob in blobs]
        elements, errors = unpack_ciphertexts(wires, ctx)
        assert not errors and len(elements) == width
        for b, ct in enumerate(cts):
            assert elements[b].polys == ct.polys
            assert elements[b].scale == ct.scale and elements[b].size == size


class TestKswitchKeyRoundTrip:
    def test_roundtrip(self, toy_context, relin_key):
        blob = serialize_kswitch_key(relin_key)
        back = deserialize_kswitch_key(blob, toy_context)
        assert back.digit_count == relin_key.digit_count
        for i in range(back.digit_count):
            b0, a0 = relin_key.digit(i)
            b1, a1 = back.digit(i)
            assert b0 == b1 and a0 == a1

    def test_roundtripped_key_still_works(
        self, toy_context, encoder, encryptor, decryptor, evaluator, relin_key
    ):
        back = deserialize_kswitch_key(
            serialize_kswitch_key(relin_key), toy_context
        )
        vals = np.array([0.5, 2.0])
        a = encryptor.encrypt(encoder.encode(vals))
        prod = evaluator.relinearize(evaluator.multiply(a, a), back)
        out = encoder.decode(decryptor.decrypt(prod)).real[:2]
        assert np.allclose(out, vals**2, atol=1e-2)


class TestSizeAccounting:
    def test_polynomial_wire_bytes_matches_paper_range(self):
        """2^15 to 2^17 bytes per polynomial across Set-A..C (Section 5.2)."""
        assert polynomial_wire_bytes(4096) == 1 << 15
        assert polynomial_wire_bytes(8192) == 1 << 16
        assert polynomial_wire_bytes(16384) == 1 << 17

    def test_ciphertext_payload_formula(self, toy_context, encoder, encryptor):
        ct = encryptor.encrypt(encoder.encode([1.0]))
        blob = serialize_ciphertext(ct)
        expected = ciphertext_wire_bytes(ct.n, ct.size, ct.level_count)
        assert len(blob) - HEADER_BYTES == expected

    def test_ksk_wire_bytes_section51(self):
        """Set-C ksk = 151 Mb on the wire (the DRAM streaming volume)."""
        bits = kswitch_key_wire_bytes(16384, 8) * 8
        assert bits / 1e6 == pytest.approx(151, rel=0.01)

    def test_serialized_ksk_matches_formula(self, toy_context, relin_key):
        blob = serialize_kswitch_key(relin_key)
        k = toy_context.k
        expected = kswitch_key_wire_bytes(toy_context.n, k)
        assert len(blob) - HEADER_BYTES == expected


def _all_objects(toy_context, encoder, encryptor, evaluator, relin_key):
    """(blob, deserializer) pairs covering every kind and several shapes."""
    ct2 = encryptor.encrypt(encoder.encode([1.5, -0.25]))
    ct3 = evaluator.multiply(ct2, ct2)
    dropped = evaluator.rescale(ct3)
    return [
        (serialize_ciphertext(ct2), deserialize_ciphertext),
        (serialize_ciphertext(ct3), deserialize_ciphertext),
        (serialize_ciphertext(dropped), deserialize_ciphertext),
        (serialize_kswitch_key(relin_key), deserialize_kswitch_key),
    ]


class TestRoundTripProperty:
    """Serialize -> deserialize -> serialize is the identity on bytes."""

    def test_reserialization_is_bit_exact(
        self, toy_context, encoder, encryptor, evaluator, relin_key
    ):
        serializers = {
            deserialize_ciphertext: serialize_ciphertext,
            deserialize_kswitch_key: serialize_kswitch_key,
        }
        for blob, deserialize in _all_objects(
            toy_context, encoder, encryptor, evaluator, relin_key
        ):
            back = deserialize(blob, toy_context)
            assert serializers[deserialize](back) == blob

    @pytest.mark.parametrize("n,k", [(32, 2), (64, 1), (128, 4)])
    def test_roundtrip_across_shapes(self, n, k):
        from repro.ckks.context import CkksContext, toy_parameters
        from repro.ckks.encoder import CkksEncoder
        from repro.ckks.encryptor import Encryptor
        from repro.ckks.keys import KeyGenerator

        ctx = CkksContext(toy_parameters(n=n, k=k, prime_bits=30))
        keygen = KeyGenerator(ctx, seed=n + k)
        ct = Encryptor(ctx, keygen.public_key(), seed=1).encrypt(
            CkksEncoder(ctx).encode([1.0, -2.0])
        )
        blob = serialize_ciphertext(ct)
        assert serialize_ciphertext(deserialize_ciphertext(blob, ctx)) == blob


class TestCorruptionRejected:
    """Every malformed payload raises; nothing deserializes silently."""

    def test_truncation_at_every_header_boundary(
        self, toy_context, encoder, encryptor, evaluator, relin_key
    ):
        for blob, deserialize in _all_objects(
            toy_context, encoder, encryptor, evaluator, relin_key
        ):
            for cut in range(HEADER_BYTES):
                with pytest.raises(ValueError):
                    deserialize(blob[:cut], toy_context)

    def test_truncation_at_every_payload_word_boundary(
        self, toy_context, encoder, encryptor
    ):
        blob = serialize_ciphertext(encryptor.encrypt(encoder.encode([2.0])))
        for cut in range(HEADER_BYTES, len(blob), WORD_BYTES):
            with pytest.raises(ValueError, match="truncated"):
                deserialize_ciphertext(blob[:cut], toy_context)

    def test_truncation_mid_word(
        self, toy_context, encoder, encryptor, evaluator, relin_key
    ):
        for blob, deserialize in _all_objects(
            toy_context, encoder, encryptor, evaluator, relin_key
        ):
            with pytest.raises(ValueError, match="truncated"):
                deserialize(blob[:-3], toy_context)
            with pytest.raises(ValueError, match="truncated"):
                deserialize(blob[: HEADER_BYTES + 1], toy_context)

    def test_trailing_garbage_rejected(
        self, toy_context, encoder, encryptor, evaluator, relin_key
    ):
        for blob, deserialize in _all_objects(
            toy_context, encoder, encryptor, evaluator, relin_key
        ):
            for junk in (b"\x00", b"garbage"):
                with pytest.raises(ValueError, match="trailing"):
                    deserialize(blob + junk, toy_context)

    def test_truncated_payload_no_longer_decodes_as_zeros(
        self, toy_context, encoder, encryptor
    ):
        """The original bug: a cut blob yielded an all-zeros ciphertext."""
        ct = encryptor.encrypt(encoder.encode([3.0]))
        blob = serialize_ciphertext(ct)
        cut = blob[: HEADER_BYTES + ct.n * WORD_BYTES]  # one row of 2k+... gone
        with pytest.raises(ValueError, match="truncated"):
            deserialize_ciphertext(cut, toy_context)

    def test_bad_kind_byte_rejected(
        self, toy_context, encoder, encryptor, evaluator, relin_key
    ):
        for blob, deserialize in _all_objects(
            toy_context, encoder, encryptor, evaluator, relin_key
        ):
            mangled = bytearray(blob)
            mangled[5] = 99  # kind byte: magic(4) + version(1)
            with pytest.raises(ValueError):
                deserialize(bytes(mangled), toy_context)

    def test_kind_cross_rejected(self, toy_context, encoder, encryptor, relin_key):
        ct_blob = serialize_ciphertext(encryptor.encrypt(encoder.encode([1.0])))
        ksk_blob = serialize_kswitch_key(relin_key)
        with pytest.raises(ValueError, match="not a ciphertext"):
            deserialize_ciphertext(ksk_blob, toy_context)
        with pytest.raises(ValueError, match="not a key-switching key"):
            deserialize_kswitch_key(ct_blob, toy_context)

    def test_zero_count_header_rejected(self, toy_context, encoder, encryptor):
        import struct

        blob = bytearray(serialize_ciphertext(encryptor.encrypt(encoder.encode([1.0]))))
        struct.pack_into("<H", blob, 10, 0)  # comps := 0
        with pytest.raises(ValueError, match="malformed header"):
            deserialize_ciphertext(bytes(blob[:HEADER_BYTES]), toy_context)

    def test_kswitch_key_from_wrong_ring_rejected(self, toy_context):
        """The key path must enforce the same ring check as ciphertexts."""
        from repro.ckks.context import CkksContext, toy_parameters
        from repro.ckks.keys import KeyGenerator

        other = CkksContext(toy_parameters(n=32, k=3, prime_bits=30))
        foreign = KeyGenerator(other, seed=9).relin_key()
        with pytest.raises(ValueError, match="ring mismatch"):
            deserialize_kswitch_key(serialize_kswitch_key(foreign), toy_context)


class TestScaleMetadataRejected:
    """Degenerate scale in the wire header is corrupt metadata."""

    @pytest.mark.parametrize("bad", [0.0, -2.0**28, float("nan"), float("inf")])
    def test_ciphertext_bad_scale_rejected(
        self, toy_context, encoder, encryptor, bad
    ):
        import struct

        blob = bytearray(serialize_ciphertext(encryptor.encrypt(encoder.encode([1.0]))))
        struct.pack_into("<d", blob, 14, bad)  # scale field of the header
        with pytest.raises(ValueError, match="scale"):
            deserialize_ciphertext(bytes(blob), toy_context)

    def test_kswitch_key_zero_scale_still_accepted(self, toy_context, relin_key):
        # keys carry no scale; their header legitimately writes 0.0
        blob = serialize_kswitch_key(relin_key)
        assert deserialize_kswitch_key(blob, toy_context).digit_count == relin_key.digit_count


# ----------------------------------------------------------------------
# wire format v2 and header-field hardening
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def seeded_keygen(toy_context):
    from repro.ckks.keys import KeyGenerator

    return KeyGenerator(toy_context, seed=424242, expansion_seed=b"\x11" * 32)


@pytest.fixture(scope="module")
def seeded_relin_key(seeded_keygen):
    return seeded_keygen.relin_key()


class TestHeaderFieldBounds:
    """The serializers must reject shapes the fixed header cannot hold.

    Regression for the ``level_count | 0x8000`` hazard: ``level_count``
    shares its u16 with the NTT flag, so 0x8000 levels would silently
    set (or a packed flag would corrupt) the flag bit; ``comps`` and
    ``n`` would wrap through struct packing.
    """

    @staticmethod
    def _fake_ct(n=64, size=2, level_count=3):
        from types import SimpleNamespace

        return SimpleNamespace(n=n, size=size, level_count=level_count)

    def test_level_count_colliding_with_ntt_flag_rejected(self):
        with pytest.raises(ValueError, match="NTT"):
            serialize_ciphertext(self._fake_ct(level_count=0x8000))

    def test_component_count_overflow_rejected(self):
        with pytest.raises(ValueError, match="component count"):
            serialize_ciphertext(self._fake_ct(size=0x10000))

    def test_ring_degree_overflow_rejected(self):
        with pytest.raises(ValueError, match="ring degree"):
            serialize_ciphertext(self._fake_ct(n=0x100000000))

    def test_nonpositive_fields_rejected(self):
        with pytest.raises(ValueError):
            serialize_ciphertext(self._fake_ct(n=0))
        with pytest.raises(ValueError):
            serialize_ciphertext(self._fake_ct(size=0))
        with pytest.raises(ValueError):
            serialize_ciphertext(self._fake_ct(level_count=0))

    def test_kswitch_key_digit_bound_enforced(self):
        from types import SimpleNamespace

        d0 = SimpleNamespace(n=64, level_count=4)
        fake = SimpleNamespace(
            digit_count=0x10000, digit=lambda i: (d0, None)
        )
        with pytest.raises(ValueError, match="component count"):
            serialize_kswitch_key(fake)

    def test_kswitch_key_level_bound_enforced(self):
        from types import SimpleNamespace

        d0 = SimpleNamespace(n=64, level_count=0x8000)
        fake = SimpleNamespace(digit_count=3, digit=lambda i: (d0, None))
        with pytest.raises(ValueError, match="NTT"):
            serialize_kswitch_key(fake)


class TestKskNttFlagEnforced:
    """Regression: the deserializer used to discard the header's NTT
    flag and hardcode ``is_ntt=True``.  A blob whose flag contradicts
    the kswitch invariant (keys are NTT-form by construction) must be
    rejected, not silently reinterpreted."""

    @pytest.mark.parametrize("version", [1, 2])
    def test_cleared_ntt_flag_rejected(self, toy_context, relin_key, version):
        blob = bytearray(serialize_kswitch_key(relin_key, version=version))
        # rns_flags u16 lives at offset 12; bit 15 is the NTT flag
        blob[13] &= 0x7F
        with pytest.raises(ValueError, match="coefficient form"):
            deserialize_kswitch_key(bytes(blob), toy_context)

    def test_valid_flag_still_accepted(self, toy_context, relin_key):
        blob = serialize_kswitch_key(relin_key)
        assert (blob[13] & 0x80) != 0  # the flag is actually set on the wire
        back = deserialize_kswitch_key(blob, toy_context)
        b0, a0 = back.digit(0)
        assert b0.is_ntt and a0.is_ntt


class TestKskDigitCountEnforced:
    """A key whose digit count is not the context's ``k`` used to decode
    and then fail every full-level key switch ("basis implies 3 digits;
    key has 2").  It is refused at decode, before a seeded layout's
    ``a`` columns are expanded."""

    @pytest.mark.parametrize("layout", ["v1", "v2-full", "v2-seeded"])
    @pytest.mark.parametrize("change", [-1, +1])
    def test_wrong_digit_count_rejected(
        self, toy_context, relin_key, seeded_relin_key, monkeypatch, layout, change
    ):
        from repro.ckks import serialization
        from repro.ckks.keys import KswitchKey

        key = seeded_relin_key if layout == "v2-seeded" else relin_key
        digits = key.digits[:-1] if change < 0 else key.digits + key.digits[:1]
        blob = serialize_kswitch_key(
            KswitchKey(digits, seed=key.seed), version=1 if layout == "v1" else 2
        )
        if layout == "v2-seeded":
            assert blob[HEADER_BYTES] == serialization._KSK_LAYOUT_SEEDED

        def no_expansion(*args):
            raise AssertionError("a seed was expanded before the digit check")

        monkeypatch.setattr(serialization, "expand_uniform_poly", no_expansion)
        expected = f"key has {toy_context.k + change} digits; context needs {toy_context.k}"
        with pytest.raises(ValueError, match=expected):
            deserialize_kswitch_key(blob, toy_context)


class TestSizeAccountingBothVersions:
    """``len(serialize_*(obj, v)) == HEADER_BYTES + *_wire_bytes(...)``
    must hold for every kind in both versions -- the scheduler's PCIe
    model bills these formulas as actual bytes."""

    @pytest.mark.parametrize("version", [1, 2])
    def test_ciphertext(self, toy_context, encoder, encryptor, version):
        ct = encryptor.encrypt(encoder.encode([1.0, -2.5]))
        moduli = toy_context.basis_at_level(ct.level_count).moduli
        blob = serialize_ciphertext(ct, version=version)
        assert len(blob) == HEADER_BYTES + ciphertext_wire_bytes(
            ct.n, ct.size, ct.level_count, version=version, moduli=moduli
        )

    @pytest.mark.parametrize("version", [1, 2])
    def test_rescaled_ciphertext(
        self, toy_context, encoder, encryptor, evaluator, version
    ):
        ct = evaluator.rescale(
            evaluator.multiply(*[encryptor.encrypt(encoder.encode([1.5]))] * 2)
        )
        moduli = toy_context.basis_at_level(ct.level_count).moduli
        blob = serialize_ciphertext(ct, version=version)
        assert len(blob) == HEADER_BYTES + ciphertext_wire_bytes(
            ct.n, ct.size, ct.level_count, version=version, moduli=moduli
        )

    @pytest.mark.parametrize("version", [1, 2])
    def test_kswitch_key_full(self, toy_context, relin_key, version):
        moduli = toy_context.key_basis.moduli
        blob = serialize_kswitch_key(relin_key, version=version)
        assert len(blob) == HEADER_BYTES + kswitch_key_wire_bytes(
            toy_context.n, toy_context.k, version=version, moduli=moduli
        )

    def test_kswitch_key_seeded(self, toy_context, seeded_relin_key):
        moduli = toy_context.key_basis.moduli
        blob = serialize_kswitch_key(seeded_relin_key, version=2)
        assert len(blob) == HEADER_BYTES + kswitch_key_wire_bytes(
            toy_context.n, toy_context.k, version=2, moduli=moduli,
            seeded=True,
        )

    def test_v1_cannot_claim_seeded(self, toy_context):
        with pytest.raises(ValueError, match="seed"):
            kswitch_key_wire_bytes(64, 3, version=1, seeded=True)

    def test_v2_requires_moduli(self):
        with pytest.raises(ValueError, match="moduli"):
            ciphertext_wire_bytes(64, 2, 3, version=2)


class TestV2RoundTrip:
    """v2 blobs round-trip bit-exactly, shrink the wire, and decode to
    the same polynomials v1 carries."""

    def test_ciphertext_v2_roundtrip_and_matches_v1(
        self, toy_context, encoder, encryptor
    ):
        ct = encryptor.encrypt(encoder.encode([1.25, -3.0]))
        v1 = serialize_ciphertext(ct, version=1)
        v2 = serialize_ciphertext(ct, version=2)
        assert len(v2) < len(v1)
        back = deserialize_ciphertext(v2, toy_context)
        assert serialize_ciphertext(back, version=2) == v2
        for p, q in zip(ct.polys, back.polys):
            assert p == q
        # and the v2 decode re-serializes to the identical v1 bytes
        assert serialize_ciphertext(back, version=1) == v1

    def test_ksk_v2_full_roundtrip(self, toy_context, relin_key):
        v2 = serialize_kswitch_key(relin_key, version=2)
        back = deserialize_kswitch_key(v2, toy_context)
        assert serialize_kswitch_key(back, version=2) == v2
        for i in range(back.digit_count):
            assert back.digit(i) == relin_key.digit(i)

    def test_ksk_v2_seeded_roundtrip(self, toy_context, seeded_relin_key):
        v2 = serialize_kswitch_key(seeded_relin_key, version=2)
        back = deserialize_kswitch_key(v2, toy_context)
        # the decoded key keeps its seed, so re-serialization round-trips
        assert back.seed == seeded_relin_key.seed
        assert serialize_kswitch_key(back, version=2) == v2
        for i in range(back.digit_count):
            assert back.digit(i) == seeded_relin_key.digit(i)

    def test_seeded_key_halves_the_blob(self, toy_context, seeded_relin_key):
        full = serialize_kswitch_key(seeded_relin_key, version=1)
        seeded = serialize_kswitch_key(seeded_relin_key, version=2)
        assert len(seeded) < len(full) / 2

    def test_deserialized_seeded_key_still_relinearizes(
        self, toy_context, encoder, seeded_keygen, seeded_relin_key, evaluator
    ):
        from repro.ckks.decryptor import Decryptor
        from repro.ckks.encryptor import Encryptor

        back = deserialize_kswitch_key(
            serialize_kswitch_key(seeded_relin_key, version=2), toy_context
        )
        enc = Encryptor(toy_context, seeded_keygen.public_key(), seed=5)
        dec = Decryptor(toy_context, seeded_keygen.secret_key)
        vals = np.array([0.5, 2.0])
        a = enc.encrypt(encoder.encode(vals))
        prod = evaluator.relinearize(evaluator.multiply(a, a), back)
        out = encoder.decode(dec.decrypt(prod)).real[:2]
        assert np.allclose(out, vals**2, atol=1e-2)

    def test_v2_truncation_at_bit_row_boundaries_raises(
        self, toy_context, encoder, encryptor
    ):
        blob = serialize_ciphertext(
            encryptor.encrypt(encoder.encode([2.0])), version=2
        )
        for cut in range(HEADER_BYTES, len(blob), 7):
            with pytest.raises(ValueError, match="truncated"):
                deserialize_ciphertext(blob[:cut], toy_context)

    def test_v2_trailing_bytes_raise(self, toy_context, encoder, encryptor):
        blob = serialize_ciphertext(
            encryptor.encrypt(encoder.encode([2.0])), version=2
        )
        with pytest.raises(ValueError, match="trailing"):
            deserialize_ciphertext(blob + b"\x00", toy_context)

    def test_unknown_ksk_layout_byte_rejected(self, toy_context, relin_key):
        blob = bytearray(serialize_kswitch_key(relin_key, version=2))
        blob[HEADER_BYTES] = 7
        with pytest.raises(ValueError, match="layout"):
            deserialize_kswitch_key(bytes(blob), toy_context)

    def test_unsupported_version_rejected(self, toy_context, encoder, encryptor):
        ct = encryptor.encrypt(encoder.encode([1.0]))
        with pytest.raises(ValueError, match="version"):
            serialize_ciphertext(ct, version=3)
        blob = bytearray(serialize_ciphertext(ct))
        blob[4] = 9  # header version byte
        with pytest.raises(ValueError, match="version"):
            deserialize_ciphertext(bytes(blob), toy_context)
