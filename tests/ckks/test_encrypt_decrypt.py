"""Encryption/decryption correctness, both public-key and symmetric."""

import numpy as np
import pytest

from repro.ckks.decryptor import Decryptor
from repro.ckks.encryptor import Encryptor
from repro.ckks.keys import KeyGenerator

from oracles import noise_budget_bits


class TestPublicKeyEncryption:
    def test_roundtrip(self, encoder, encryptor, decryptor):
        vals = np.array([1.0, -2.5, 0.125, 3.75])
        ct = encryptor.encrypt(encoder.encode(vals))
        out = encoder.decode(decryptor.decrypt(ct))
        assert np.allclose(out[:4], vals, atol=1e-3)

    def test_fresh_ciphertext_shape(self, encoder, encryptor, toy_context):
        ct = encryptor.encrypt(encoder.encode([1.0]))
        assert ct.size == 2
        assert ct.level_count == toy_context.k
        assert ct.is_ntt

    def test_randomized(self, encoder, encryptor):
        pt = encoder.encode([1.0])
        c1, c2 = encryptor.encrypt(pt), encryptor.encrypt(pt)
        assert c1.polys[1] != c2.polys[1]

    def test_complex_values(self, encoder, encryptor, decryptor):
        vals = np.array([0.5 + 1.0j, -0.25 - 0.75j])
        ct = encryptor.encrypt(encoder.encode(vals))
        out = encoder.decode(decryptor.decrypt(ct))
        assert np.allclose(out[:2], vals, atol=1e-3)

    def test_lower_level_encryption(self, encoder, encryptor, decryptor):
        pt = encoder.encode([2.0], level_count=2)
        ct = encryptor.encrypt(pt)
        assert ct.level_count == 2
        out = encoder.decode(decryptor.decrypt(ct))
        assert np.isclose(out[0].real, 2.0, atol=1e-3)


class TestSymmetricEncryption:
    def test_roundtrip(self, encoder, sym_encryptor, decryptor):
        vals = np.array([-1.0, 4.0, 0.0625])
        ct = sym_encryptor.encrypt(encoder.encode(vals))
        out = encoder.decode(decryptor.decrypt(ct))
        assert np.allclose(out[:3], vals, atol=1e-3)

    def test_symmetric_c1_is_uniform_not_keyed(self, encoder, sym_encryptor):
        ct = sym_encryptor.encrypt(encoder.encode([1.0]))
        assert ct.size == 2


class TestKeyMismatch:
    def test_wrong_key_fails_to_decrypt(self, toy_context, encoder, encryptor):
        other = KeyGenerator(toy_context, seed=999)
        wrong = Decryptor(toy_context, other.secret_key)
        vals = np.array([1.0, 2.0])
        ct = encryptor.encrypt(encoder.encode(vals))
        out = encoder.decode(wrong.decrypt(ct))
        assert not np.allclose(out[:2], vals, atol=0.5)

    def test_encryptor_rejects_bad_key_type(self, toy_context):
        with pytest.raises(TypeError):
            Encryptor(toy_context, object())


class TestNoise:
    def test_fresh_noise_budget_positive(self, toy_context, encoder, encryptor, decryptor):
        pt = encoder.encode([1.0])
        ct = encryptor.encrypt(pt)
        budget = noise_budget_bits(decryptor, ct, pt)
        assert budget > 20  # plenty of headroom in a fresh ciphertext

    def test_adding_ciphertexts_grows_noise(
        self, toy_context, encoder, encryptor, decryptor, evaluator
    ):
        pt = encoder.encode([1.0])
        ct = encryptor.encrypt(pt)
        b0 = noise_budget_bits(decryptor, ct, pt)
        acc = ct
        from repro.ckks.poly import Plaintext

        ref = pt
        for _ in range(4):
            acc = evaluator.add(acc, acc)
            ref = Plaintext(ref.poly.add(ref.poly), ref.scale)
        b1 = noise_budget_bits(decryptor, acc, ref)
        assert b1 <= b0
