"""Rotation and conjugation tests (Galois automorphism + KeySwitch)."""

import numpy as np
import pytest


def enc(encoder, encryptor, vals):
    return encryptor.encrypt(encoder.encode(vals))


def dec_all(encoder, decryptor, ct):
    return encoder.decode(decryptor.decrypt(ct))


@pytest.fixture(scope="module")
def slot_values(encoder):
    rng = np.random.default_rng(42)
    return rng.uniform(-2, 2, encoder.slot_count)


class TestRotation:
    def test_rotate_by_one(
        self, encoder, encryptor, decryptor, evaluator, galois_keys, slot_values
    ):
        ct = enc(encoder, encryptor, slot_values)
        out = dec_all(encoder, decryptor, evaluator.rotate(ct, 1, galois_keys))
        assert np.allclose(out.real, np.roll(slot_values, -1), atol=1e-2)

    def test_rotate_by_two(
        self, encoder, encryptor, decryptor, evaluator, galois_keys, slot_values
    ):
        ct = enc(encoder, encryptor, slot_values)
        out = dec_all(encoder, decryptor, evaluator.rotate(ct, 2, galois_keys))
        assert np.allclose(out.real, np.roll(slot_values, -2), atol=1e-2)

    def test_rotate_zero_is_identity_semantics(
        self, encoder, encryptor, decryptor, evaluator, keygen, slot_values
    ):
        keys = keygen.galois_keys([0])
        ct = enc(encoder, encryptor, slot_values)
        out = dec_all(encoder, decryptor, evaluator.rotate(ct, 0, keys))
        assert np.allclose(out.real, slot_values, atol=1e-2)

    def test_composed_rotations(
        self, encoder, encryptor, decryptor, evaluator, galois_keys, slot_values
    ):
        ct = enc(encoder, encryptor, slot_values)
        r1 = evaluator.rotate(ct, 1, galois_keys)
        r12 = evaluator.rotate(r1, 2, galois_keys)
        out = dec_all(encoder, decryptor, r12)
        assert np.allclose(out.real, np.roll(slot_values, -3), atol=1e-2)

    def test_negative_rotation_wraps(
        self, encoder, encryptor, decryptor, evaluator, keygen, slot_values
    ):
        keys = keygen.galois_keys([-1])
        ct = enc(encoder, encryptor, slot_values)
        out = dec_all(encoder, decryptor, evaluator.rotate(ct, -1, keys))
        assert np.allclose(out.real, np.roll(slot_values, 1), atol=1e-2)

    def test_full_cycle_returns_original(
        self, encoder, encryptor, decryptor, evaluator, keygen, slot_values
    ):
        """Rotating by slot_count returns the original vector."""
        keys = keygen.galois_keys([encoder.slot_count])
        ct = enc(encoder, encryptor, slot_values)
        out = dec_all(
            encoder, decryptor, evaluator.rotate(ct, encoder.slot_count, keys)
        )
        assert np.allclose(out.real, slot_values, atol=1e-2)

    def test_rotation_requires_size2(
        self, encoder, encryptor, evaluator, galois_keys
    ):
        a = enc(encoder, encryptor, np.array([1.0]))
        prod = evaluator.multiply(a, a)
        with pytest.raises(ValueError):
            evaluator.rotate(prod, 1, galois_keys)

    def test_missing_key_raises(self, encoder, encryptor, evaluator, galois_keys):
        ct = enc(encoder, encryptor, np.array([1.0]))
        with pytest.raises(KeyError):
            evaluator.rotate(ct, 7, galois_keys)  # only 1,2,3,5 generated


class TestConjugation:
    def test_conjugate(self, encoder, encryptor, decryptor, evaluator, galois_keys):
        vals = np.array([0.5 + 1.5j, -1.0 - 0.25j, 2.0 + 0.0j])
        ct = enc(encoder, encryptor, vals)
        out = dec_all(encoder, decryptor, evaluator.conjugate(ct, galois_keys))
        assert np.allclose(out[:3], np.conj(vals), atol=1e-2)

    def test_double_conjugation_is_identity(
        self, encoder, encryptor, decryptor, evaluator, galois_keys
    ):
        vals = np.array([1.0 + 2.0j, -3.0 + 0.5j])
        ct = enc(encoder, encryptor, vals)
        twice = evaluator.conjugate(
            evaluator.conjugate(ct, galois_keys), galois_keys
        )
        out = dec_all(encoder, decryptor, twice)
        assert np.allclose(out[:2], vals, atol=1e-2)


class TestRotationApplications:
    def test_rotate_and_sum_inner_product(
        self, encoder, encryptor, decryptor, evaluator, keygen
    ):
        """log-depth rotate-and-sum: every slot ends with the total sum --
        the reduction pattern of encrypted dot products (paper's MLaaS
        motivation)."""
        slots = encoder.slot_count
        rng = np.random.default_rng(3)
        vals = rng.uniform(-1, 1, slots)
        steps = []
        s = 1
        while s < slots:
            steps.append(s)
            s *= 2
        keys = keygen.galois_keys(steps)
        ct = enc(encoder, encryptor, vals)
        acc = ct
        s = 1
        while s < slots:
            acc = evaluator.add(acc, evaluator.rotate(acc, s, keys))
            s *= 2
        out = dec_all(encoder, decryptor, acc)
        assert np.allclose(out.real, vals.sum(), atol=0.05)
