"""Paper-scale fidelity: the full CKKS pipeline on real Set-A parameters.

Runs the actual Table 2 Set-A instance (n = 4096, 36/36/37-bit primes,
128-bit-secure ring) through encode -> encrypt -> multiply ->
relinearize -> rescale -> rotate -> decrypt.  Slow (seconds, pure
Python) but it proves the library works at the sizes the paper
evaluates, not just on toy rings.
"""

import numpy as np
import pytest

from repro.ckks import (
    CkksContext,
    CkksEncoder,
    Decryptor,
    Encryptor,
    Evaluator,
    KeyGenerator,
    SET_A,
)

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def set_a():
    ctx = CkksContext(SET_A)
    kg = KeyGenerator(ctx, seed=2020)
    return {
        "ctx": ctx,
        "keygen": kg,
        "encoder": CkksEncoder(ctx),
        "encryptor": Encryptor(ctx, kg.public_key(), seed=1),
        "decryptor": Decryptor(ctx, kg.secret_key),
        "evaluator": Evaluator(ctx),
    }


class TestSetAPipeline:
    def test_parameters_are_the_paper_instance(self, set_a):
        ctx = set_a["ctx"]
        assert ctx.n == 4096
        assert ctx.k == 2
        assert ctx.params.total_modulus_bits == 109
        for m in ctx.key_basis:
            assert m.value % (2 * 4096) == 1
            assert m.value < 1 << 52

    def test_encrypt_decrypt(self, set_a):
        s = set_a
        rng = np.random.default_rng(0)
        vals = rng.uniform(-3, 3, 2048)  # fill all slots
        ct = s["encryptor"].encrypt(s["encoder"].encode(vals))
        out = s["encoder"].decode(s["decryptor"].decrypt(ct)).real
        assert np.allclose(out, vals, atol=1e-3)

    def test_multiply_relin_rescale(self, set_a):
        s = set_a
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, 8)
        y = rng.uniform(-1, 1, 8)
        cx = s["encryptor"].encrypt(s["encoder"].encode(x))
        cy = s["encryptor"].encrypt(s["encoder"].encode(y))
        relin = s["keygen"].relin_key()
        prod = s["evaluator"].rescale(
            s["evaluator"].multiply_relin(cx, cy, relin)
        )
        assert prod.level_count == 1
        out = s["encoder"].decode(s["decryptor"].decrypt(prod)).real[:8]
        assert np.allclose(out, x * y, atol=1e-2)

    def test_rotation(self, set_a):
        s = set_a
        keys = s["keygen"].galois_keys([1])
        vals = np.arange(16, dtype=float) / 8
        ct = s["encryptor"].encrypt(s["encoder"].encode(vals))
        rot = s["evaluator"].rotate(ct, 1, keys)
        out = s["encoder"].decode(s["decryptor"].decrypt(rot)).real[:15]
        assert np.allclose(out, vals[1:16], atol=1e-2)

    def test_hoisted_sweep_is_rotation_by_rotation(self, set_a):
        """Six rotations floor as one 12-row stack per modulus, which at
        n = 4096 crosses the numpy kernels' 8-row chunk (a toy ring never
        does): each result must still be the bits of its rotation alone,
        and decrypt to it."""
        s = set_a
        steps = list(range(1, 7))
        keys = s["keygen"].galois_keys(steps)
        vals = np.arange(16, dtype=float) / 8
        ct = s["encryptor"].encrypt(s["encoder"].encode(vals))
        ev = s["evaluator"]
        for step, rot in zip(steps, ev.rotate_hoisted(ct, steps, keys)):
            alone = ev.rotate(ct, step, keys)
            assert [p.residues for p in rot.polys] == [p.residues for p in alone.polys]
            out = s["encoder"].decode(s["decryptor"].decrypt(rot)).real[: 16 - step]
            assert np.allclose(out, vals[step:], atol=1e-2)
