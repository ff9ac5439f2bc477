"""Cross-package integration tests: CKKS x hardware x system.

These exercise whole paths a downstream user would run: deep encrypted
pipelines, hardware-simulated rotation/relinearization feeding back into
software decryption, and end-to-end workload projections.
"""

import numpy as np
import pytest

from repro.ckks.context import CkksContext, toy_parameters
from repro.ckks.decryptor import Decryptor
from repro.ckks.encoder import CkksEncoder
from repro.ckks.encryptor import Encryptor
from repro.ckks.evaluator import Evaluator
from repro.ckks.keys import GaloisKeySet, KeyGenerator
from repro.ckks.poly import Ciphertext
from repro.core.accelerator import HeaxAccelerator
from repro.core.arch import TABLE5_ARCHITECTURES
from repro.core.keyswitch_module import KeySwitchModuleSim
from repro.system.workload import RuntimeProjection, WorkloadGenerator


@pytest.fixture(scope="module")
def deep_stack():
    ctx = CkksContext(toy_parameters(n=128, k=4, prime_bits=30))
    kg = KeyGenerator(ctx, seed=31)
    return {
        "ctx": ctx,
        "keygen": kg,
        "encoder": CkksEncoder(ctx),
        "encryptor": Encryptor(ctx, kg.public_key(), seed=32),
        "decryptor": Decryptor(ctx, kg.secret_key),
        "evaluator": Evaluator(ctx),
        "relin": kg.relin_key(),
    }


class TestDeepPipelines:
    def test_depth_three_chain(self, deep_stack):
        """((x*y)*z)*w across three rescales -- uses the full chain."""
        s = deep_stack
        rng = np.random.default_rng(7)
        vecs = [rng.uniform(0.5, 1.5, 4) for _ in range(4)]
        cts = [s["encryptor"].encrypt(s["encoder"].encode(v)) for v in vecs]
        acc = cts[0]
        for ct in cts[1:]:
            # re-encode operand at acc's level by aligning the fresh ct
            ev = s["evaluator"]
            while ct.level_count > acc.level_count:
                ct = ev.rescale(
                    ev.multiply_plain(
                        ct, s["encoder"].encode(1.0, level_count=ct.level_count)
                    )
                )
            acc = ev.rescale(ev.relinearize(ev.multiply(acc, ct), s["relin"]))
        out = s["encoder"].decode(s["decryptor"].decrypt(acc)).real[:4]
        expected = vecs[0] * vecs[1] * vecs[2] * vecs[3]
        assert np.allclose(out, expected, atol=0.1)

    def test_sum_of_products(self, deep_stack):
        """sum_i x_i * y_i with relinearized, rescaled products."""
        s = deep_stack
        ev = s["evaluator"]
        rng = np.random.default_rng(8)
        total = None
        expected = np.zeros(4)
        for i in range(3):
            x, y = rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4)
            expected += x * y
            cx = s["encryptor"].encrypt(s["encoder"].encode(x))
            cy = s["encryptor"].encrypt(s["encoder"].encode(y))
            prod = ev.rescale(ev.relinearize(ev.multiply(cx, cy), s["relin"]))
            total = prod if total is None else ev.add(total, prod)
        out = s["encoder"].decode(s["decryptor"].decrypt(total)).real[:4]
        assert np.allclose(out, expected, atol=0.05)


class TestHardwareSoftwareLoop:
    def test_hardware_relin_decrypts_correctly(self, deep_stack):
        """A product relinearized *through the hardware simulator* must
        decrypt to the right values with the software decryptor."""
        s = deep_stack
        ctx = s["ctx"]
        arch = TABLE5_ARCHITECTURES[("Stratix10", "Set-B")]
        accel = HeaxAccelerator("Stratix10", "Set-B", context=ctx)
        x = np.array([1.5, -0.5, 2.0, 0.25])
        y = np.array([2.0, 3.0, -1.0, 4.0])
        cx = s["encryptor"].encrypt(s["encoder"].encode(x))
        cy = s["encryptor"].encrypt(s["encoder"].encode(y))
        prod = s["evaluator"].multiply(cx, cy)
        (f0, f1), stats = accel.execute_keyswitch(prod.polys[2], s["relin"])
        hw_ct = Ciphertext(
            [prod.polys[0].add(f0), prod.polys[1].add(f1)], prod.scale
        )
        out = s["encoder"].decode(s["decryptor"].decrypt(hw_ct)).real[:4]
        assert np.allclose(out, x * y, atol=0.05)
        assert stats.throughput_cycles > 0

    def test_hardware_rotation_matches_software(self, deep_stack):
        """Rotation via the KeySwitch module == the evaluator's keyswitch.

        The module mirrors Figure 5 literally: automorphism first, then
        one key switch of the rotated ``c1`` -- so it is compared bitwise
        against the evaluator's matching dataflow
        (``keyswitch_polynomial`` on the rotated polynomial).  The
        evaluator's production rotation decomposes first and applies
        the automorphism to the keys and the accumulators instead (the
        hoisting-ready centered gadget representative), so that path is
        checked at the decryption level, where both are the same
        rotation.
        """
        s = deep_stack
        ctx = s["ctx"]
        kg = s["keygen"]
        ev = s["evaluator"]
        elt = ctx.galois_element_for_step(1)
        gk = kg.galois_key(elt)
        vals = np.arange(8, dtype=float) / 4
        ct = s["encryptor"].encrypt(s["encoder"].encode(vals))
        # software path with the module's dataflow: automorphism, then
        # keyswitch of the rotated c1
        rotated = Ciphertext(
            [ctx.apply_galois_ntt(p, elt) for p in ct.polys], ct.scale
        )
        f0s, f1s = ev.keyswitch_polynomial(rotated.polys[1], gk)
        sw = Ciphertext([rotated.polys[0].add(f0s), f1s], ct.scale)
        # hardware path: same automorphism, keyswitch through the module
        sim = KeySwitchModuleSim(ctx, TABLE5_ARCHITECTURES[("Stratix10", "Set-B")])
        (f0, f1), _ = sim.run(rotated.polys[1], gk)
        hw = Ciphertext([rotated.polys[0].add(f0), f1], ct.scale)
        assert hw.polys[0] == sw.polys[0]
        assert hw.polys[1] == sw.polys[1]
        # the decompose-first production rotation decrypts identically
        hoisted = ev.apply_galois_hoisted(ct, [elt], GaloisKeySet({elt: gk}))[0]
        out_hw = s["encoder"].decode(s["decryptor"].decrypt(hw)).real[:8]
        out_ho = s["encoder"].decode(s["decryptor"].decrypt(hoisted)).real[:8]
        np.testing.assert_allclose(out_hw, out_ho, atol=1e-2)


class TestWorkloadProjectionLoop:
    def test_inference_projection_consistent_with_table8_regime(self):
        """A rotation-dominated workload's speedup approaches the Table 8
        KeySwitch speedup for the same configuration."""
        proj = RuntimeProjection("Stratix10", 8192, 4)
        w = WorkloadGenerator.matvec(256)
        s = proj.speedup(w)
        assert 100 < s < 400

    def test_projection_scales_linearly_in_batch(self):
        proj = RuntimeProjection("Stratix10", 4096, 2)
        w = WorkloadGenerator.logistic_inference(64)
        one = proj.heax_seconds(w)
        ten = proj.heax_seconds(w.scaled(10))
        assert ten == pytest.approx(10 * one, rel=1e-9)

    def test_all_configs_project(self):
        w = WorkloadGenerator.dense_layer(32)
        for device, n, k in [
            ("Arria10", 4096, 2),
            ("Stratix10", 4096, 2),
            ("Stratix10", 8192, 4),
            ("Stratix10", 16384, 8),
        ]:
            proj = RuntimeProjection(device, n, k)
            assert proj.heax_seconds(w) > 0
            assert proj.speedup(w) > 10
