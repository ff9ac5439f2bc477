"""Evaluator tests: add/sub/mul/plain ops/rescale (Algorithms 5 and 6)."""

import numpy as np
import pytest

from repro.ckks import (
    Ciphertext,
    CkksContext,
    CkksEncoder,
    Decryptor,
    Encryptor,
    Evaluator,
    KeyGenerator,
    Plaintext,
)
from repro.ckks.context import toy_parameters

VALS_A = np.array([1.0, -2.0, 0.5, 3.0])
VALS_B = np.array([0.25, 4.0, -1.5, 2.0])


def enc(encoder, encryptor, vals, **kw):
    return encryptor.encrypt(encoder.encode(vals, **kw))


def dec(encoder, decryptor, ct, n=4):
    return encoder.decode(decryptor.decrypt(ct))[:n]


class TestAddSub:
    def test_add(self, encoder, encryptor, decryptor, evaluator):
        ct = evaluator.add(
            enc(encoder, encryptor, VALS_A), enc(encoder, encryptor, VALS_B)
        )
        assert np.allclose(dec(encoder, decryptor, ct), VALS_A + VALS_B, atol=1e-3)

    def test_sub(self, encoder, encryptor, decryptor, evaluator):
        ct = evaluator.sub(
            enc(encoder, encryptor, VALS_A), enc(encoder, encryptor, VALS_B)
        )
        assert np.allclose(dec(encoder, decryptor, ct), VALS_A - VALS_B, atol=1e-3)

    def test_negate(self, encoder, encryptor, decryptor, evaluator):
        ct = evaluator.multiply_integers(enc(encoder, encryptor, VALS_A), [-1])
        assert np.allclose(dec(encoder, decryptor, ct), -VALS_A, atol=1e-3)

    def test_add_plain(self, encoder, encryptor, decryptor, evaluator):
        ct = evaluator.add_plain(
            enc(encoder, encryptor, VALS_A), encoder.encode(VALS_B)
        )
        assert np.allclose(dec(encoder, decryptor, ct), VALS_A + VALS_B, atol=1e-3)

    def test_scale_mismatch_rejected(self, encoder, encryptor, evaluator):
        a = enc(encoder, encryptor, VALS_A)
        b = enc(encoder, encryptor, VALS_B, scale=2.0**20)
        with pytest.raises(ValueError):
            evaluator.add(a, b)

    def test_level_mismatch_rejected(self, encoder, encryptor, evaluator):
        a = enc(encoder, encryptor, VALS_A)
        b = enc(encoder, encryptor, VALS_B, level_count=2)
        with pytest.raises(ValueError):
            evaluator.add(a, b)

    def test_add_mixed_sizes(self, encoder, encryptor, decryptor, evaluator):
        """Adding a size-3 (unrelinearized) and a size-2 ciphertext."""
        a, b = enc(encoder, encryptor, VALS_A), enc(encoder, encryptor, VALS_B)
        prod = evaluator.multiply(a, b)  # size 3, scale Delta^2
        sq = evaluator.multiply(b, a)
        total = evaluator.add(prod, sq)
        assert total.size == 3
        expected = 2 * VALS_A * VALS_B
        assert np.allclose(dec(encoder, decryptor, total), expected, atol=1e-2)


class TestMultiply:
    def test_ciphertext_product_size3(self, encoder, encryptor, decryptor, evaluator):
        prod = evaluator.multiply(
            enc(encoder, encryptor, VALS_A), enc(encoder, encryptor, VALS_B)
        )
        assert prod.size == 3
        assert np.allclose(dec(encoder, decryptor, prod), VALS_A * VALS_B, atol=1e-2)

    def test_scale_multiplies(self, encoder, encryptor, evaluator, toy_context):
        a, b = enc(encoder, encryptor, VALS_A), enc(encoder, encryptor, VALS_B)
        prod = evaluator.multiply(a, b)
        assert prod.scale == pytest.approx(a.scale * b.scale)

    def test_square_matches_multiply(self, encoder, encryptor, decryptor, evaluator):
        a = enc(encoder, encryptor, VALS_A)
        sq = evaluator.square(a)
        assert np.allclose(dec(encoder, decryptor, sq), VALS_A**2, atol=1e-2)

    def test_multiply_plain(self, encoder, encryptor, decryptor, evaluator):
        ct = evaluator.multiply_plain(
            enc(encoder, encryptor, VALS_A), encoder.encode(VALS_B)
        )
        assert np.allclose(dec(encoder, decryptor, ct), VALS_A * VALS_B, atol=1e-2)

    def test_three_way_product_size4(self, encoder, encryptor, decryptor, evaluator):
        a = enc(encoder, encryptor, VALS_A)
        b = enc(encoder, encryptor, VALS_B)
        c = enc(encoder, encryptor, np.array([2.0, 2.0, 2.0, 2.0]))
        prod = evaluator.multiply(evaluator.multiply(a, b), c)
        assert prod.size == 4
        assert np.allclose(
            dec(encoder, decryptor, prod), VALS_A * VALS_B * 2.0, atol=0.05
        )

    @pytest.mark.parametrize("backend", ["reference", "numpy"])
    def test_products_refuse_coefficient_form(self, backend):
        """A dyadic product is the ring product only in NTT form: on
        coefficient-form operands ``square`` / ``multiply`` /
        ``multiply_plain`` must raise, not return a ciphertext that
        decodes to ~1e10 where 0.25 was expected."""
        ctx = CkksContext(toy_parameters(n=64), backend=backend)
        encoder = CkksEncoder(ctx)
        keygen = KeyGenerator(ctx, seed=5)
        pt = encoder.encode([0.5])
        ct = Encryptor(ctx, keygen.public_key(), seed=6).encrypt(pt)
        coeff = Ciphertext([ctx.from_ntt(p) for p in ct.polys], ct.scale)
        coeff_pt = Plaintext(ctx.from_ntt(pt.poly), pt.scale)
        ev = Evaluator(ctx)
        for product in (
            lambda: ev.square(coeff),
            lambda: ev.multiply(coeff, coeff),
            lambda: ev.multiply_plain(coeff, coeff_pt),
        ):
            with pytest.raises(ValueError, match="NTT-form polynomials"):
                product()
        sq = Decryptor(ctx, keygen.secret_key).decrypt(ev.square(ct))
        assert encoder.decode(sq).real[0] == pytest.approx(0.25, abs=1e-3)


class TestRescale:
    def test_rescale_drops_level_and_scale(
        self, encoder, encryptor, evaluator, toy_context
    ):
        a, b = enc(encoder, encryptor, VALS_A), enc(encoder, encryptor, VALS_B)
        prod = evaluator.multiply(a, b)
        res = evaluator.rescale(prod)
        assert res.level_count == prod.level_count - 1
        last_prime = prod.moduli[-1].value
        assert res.scale == pytest.approx(prod.scale / last_prime)

    def test_rescale_preserves_values(self, encoder, encryptor, decryptor, evaluator):
        a, b = enc(encoder, encryptor, VALS_A), enc(encoder, encryptor, VALS_B)
        res = evaluator.rescale(evaluator.multiply(a, b))
        assert np.allclose(dec(encoder, decryptor, res), VALS_A * VALS_B, atol=1e-2)

    def test_rescale_exhaustion(self, encoder, encryptor, evaluator, toy_context):
        ct = enc(encoder, encryptor, VALS_A, level_count=1)
        with pytest.raises(ValueError):
            evaluator.rescale(ct)

    def test_two_consecutive_rescales(
        self, encoder, encryptor, decryptor, evaluator, relin_key
    ):
        """depth-2: ((a*b) rescaled) * (a*b rescaled) then rescale again."""
        a = enc(encoder, encryptor, VALS_A)
        b = enc(encoder, encryptor, VALS_B)
        ab = evaluator.rescale(evaluator.relinearize(evaluator.multiply(a, b), relin_key))
        sq = evaluator.rescale(
            evaluator.relinearize(evaluator.multiply(ab, ab), relin_key)
        )
        assert sq.level_count == 1
        expected = (VALS_A * VALS_B) ** 2
        assert np.allclose(dec(encoder, decryptor, sq), expected, atol=0.1)


class TestScaleCheckHardening:
    """check_scales must reject degenerate scales, not pass vacuously.

    With ``max(a, b) <= 0`` the relative-tolerance bound is non-positive,
    so before the fix *any* pair containing a zero/negative scale passed
    the mismatch test.
    """

    def test_zero_scale_rejected(self):
        from repro.ckks.batch import check_scales

        with pytest.raises(ValueError, match="non-positive scale"):
            check_scales(0.0, 0.0)
        with pytest.raises(ValueError, match="non-positive scale"):
            check_scales(0.0, 2.0**40)
        with pytest.raises(ValueError, match="non-positive scale"):
            check_scales(2.0**40, 0.0)

    def test_negative_scale_rejected(self):
        from repro.ckks.batch import check_scales

        with pytest.raises(ValueError, match="non-positive scale"):
            check_scales(-1.0, 1e30)
        with pytest.raises(ValueError, match="non-positive scale"):
            check_scales(-2.0**28, -2.0**28)

    def test_nan_scale_rejected(self):
        from repro.ckks.batch import check_scales

        with pytest.raises(ValueError, match="non-positive scale"):
            check_scales(float("nan"), 2.0**28)

    def test_valid_scales_still_pass(self):
        from repro.ckks.batch import check_scales

        check_scales(2.0**28, 2.0**28)
        check_scales(2.0**28, 2.0**28 * (1 + 1e-12))

    def test_genuine_mismatch_still_raises(self):
        from repro.ckks.batch import check_scales

        with pytest.raises(ValueError, match="scale mismatch"):
            check_scales(2.0**28, 2.0**29)

    def test_add_rejects_zero_scale_operand(
        self, encoder, encryptor, evaluator
    ):
        a = enc(encoder, encryptor, VALS_A)
        b = enc(encoder, encryptor, VALS_B)
        b.scale = 0.0
        with pytest.raises(ValueError, match="non-positive scale"):
            evaluator.add(a, b)
