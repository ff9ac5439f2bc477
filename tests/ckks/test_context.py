"""Unit tests for parameters, context precomputation, and Galois maps."""

import pytest

from repro.ckks.context import (
    CkksContext,
    CkksParameters,
    PAPER_PARAMETER_SETS,
    SET_A,
    SET_B,
    SET_C,
    toy_parameters,
)
from repro.ckks.poly import RnsPolynomial

from oracles import apply_galois


class TestParameters:
    def test_table2_set_a(self):
        assert SET_A.n == 4096
        assert SET_A.k == 2
        assert SET_A.total_modulus_bits == 109

    def test_table2_set_b(self):
        assert SET_B.n == 8192
        assert SET_B.k == 4
        assert SET_B.total_modulus_bits == 218

    def test_table2_set_c(self):
        assert SET_C.n == 16384
        assert SET_C.k == 8
        assert SET_C.total_modulus_bits == 438

    def test_all_paper_sets_word_safe(self):
        for ps in PAPER_PARAMETER_SETS.values():
            assert all(b <= 52 for b in ps.modulus_bits)

    def test_security_floor_enforced(self):
        with pytest.raises(ValueError):
            CkksParameters(n=64, modulus_bits=(30, 30), scale=2.0**20)

    def test_allow_insecure_bypasses_floor(self):
        p = toy_parameters(n=64)
        assert p.n == 64

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            CkksParameters(n=100, modulus_bits=(30, 30), scale=2.0**20, allow_insecure=True)

    def test_rejects_single_modulus(self):
        with pytest.raises(ValueError):
            CkksParameters(n=64, modulus_bits=(30,), scale=2.0**20, allow_insecure=True)

    def test_rejects_oversized_modulus_bits(self):
        with pytest.raises(ValueError):
            CkksParameters(n=64, modulus_bits=(53, 53), scale=2.0**20, allow_insecure=True)

    def test_slot_count(self):
        assert SET_A.slot_count == 2048


class TestContext:
    def test_basis_shapes(self, toy_context):
        assert len(toy_context.data_basis) == 3
        assert len(toy_context.key_basis) == 4
        assert toy_context.special_modulus.value == toy_context.key_basis.moduli[-1].value

    def test_basis_at_level(self, toy_context):
        b2 = toy_context.basis_at_level(2)
        assert len(b2) == 2
        assert [m.value for m in b2] == [m.value for m in toy_context.data_basis.moduli[:2]]

    def test_basis_at_level_bounds(self, toy_context):
        with pytest.raises(ValueError):
            toy_context.basis_at_level(0)
        with pytest.raises(ValueError):
            toy_context.basis_at_level(4)

    def test_key_basis_at_level_appends_special(self, toy_context):
        kb = toy_context.key_basis_at_level(2)
        assert len(kb) == 3
        assert kb.moduli[-1].value == toy_context.special_modulus.value

    def test_ntt_roundtrip(self, toy_context):
        p = RnsPolynomial.from_int_coeffs(
            list(range(toy_context.n)), toy_context.data_basis.moduli
        )
        back = toy_context.from_ntt(toy_context.to_ntt(p))
        assert back == p

    def test_double_transform_rejected(self, toy_context):
        p = RnsPolynomial.from_int_coeffs(
            [1] * toy_context.n, toy_context.data_basis.moduli
        )
        ntt = toy_context.to_ntt(p)
        with pytest.raises(ValueError):
            toy_context.to_ntt(ntt)
        with pytest.raises(ValueError):
            toy_context.from_ntt(p)


class TestGalois:
    def test_element_for_step(self, toy_context):
        n = toy_context.n
        assert toy_context.galois_element_for_step(0) == 1
        assert toy_context.galois_element_for_step(1) == 3
        assert toy_context.galois_element_for_step(2) == 9 % (2 * n)

    def test_negative_step_wraps(self, toy_context):
        n = toy_context.n
        neg = toy_context.galois_element_for_step(-1)
        pos = toy_context.galois_element_for_step(n // 2 - 1)
        assert neg == pos

    def test_conjugation_element(self, toy_context):
        assert toy_context.conjugation_element == 2 * toy_context.n - 1

    def test_apply_galois_identity(self, toy_context):
        p = RnsPolynomial.from_int_coeffs(
            list(range(toy_context.n)), toy_context.data_basis.moduli
        )
        assert apply_galois(toy_context, p, 1) == p

    def test_apply_galois_is_ring_automorphism(self, toy_context):
        """sigma(a * b) == sigma(a) * sigma(b) for the ring product."""
        ctx = toy_context
        a = RnsPolynomial.from_int_coeffs(
            [i % 7 for i in range(ctx.n)], ctx.data_basis.moduli
        )
        b = RnsPolynomial.from_int_coeffs(
            [(3 * i + 1) % 5 for i in range(ctx.n)], ctx.data_basis.moduli
        )
        g = ctx.galois_element_for_step(1)
        prod = ctx.from_ntt(ctx.to_ntt(a).dyadic_multiply(ctx.to_ntt(b)))
        lhs = apply_galois(ctx, prod, g)
        rhs = ctx.from_ntt(
            ctx.to_ntt(apply_galois(ctx, a, g)).dyadic_multiply(
                ctx.to_ntt(apply_galois(ctx, b, g))
            )
        )
        assert lhs == rhs

    def test_apply_galois_composition(self, toy_context):
        ctx = toy_context
        p = RnsPolynomial.from_int_coeffs(
            [i * i % 11 for i in range(ctx.n)], ctx.data_basis.moduli
        )
        g1 = ctx.galois_element_for_step(1)
        g2 = ctx.galois_element_for_step(2)
        once_twice = apply_galois(ctx, apply_galois(ctx, p, g1), g1)
        direct = apply_galois(ctx, p, g2)
        assert once_twice == direct

    def test_apply_galois_rejects_ntt_form(self, toy_context):
        p = toy_context.to_ntt(
            RnsPolynomial.from_int_coeffs([1] * toy_context.n, toy_context.data_basis.moduli)
        )
        with pytest.raises(ValueError):
            apply_galois(toy_context, p, 3)

    def test_apply_galois_rejects_even_element(self, toy_context):
        p = RnsPolynomial.from_int_coeffs([1] * toy_context.n, toy_context.data_basis.moduli)
        with pytest.raises(ValueError):
            toy_context.apply_galois_ntt(toy_context.to_ntt(p), 4)
