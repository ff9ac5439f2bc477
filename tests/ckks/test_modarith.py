"""Unit tests for Algorithms 1 and 2 (Barrett reduction, MulRed)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ckks.modarith import (
    HEAX_WORD_BITS,
    Modulus,
    MulRedConstant,
    SEAL_WORD_BITS,
    barrett_reduce,
    div2_mod,
    mul_red,
)
from repro.ckks.primes import generate_ntt_primes

P30 = generate_ntt_primes(64, 30, 1)[0]
P50 = generate_ntt_primes(4096, 50, 1)[0]


class TestBarrettReduce:
    def test_small_values_unchanged(self):
        m = Modulus(P30)
        for x in (0, 1, 17, P30 - 1):
            assert m.reduce(x) == x

    def test_matches_builtin_mod_at_extremes(self):
        m = Modulus(P30)
        for x in (P30, P30 + 1, 2 * P30 - 1, (P30 - 1) ** 2):
            assert m.reduce(x) == x % P30

    def test_double_word_inputs(self):
        m = Modulus(P50)
        x = (P50 - 1) ** 2
        assert m.reduce(x) == x % P50

    def test_explicit_function_form(self):
        u = (1 << (2 * 54)) // P50
        assert barrett_reduce(123456789123456789, P50, u, 54) == 123456789123456789 % P50

    @given(st.integers(min_value=0, max_value=(P30 - 1) ** 2))
    @settings(max_examples=300)
    def test_matches_builtin_mod_property(self, x):
        m = Modulus(P30)
        assert m.reduce(x) == x % P30


class TestMulRed:
    def test_matches_builtin(self):
        m = Modulus(P30)
        c = MulRedConstant(12345 % P30, m)
        for x in (0, 1, P30 - 1, 987654321 % P30):
            assert c.mul(x) == x * c.value % P30

    def test_zero_constant(self):
        m = Modulus(P30)
        c = MulRedConstant(0, m)
        assert c.mul(P30 - 1) == 0

    def test_requires_reduced_constant(self):
        m = Modulus(P30)
        with pytest.raises(ValueError):
            MulRedConstant(P30, m)

    def test_function_form_50bit(self):
        y = 0x3FFFFFFFFFF % P50
        y_prime = (y << 54) // P50
        for x in (1, P50 - 1, P50 // 2):
            assert mul_red(x, y, y_prime, P50, 54) == x * y % P50

    @given(
        st.integers(min_value=0, max_value=P30 - 1),
        st.integers(min_value=0, max_value=P30 - 1),
    )
    @settings(max_examples=300)
    def test_matches_builtin_property(self, x, y):
        m = Modulus(P30)
        assert MulRedConstant(y, m).mul(x) == x * y % P30

    def test_ratio_vector_precompute(self):
        m = Modulus(P30)
        values = [1, 2, 3, P30 - 1]
        ratios = [MulRedConstant(v, m).ratio for v in values]
        assert ratios == [(v << 54) // P30 for v in values]


class TestModulus:
    def test_rejects_oversized_modulus(self):
        # Algorithm 2 needs p < 2^(w-2): a 53-bit prime is too big at w=54.
        with pytest.raises(ValueError):
            Modulus((1 << 53) + 5, HEAX_WORD_BITS)

    def test_word_size_bound_is_inclusive_of_52_bits(self):
        p52 = generate_ntt_primes(4096, 52, 1)[0]
        assert Modulus(p52, HEAX_WORD_BITS).value == p52

    def test_seal_word_size_accepts_60_bit(self):
        p60 = generate_ntt_primes(4096, 60, 1, word_bits=SEAL_WORD_BITS)[0]
        m = Modulus(p60, SEAL_WORD_BITS)
        assert m.reduce((p60 - 1) ** 2) == (p60 - 1) ** 2 % p60

    def test_rejects_tiny_modulus(self):
        with pytest.raises(ValueError):
            Modulus(1)

    def test_add_sub_neg(self):
        m = Modulus(P30)
        assert m.add(P30 - 1, 1) == 0
        assert m.sub(0, 1) == P30 - 1
        assert m.sub(0, 5) == P30 - 5


class TestDiv2:
    def test_even(self):
        assert div2_mod(10, P30) == 5

    def test_odd(self):
        m = Modulus(P30)
        x = 7
        assert m.mul(div2_mod(x, P30), 2) == x

    @given(st.integers(min_value=0, max_value=P30 - 1))
    @settings(max_examples=200)
    def test_doubling_roundtrip(self, x):
        m = Modulus(P30)
        assert m.mul(m.div2(x), 2) == x
