"""Unit and property tests for the negacyclic NTT (Algorithms 3 and 4)."""

import random
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ckks.backend import numpy_backend as nb
from repro.ckks.context import SET_A, SET_B, SET_C
from repro.ckks.modarith import Modulus
from repro.ckks.ntt import NTTTables
from repro.ckks.primes import generate_ntt_primes, make_modulus_chain

from oracles import (
    bit_reverse,
    bit_reverse_permutation,
    negacyclic_convolution_reference,
    negacyclic_multiply,
)

N = 64
P = generate_ntt_primes(N, 30, 1)[0]

#: Every Table 2 prime at its own ring size, and toy primes (one per
#: twiddle regime of the numpy backend) at every ring size up to 64.
TABLE_CASES = [
    (params.name, i) for params in (SET_A, SET_B, SET_C) for i in range(len(params.modulus_bits))
] + [(n, bits) for n in (2, 4, 8, 16, 32, 64) for bits in (20, 30, 45, 48, 50, 52)]


@lru_cache(maxsize=None)
def case_tables(case) -> NTTTables:
    sets = {p.name: p for p in (SET_A, SET_B, SET_C)}
    if case[0] in sets:
        params = sets[case[0]]
        chain = make_modulus_chain(params.n, list(params.modulus_bits), params.word_bits)
        return NTTTables(params.n, chain[case[1]])
    n, bits = case
    return NTTTables(n, Modulus(generate_ntt_primes(n, bits, 1)[0]))


def oracle_twiddles(t: NTTTables, tw) -> tuple:
    """``tw``'s stage operands derived from the scalar oracle's
    :class:`MulRedConstant` lists rather than from the arrays."""
    p = t.modulus.value
    fwd = [c.value for c in t.root_powers]
    inv = [2 * c.value % p for c in t.inv_root_powers_div2]
    stages = [tw._stages(np.array(v, dtype=np.uint64), t.n) for v in (fwd, inv)]
    stages[1] = stages[1][::-1]
    stages[1][-1] = tw.pair(t.inv_n * inv[1] % p)
    return stages[0], stages[1], tw.pair(t.inv_n)


def assert_operands_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w)


@pytest.fixture(scope="module")
def tables():
    return NTTTables(N, Modulus(P))


def rand_poly(rng, n=N, p=P):
    return [rng.randrange(p) for _ in range(n)]


class TestBitReverse:
    def test_simple(self):
        assert bit_reverse(0b001, 3) == 0b100
        assert bit_reverse(0b110, 3) == 0b011

    def test_involution(self):
        for v in range(64):
            assert bit_reverse(bit_reverse(v, 6), 6) == v

    def test_permutation_involution(self):
        vals = list(range(32))
        assert bit_reverse_permutation(bit_reverse_permutation(vals)) == vals

    def test_permutation_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            bit_reverse_permutation([1, 2, 3])


class TestRoundTrip:
    def test_forward_inverse_identity(self, tables):
        rng = random.Random(1)
        a = rand_poly(rng)
        assert tables.inverse(tables.forward(a)) == a

    def test_inverse_forward_identity(self, tables):
        rng = random.Random(2)
        a = rand_poly(rng)
        assert tables.forward(tables.inverse(a)) == a

    def test_zero_fixed_point(self, tables):
        zero = [0] * N
        assert tables.forward(zero) == zero
        assert tables.inverse(zero) == zero

    def test_constant_polynomial(self, tables):
        # NTT of the constant poly c is the all-c vector (evaluations).
        c = 12345 % P
        a = [c] + [0] * (N - 1)
        assert tables.forward(a) == [c] * N

    @given(st.lists(st.integers(min_value=0, max_value=P - 1), min_size=N, max_size=N))
    @settings(max_examples=50)
    def test_roundtrip_property(self, tables, coeffs):
        assert tables.inverse(tables.forward(coeffs)) == coeffs


class TestLinearity:
    def test_additivity(self, tables):
        rng = random.Random(3)
        a, b = rand_poly(rng), rand_poly(rng)
        s = [(x + y) % P for x, y in zip(a, b)]
        fa, fb = tables.forward(a), tables.forward(b)
        fs = [(x + y) % P for x, y in zip(fa, fb)]
        assert tables.forward(s) == fs

    def test_scalar_multiplication(self, tables):
        rng = random.Random(4)
        a = rand_poly(rng)
        c = 9876543 % P
        scaled = [c * x % P for x in a]
        assert tables.forward(scaled) == [c * x % P for x in tables.forward(a)]


class TestNegacyclicConvolution:
    def test_matches_schoolbook(self, tables):
        rng = random.Random(5)
        a, b = rand_poly(rng), rand_poly(rng)
        assert negacyclic_multiply(tables, a, b) == negacyclic_convolution_reference(a, b, P)

    def test_x_times_xn_minus_1_wraps_negatively(self, tables):
        # X * X^(n-1) = X^n = -1 in R.
        x = [0, 1] + [0] * (N - 2)
        xn1 = [0] * (N - 1) + [1]
        prod = negacyclic_multiply(tables, x, xn1)
        expected = [P - 1] + [0] * (N - 1)
        assert prod == expected

    def test_multiplication_by_one(self, tables):
        rng = random.Random(6)
        a = rand_poly(rng)
        one = [1] + [0] * (N - 1)
        assert negacyclic_multiply(tables, a, one) == a

    def test_commutativity(self, tables):
        rng = random.Random(7)
        a, b = rand_poly(rng), rand_poly(rng)
        assert negacyclic_multiply(tables, a, b) == negacyclic_multiply(tables, b, a)

    @given(st.data())
    @settings(max_examples=20)
    def test_schoolbook_property_small(self, data):
        n = 16
        p = generate_ntt_primes(n, 20, 1)[0]
        t = NTTTables(n, Modulus(p))
        a = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
        b = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
        assert negacyclic_multiply(t, a, b) == negacyclic_convolution_reference(a, b, p)


class TestTableConstruction:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            NTTTables(48, Modulus(P))

    def test_rejects_incompatible_modulus(self):
        p = generate_ntt_primes(16, 20, 1)[0]
        # p = 1 mod 32 does not guarantee p = 1 mod 256
        if (p - 1) % 256:
            with pytest.raises(ValueError):
                NTTTables(128, Modulus(p))

    def test_rejects_bad_psi(self):
        with pytest.raises(ValueError):
            NTTTables(N, Modulus(P), psi=2)  # 2 is (almost surely) not a root

    def test_twiddles_have_mulred_ratios(self, tables):
        w = tables.root_powers[N // 2]
        assert w.ratio == (w.value << 54) // P

    @pytest.mark.parametrize("case", TABLE_CASES, ids="{0[0]}-{0[1]}".format)
    def test_array_tables_equal_the_object_view(self, case):
        t = case_tables(case)
        p, w = t.modulus.value, t.modulus.word_bits
        for values, objects in (
            (t.root_values, t.root_powers),
            (t.inv_root_values_div2, t.inv_root_powers_div2),
        ):
            assert values.dtype == np.uint64 and not values.flags.writeable
            assert values.tolist() == [c.value for c in objects]
            assert [c.ratio for c in objects] == [(v << w) // p for v in values.tolist()]

    @pytest.mark.parametrize("case", TABLE_CASES, ids="{0[0]}-{0[1]}".format)
    def test_twiddle_cache_equals_the_object_derivation(self, case):
        t = case_tables(case)
        tw = nb._TwiddleCache(t)
        fwd, inv, scale = oracle_twiddles(t, tw)
        for got, want in zip(tw.fwd + tw.inv, fwd + inv):
            assert_operands_equal(got, want)
        assert_operands_equal(tw.scale, scale)
        if tw.signed:
            assert_operands_equal(tw.sums[-1], scale)
            for got in tw.sums[:-1]:
                if got is not None:
                    assert_operands_equal(got, tw.pair(1))

    def test_dyadic_equals_ring_product(self, tables):
        """Pointwise product in NTT domain == negacyclic product (the
        property MULT module relies on)."""
        rng = random.Random(8)
        a, b = rand_poly(rng), rand_poly(rng)
        fa, fb = tables.forward(a), tables.forward(b)
        dyadic = [x * y % P for x, y in zip(fa, fb)]
        assert tables.inverse(dyadic) == negacyclic_convolution_reference(a, b, P)


@pytest.mark.slow
class TestPaperScale:
    def test_n4096_roundtrip_52bit(self):
        n = 4096
        p = generate_ntt_primes(n, 52, 1)[0]
        t = NTTTables(n, Modulus(p))
        rng = random.Random(9)
        a = [rng.randrange(p) for _ in range(n)]
        assert t.inverse(t.forward(a)) == a
