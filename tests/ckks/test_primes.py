"""Unit tests for NTT-friendly prime generation and roots of unity."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ckks.primes import (
    generate_ntt_primes,
    is_prime,
    make_modulus_chain,
    primitive_2nth_root,
    primitive_root,
)


class TestIsPrime:
    def test_small_primes(self):
        for p in (2, 3, 5, 7, 11, 13, 97, 7919):
            assert is_prime(p)

    def test_small_composites(self):
        for c in (0, 1, 4, 9, 91, 561, 1105):  # includes Carmichael numbers
            assert not is_prime(c)

    def test_large_known_prime(self):
        assert is_prime((1 << 61) - 1)  # Mersenne prime M61

    def test_large_known_composite(self):
        assert not is_prime((1 << 61) - 3)

    def test_strong_pseudoprime_to_base_2(self):
        assert not is_prime(3215031751)  # SPSP to bases 2,3,5,7

    @given(st.integers(min_value=2, max_value=10_000))
    @settings(max_examples=200)
    def test_agrees_with_trial_division(self, n):
        trial = all(n % d for d in range(2, int(n**0.5) + 1)) and n >= 2
        assert is_prime(n) == trial


class TestGenerateNttPrimes:
    def test_congruence_and_size(self):
        for n in (64, 4096):
            for p in generate_ntt_primes(n, 30, 3):
                assert p % (2 * n) == 1
                assert p.bit_length() == 30
                assert is_prime(p)

    def test_distinct_and_descending(self):
        ps = generate_ntt_primes(128, 28, 4)
        assert len(set(ps)) == 4
        assert ps == sorted(ps, reverse=True)

    def test_deterministic(self):
        assert generate_ntt_primes(64, 30, 2) == generate_ntt_primes(64, 30, 2)

    def test_word_size_guard(self):
        with pytest.raises(ValueError):
            generate_ntt_primes(64, 53, 1, word_bits=54)

    def test_paper_sets_prime_sizes_exist(self):
        # Set-A needs 36/37-bit primes at n=2^12; Set-C 48/49-bit at 2^14.
        assert generate_ntt_primes(4096, 36, 2)
        assert generate_ntt_primes(16384, 49, 6)

    def test_exhaustion_raises(self):
        with pytest.raises(ValueError):
            generate_ntt_primes(512, 11, 50)  # few 11-bit primes = 1 mod 1024


class TestRoots:
    def test_primitive_root_generates_group(self):
        p = 97
        g = primitive_root(p)
        assert len({pow(g, e, p) for e in range(p - 1)}) == p - 1

    def test_2nth_root_property(self):
        n = 64
        p = generate_ntt_primes(n, 30, 1)[0]
        psi = primitive_2nth_root(p, n)
        assert pow(psi, n, p) == p - 1  # psi^n = -1
        assert pow(psi, 2 * n, p) == 1

    def test_minimal_root_is_minimal(self):
        n = 16
        p = generate_ntt_primes(n, 20, 1)[0]
        psi = primitive_2nth_root(p, n)
        # brute force over all elements
        candidates = [
            x for x in range(2, p) if pow(x, n, p) == p - 1
        ]
        assert psi == min(candidates)

    def test_rejects_bad_congruence(self):
        with pytest.raises(ValueError):
            primitive_2nth_root(97, 64)


class TestModulusChain:
    def test_mixed_bit_sizes(self):
        chain = make_modulus_chain(64, [30, 28, 30, 29])
        assert [m.value.bit_length() for m in chain] == [30, 28, 30, 29]
        assert len({m.value for m in chain}) == 4

    def test_equal_sizes_are_distinct(self):
        chain = make_modulus_chain(64, [30, 30, 30])
        assert len({m.value for m in chain}) == 3
