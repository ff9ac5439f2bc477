"""Tests for the MULT module simulator (Section 4.1)."""

import random

import pytest

from repro.ckks.modarith import Modulus
from repro.ckks.primes import generate_ntt_primes
from repro.core.mult_module import MultModuleSim

N = 64
P = generate_ntt_primes(N, 30, 1)[0]
MOD = Modulus(P)


def rand_poly(seed):
    rng = random.Random(seed)
    return [rng.randrange(P) for _ in range(N)]


class TestDyadicMultiply:
    @pytest.mark.parametrize("nc", [1, 4, 8, 16])
    def test_functional(self, nc):
        sim = MultModuleSim(MOD, N, nc)
        a, b = rand_poly(1), rand_poly(2)
        out, _ = sim.dyadic_multiply(a, b)
        assert out == [x * y % P for x, y in zip(a, b)]

    @pytest.mark.parametrize("nc", [4, 8, 16])
    def test_cycles_formula(self, nc):
        """One polynomial pair takes n / nc cycles (Table 7 Dyadic rate)."""
        sim = MultModuleSim(MOD, N, nc)
        _, stats = sim.dyadic_multiply(rand_poly(3), rand_poly(4))
        assert stats.cycles == N // nc


class TestCiphertextMultiply:
    def test_two_by_two_matches_algorithm5(self):
        """(a0,a1) x (b0,b1) -> (a0b0, a0b1+a1b0, a1b1)."""
        sim = MultModuleSim(MOD, N, 8)
        a0, a1, b0, b1 = (rand_poly(i) for i in range(4))
        outs, stats = sim.ciphertext_multiply([a0, a1], [b0, b1])
        assert stats.output_components == 3
        assert outs[0] == [x * y % P for x, y in zip(a0, b0)]
        assert outs[1] == [
            (x * w + y * z) % P for x, y, z, w in zip(a0, a1, b0, b1)
        ]
        assert outs[2] == [x * y % P for x, y in zip(a1, b1)]

    def test_three_by_two_general_case(self):
        """An unrelinearized (size-3) times a fresh (size-2) ciphertext."""
        sim = MultModuleSim(MOD, N, 8)
        ct1 = [rand_poly(i) for i in range(3)]
        ct2 = [rand_poly(10 + i) for i in range(2)]
        outs, stats = sim.ciphertext_multiply(ct1, ct2)
        assert len(outs) == 4
        # reference convolution of component indices
        ref = [[0] * N for _ in range(4)]
        for i in range(3):
            for j in range(2):
                for t in range(N):
                    ref[i + j][t] = (ref[i + j][t] + ct1[i][t] * ct2[j][t]) % P
        assert outs == ref

    def test_ciphertext_plaintext_mode(self):
        """beta = 1 is the C-P multiplication special case."""
        sim = MultModuleSim(MOD, N, 8)
        ct = [rand_poly(20), rand_poly(21)]
        pt = [rand_poly(22)]
        outs, stats = sim.ciphertext_multiply(ct, pt)
        assert len(outs) == 2
        for o, c in zip(outs, ct):
            assert o == [x * y % P for x, y in zip(c, pt[0])]

    def test_cycle_formula_alpha_beta(self):
        sim = MultModuleSim(MOD, N, 8)
        _, stats = sim.ciphertext_multiply(
            [rand_poly(30), rand_poly(31)], [rand_poly(32), rand_poly(33)]
        )
        assert stats.cycles == 2 * 2 * N // 8


class TestConstruction:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            MultModuleSim(MOD, N, 3)

    def test_rejects_non_dividing_cores(self):
        with pytest.raises(ValueError):
            MultModuleSim(MOD, 48, 32)
