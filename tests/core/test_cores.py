"""Tests for the three computation-core models (Table 3)."""

import random

import pytest

from repro.ckks.modarith import Modulus, MulRedConstant
from repro.ckks.ntt import NTTTables
from repro.ckks.primes import generate_ntt_primes
from repro.core.cores import CORE_SPECS, DyadicCore, INTTCore, NTTCore

N = 64
P = generate_ntt_primes(N, 30, 1)[0]
MOD = Modulus(P)


class TestSpecs:
    def test_table3_dyadic(self):
        spec = CORE_SPECS["dyadic"]
        assert (spec.dsp, spec.reg, spec.alm, spec.pipeline_stages) == (22, 4526, 1663, 23)

    def test_table3_ntt(self):
        spec = CORE_SPECS["ntt"]
        assert (spec.dsp, spec.reg, spec.alm, spec.pipeline_stages) == (10, 6297, 2066, 50)

    def test_table3_intt(self):
        spec = CORE_SPECS["intt"]
        assert (spec.dsp, spec.reg, spec.alm, spec.pipeline_stages) == (10, 5449, 2119, 49)

    def test_ntt_core_uses_fewer_dsp_than_dyadic(self):
        # one MulRed vs a full modular multiply datapath
        assert CORE_SPECS["ntt"].dsp < CORE_SPECS["dyadic"].dsp


class TestDyadicCore:
    def test_compute(self):
        core = DyadicCore(MOD)
        rng = random.Random(0)
        for _ in range(50):
            a, b = rng.randrange(P), rng.randrange(P)
            assert core.compute(a, b) == a * b % P


class TestButterflies:
    def test_ntt_butterfly_formula(self):
        core = NTTCore(MOD)
        tables = NTTTables(N, MOD)
        w = tables.root_powers[1]
        a, b = 5, 9
        hi, lo = core.butterfly(a, b, w)
        assert hi == (a + w.value * b) % P
        assert lo == (a - w.value * b) % P

    def test_intt_butterfly_inverts_ntt_butterfly(self):
        ntt = NTTCore(MOD)
        intt = INTTCore(MOD)
        tables = NTTTables(N, MOD)
        rng = random.Random(1)
        for idx in (1, 2, 3, N // 2, N - 1):
            w = tables.root_powers[idx]
            w_inv_div2 = MulRedConstant(pow(2 * w.value, -1, P), MOD)
            a, b = rng.randrange(P), rng.randrange(P)
            u, v = ntt.butterfly(a, b, w)
            a2, b2 = intt.butterfly(u, v, w_inv_div2)
            assert (a2, b2) == (a, b)

    def test_whole_transform_through_cores(self):
        """Chaining core butterflies stage by stage reproduces NTTTables."""
        tables = NTTTables(N, MOD)
        core = NTTCore(MOD)
        rng = random.Random(2)
        a = [rng.randrange(P) for _ in range(N)]
        data = list(a)
        t, m = N, 1
        while m < N:
            t >>= 1
            for i in range(m):
                w = tables.root_powers[m + i]
                for j in range(2 * i * t, 2 * i * t + t):
                    data[j], data[j + t] = core.butterfly(data[j], data[j + t], w)
            m <<= 1
        assert data == tables.forward(a)
