"""Tests for the RLWE sampling distributions.

The sampler draws blocks of Mersenne Twister words at array speed; the
per-coefficient ``random.Random`` loops below are its oracle, and every
draw must equal theirs bit for bit.
"""

import collections
import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ckks import sampling
from repro.ckks.context import SET_A, SET_B, CkksContext, toy_parameters
from repro.ckks.keys import KeyGenerator
from repro.ckks.modarith import Modulus
from repro.ckks.primes import generate_ntt_primes, make_modulus_chain
from repro.ckks.rns import RnsBasis
from repro.ckks.sampling import (
    ERROR_STDDEV,
    ERROR_TRUNCATION_SIGMAS,
    Sampler,
    expand_uniform_poly,
)

MODULI = make_modulus_chain(64, [30, 29])


class TestTernary:
    def test_support(self):
        s = Sampler(1)
        vals = s.ternary_coeffs(10_000)
        assert set(vals) == {-1, 0, 1}

    def test_roughly_uniform(self):
        s = Sampler(2)
        vals = s.ternary_coeffs(30_000)
        for v in (-1, 0, 1):
            frac = vals.count(v) / len(vals)
            assert abs(frac - 1 / 3) < 0.02

    def test_seeded_determinism(self):
        assert Sampler(7).ternary_coeffs(100) == Sampler(7).ternary_coeffs(100)

    def test_different_seeds_differ(self):
        assert Sampler(1).ternary_coeffs(100) != Sampler(2).ternary_coeffs(100)


class TestGaussian:
    def test_truncation_bound(self):
        s = Sampler(3)
        bound = math.ceil(ERROR_TRUNCATION_SIGMAS * ERROR_STDDEV)
        vals = s.gaussian_coeffs(20_000)
        assert max(abs(v) for v in vals) <= bound

    def test_mean_near_zero(self):
        s = Sampler(4)
        vals = s.gaussian_coeffs(20_000)
        assert abs(sum(vals) / len(vals)) < 0.1

    def test_stddev_near_sigma(self):
        s = Sampler(5)
        vals = s.gaussian_coeffs(20_000)
        var = sum(v * v for v in vals) / len(vals)
        assert abs(math.sqrt(var) - ERROR_STDDEV) < 0.2

    def test_custom_stddev(self):
        s = Sampler(6)
        wide = s.gaussian_coeffs(5000, stddev=10.0)
        var = sum(v * v for v in wide) / len(wide)
        assert 8.0 < math.sqrt(var) < 12.0


class TestUniform:
    def test_in_range_per_modulus(self):
        s = Sampler(8)
        poly = s.uniform_residues(64, MODULI)
        assert poly.is_ntt
        for m, row in zip(MODULI, poly.residues):
            assert all(0 <= v < m.value for v in row)

    def test_covers_range(self):
        s = Sampler(9)
        poly = s.uniform_residues(64, MODULI)
        # with 64 draws from a 2^30 range, values should be spread out
        row = poly.residues[0]
        assert max(row) > MODULI[0].value // 2
        assert len(set(row)) == len(row)


class TestPolyWrappers:
    def test_ternary_poly_residues_consistent(self):
        s = Sampler(10)
        poly = s.ternary_poly(64, MODULI)
        assert not poly.is_ntt
        basis = RnsBasis(MODULI)
        for v in basis.compose_centered_rows(poly.rows):
            assert v in (-1, 0, 1)

    def test_gaussian_poly_residues_consistent(self):
        s = Sampler(11)
        poly = s.gaussian_poly(64, MODULI)
        basis = RnsBasis(MODULI)
        bound = math.ceil(ERROR_TRUNCATION_SIGMAS * ERROR_STDDEV)
        for v in basis.compose_centered_rows(poly.rows):
            assert abs(v) <= bound


# ----------------------------------------------------------------------
# the oracle: per-coefficient random.Random loops
# ----------------------------------------------------------------------
def oracle_ternary(rng, n):
    return [rng.randrange(3) - 1 for _ in range(n)]


def oracle_gaussian(rng, n, stddev=ERROR_STDDEV):
    bound = math.ceil(sampling.ERROR_TRUNCATION_SIGMAS * stddev)
    out = []
    for _ in range(n):
        while True:
            v = round(rng.gauss(0.0, stddev))
            if abs(v) <= bound:
                out.append(v)
                break
    return out


def oracle_uniform(rng, n, bound):
    return [rng.randrange(bound) for _ in range(n)]


def oracle_expand(seed, index, n, moduli):
    digest = hashlib.sha256(seed + index.to_bytes(4, "little")).digest()
    rng = random.Random(int.from_bytes(digest, "big"))
    residues = []
    for m in moduli:
        row = []
        while len(row) < n:
            v = rng.getrandbits(m.value.bit_length())
            if v < m.value:
                row.append(v)
        residues.append(row)
    return residues


#: one bound per word class: up to 32 bits, 33 to 64 (2^32 + 1 rejects
#: about half its candidates; the Table 2 prime widths), over 64 (BFV q)
BOUNDS = [
    3,
    5,
    2**28 - 57,
    2**32 + 1,
    *(generate_ntt_primes(4096, bits, 1)[0] for bits in (36, 40, 45, 48, 50)),
    RnsBasis(make_modulus_chain(64, [30, 30, 30])).product,
]


def _sampled(sampler, kind, n, bound):
    if kind == "ternary":
        return sampler.ternary_coeffs(n)
    if kind == "gaussian":
        return sampler.gaussian_coeffs(n)
    if kind == "uniform":
        return sampler.uniform_coeffs(n, bound)
    return sampler.uniform_residues(n, [Modulus(bound)]).residues[0]


def _oracle(rng, kind, n, bound):
    if kind == "ternary":
        return oracle_ternary(rng, n)
    if kind == "gaussian":
        return oracle_gaussian(rng, n)
    return oracle_uniform(rng, n, bound)


class TestExactness:
    @pytest.mark.parametrize("k", [1, 2, 31, 32, 33, 36, 45, 63, 64, 65, 90, 96, 97])
    def test_getrandbits_from_words(self, k):
        """Candidates from words alone: no rejection loop, so a broken
        word order or shift fails here instead of starving a draw."""
        width = (k + 31) // 32
        rng = random.Random(k)
        words = [rng.getrandbits(32) for _ in range(10 * width)]
        rng = random.Random(k)
        got = sampling._getrandbits(np.array(words, np.uint64).reshape(10, width), k)
        assert got.tolist() == [rng.getrandbits(k) for _ in range(10)]

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**64),
        draws=st.lists(
            st.tuples(
                st.sampled_from(["ternary", "gaussian", "uniform", "residues"]),
                st.integers(1, 5000),
                st.sampled_from(BOUNDS),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_interleaved_draws_equal_the_oracle(self, seed, draws):
        sampler, rng = Sampler(seed), random.Random(seed)
        for kind, n, bound in draws:
            if kind == "residues":  # a residue row is below one word
                bound = min(bound, BOUNDS[-2])
            got = _sampled(sampler, kind, n, bound)
            assert got == _oracle(rng, kind, n, bound), (kind, n, bound)
            assert all(type(v) is int for v in got)
        # the state was consumed exactly: the next draw agrees too
        assert sampler.uniform_coeffs(5, BOUNDS[3]) == oracle_uniform(rng, 5, BOUNDS[3])

    def test_gauss_next_is_carried_across_odd_length_draws(self):
        sampler, rng = Sampler(99), random.Random(99)
        for n in (1, 3, 1, 5, 2, 7, 4):
            assert sampler.gaussian_coeffs(n) == oracle_gaussian(rng, n)
            # a uniform draw in between leaves the carried value alone
            assert sampler.ternary_coeffs(1) == oracle_ternary(rng, 1)
        assert sampler.gaussian_coeffs(1, stddev=10.0) == oracle_gaussian(rng, 1, 10.0)

    def test_truncation_rejects_whole_values(self, monkeypatch):
        monkeypatch.setattr(sampling, "ERROR_TRUNCATION_SIGMAS", 1.25)

        class CountingRandom(random.Random):
            calls = 0

            def gauss(self, *args):
                self.calls += 1
                return super().gauss(*args)

        sampler, rng = Sampler(17), CountingRandom(17)
        for n in (5000, 3, 1):
            assert sampler.gaussian_coeffs(n) == oracle_gaussian(rng, n)
        assert 0.12 < 1 - 5004 / rng.calls < 0.2  # ~16 % rejected
        assert sampler.ternary_coeffs(9) == oracle_ternary(rng, 9)

    @pytest.mark.parametrize("params", [SET_A, SET_B], ids=["Set-A", "Set-B"])
    def test_expand_uniform_poly_equals_the_oracle(self, params):
        moduli = make_modulus_chain(params.n, list(params.modulus_bits), params.word_bits)
        seed = bytes(range(32))
        for index in (0, 3):
            poly = expand_uniform_poly(seed, index, params.n, moduli)
            assert poly.is_ntt
            assert poly.residues == oracle_expand(seed, index, params.n, moduli)

    def test_uniform_residues_over_no_moduli_draws_nothing(self):
        sampler, rng = Sampler(3), random.Random(3)
        poly = sampler.uniform_residues(16, [])
        assert poly.residues == [] and poly.moduli == [] and poly.n == 16
        assert sampler.ternary_coeffs(10) == oracle_ternary(rng, 10)


def test_key_generation_makes_no_per_coefficient_random_calls(monkeypatch):
    """``random.Random`` is only seeded and read once per sampler: the
    same Galois keys at n = 256 make exactly as many calls as at n = 64."""
    contexts = {
        n: CkksContext(toy_parameters(n=n, k=3, prime_bits=30)) for n in (64, 256)
    }
    calls = collections.Counter()
    for name in ("seed", "getstate", "random", "getrandbits", "randrange", "gauss"):
        original = getattr(random.Random, name)

        def spy(self, *args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(random.Random, name, spy)
    counts = {}
    for n, ctx in contexts.items():
        calls.clear()
        KeyGenerator(ctx, seed=1).galois_keys(range(1, 4))
        counts[n] = dict(calls)
    assert counts[64] == counts[256]
    assert counts[64]["getstate"] >= 1
