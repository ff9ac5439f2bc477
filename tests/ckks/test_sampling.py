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
from repro.ckks.backend import resolve_backend
from repro.ckks.context import SET_A, SET_B, SET_C, CkksContext, toy_parameters
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
#: Set-A's 28-bit data prime, which rejects about one candidate in 4096
SET_A_28 = make_modulus_chain(SET_A.n, list(SET_A.modulus_bits), SET_A.word_bits)[1].value


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


class _CountingRandom(random.Random):
    """``random.Random`` counting the candidates ``randrange`` reads and
    the values ``gauss`` makes."""

    candidates = gausses = 0

    def getrandbits(self, k):
        self.candidates += 1
        return super().getrandbits(k)

    def gauss(self, *args):
        self.gausses += 1
        return super().gauss(*args)


#: what the share of candidates rejected (or values truncated) in a
#: 4096-value draw must be
SHARE = {
    "none": lambda share: share == 0,
    "some": lambda share: 0 < share < 0.01,
    "half": lambda share: 0.3 < share < 0.7,
}

#: (bound, the share of candidates it rejects: none, some, about half), at
#: one word (k <= 32) and two (k <= 64); then one past two words, which
#: draws Python ints
BRANCH_BOUNDS = [
    (2**32 - 1, "none"),
    (SET_A_28, "some"),
    (2**31 + 1, "half"),
    (2**64 - 1, "none"),
    (2**45 - 2**33 + 1, "some"),
    (2**63 + 1, "half"),
    (2**90 + 1, "half"),
]


class TestBranches:
    """Each branch of a draw within one call -- nothing rejected or
    truncated, a few, about half -- against the per-coefficient loop,
    over several draws in a row, so each hands its unused words to the
    next."""

    SIZES = (4096, 1, 3, 4096, 2)

    @pytest.mark.parametrize("bound, rejected", BRANCH_BOUNDS)
    def test_below_equals_randrange(self, bound, rejected):
        sampler, rng = Sampler(bound % 1000), _CountingRandom(bound % 1000)
        for n in self.SIZES:
            before = rng.candidates
            assert sampler._below(n, bound).tolist() == oracle_uniform(rng, n, bound)
            share = 1 - n / (rng.candidates - before)
            assert n != 4096 or SHARE[rejected](share), share
        assert sampler.ternary_coeffs(9) == oracle_ternary(rng, 9)

    @pytest.mark.parametrize(
        "sigmas, truncated", [(ERROR_TRUNCATION_SIGMAS, "none"), (3, "some"), (0.6, "half")]
    )
    @pytest.mark.parametrize("stddev", [ERROR_STDDEV, 40.0])
    def test_gaussian_equals_gauss(self, sigmas, truncated, stddev, monkeypatch):
        monkeypatch.setattr(sampling, "ERROR_TRUNCATION_SIGMAS", sigmas)
        sampler, rng = Sampler(int(sigmas * stddev)), _CountingRandom(int(sigmas * stddev))
        for n in self.SIZES:
            before = rng.gausses
            got = sampler._gaussian(n, stddev).tolist()
            assert got == oracle_gaussian(rng, n, stddev)
            assert sampler._gauss_next == rng.gauss_next
            share = 1 - n / (rng.gausses - before)
            assert n != 4096 or SHARE[truncated](share), share
        assert sampler.ternary_coeffs(9) == oracle_ternary(rng, 9)


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


# ----------------------------------------------------------------------
# the Gaussian's numpy transcendentals and their libm repair
# ----------------------------------------------------------------------
#: the relative error in each numpy transcendental that ``_TIE_MARGIN``
#: is argued to absorb at the default deviation (sampling docstring)
BUDGET = 2.0**-36


class _Skewed:
    """``numpy`` with ``log``, ``cos`` and ``sin`` off by a relative error
    of exactly ``BUDGET``, its sign per element drawn from ``seed``."""

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)

    def __getattr__(self, name):
        return getattr(np, name)

    def _skew(self, values):
        signs = self._rng.choice([-1.0, 1.0], size=np.shape(values))
        return values * (1.0 + signs * BUDGET)

    def log(self, x):
        return self._skew(np.log(x))

    def cos(self, x):
        return self._skew(np.cos(x))

    def sin(self, x):
        return self._skew(np.sin(x))


class _WordRandom(random.Random):
    """``random.Random`` whose ``random()`` reads a fixed word stream."""

    def __init__(self, words):
        super().__init__(0)
        self._words = iter(words)

    def random(self):
        a, b = next(self._words) >> 5, next(self._words) >> 6
        return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0)


class _WordGenerator:
    """Stands in for a :class:`Sampler`'s ``MT19937``: the same stream."""

    def __init__(self, words):
        self._words = np.array(words, np.uint64)

    def random_raw(self, count):
        out, self._words = self._words[:count], self._words[count:]
        assert len(out) == count, "the stream ran dry"
        return out


def _uniform_words(grid: int):
    """The two words whose ``random()`` is ``grid · 2^-53``."""
    return [(grid >> 26) << 5, (grid & (2**26 - 1)) << 6]


def _near_tie(tie: float, above: bool, sine: bool, y: float) -> int:
    """A first uniform, as its 53-bit grid integer, whose pair with the
    second uniform ``y`` puts the cosine (or the sine) slot's libm
    ``z·σ`` between 2^-41 and 2^-39 above (or below) ``tie``."""
    g2rad = math.sqrt(-2.0 * math.log(1.0 - y))
    target = tie + (2.0**-40 if above else -(2.0**-40))
    ratio = target / (ERROR_STDDEV * g2rad)
    x = math.pi - math.asin(ratio) if sine else math.acos(ratio)
    grid = round(x / (2.0 * math.pi) * 2.0**53)
    for _ in range(20):
        x2pi = grid * 2.0**-53 * (2.0 * math.pi)
        value = sampling._libm_gauss([x2pi], [y], int(sine)) * ERROR_STDDEV
        if 2.0**-41 <= (value - tie) * (1 if above else -1) <= 2.0**-39:
            return grid
        slope = (math.cos(x2pi) if sine else -math.sin(x2pi)) * g2rad * ERROR_STDDEV
        step = (target - value) / (slope * 2.0 * math.pi * 2.0**-53)
        grid += int(round(step)) or (1 if step > 0 else -1)
    raise AssertionError(f"no grid point near {tie}")


def _tie_stream(ties, seed: int):
    """Words for pairs with a few random ones before each hand-built pair
    ``(tie, above, sine, e)`` (second uniform ``1 - 2^-e``), then padding."""
    rng = random.Random(seed)
    words = []
    for tie, above, sine, e in ties:
        for _ in range(rng.randrange(3)):
            words += [rng.getrandbits(32) for _ in range(4)]
        y_grid = 2**53 - 2 ** (53 - e)
        words += _uniform_words(_near_tie(tie, above, sine, y_grid * 2.0**-53))
        words += _uniform_words(y_grid)
    return words + [rng.getrandbits(32) for _ in range(4096)]


def _stream_sampler(words) -> Sampler:
    sampler = Sampler(0)
    sampler._mt = _WordGenerator(words)
    return sampler


#: rounding ties ``k + 1/2`` the hand-built values sit at, the truncation
#: edges ``±20.5`` among them
TIES = [0.5, -0.5, 3.5, -7.5, 12.5, 20.5, -20.5]


class TestTieRepair:
    @pytest.mark.parametrize("skew_seed", [1, 2, 3])
    def test_hand_built_values_a_hair_from_a_tie(self, skew_seed):
        ties = [
            (tie, above, sine, 40)
            for tie in TIES
            for above in (True, False)
            for sine in (False, True)
        ]
        words = _tie_stream(ties, seed=5)
        # the values are where they should be, and the skew alone would
        # round some of them across their tie: the repair is what is tested
        rounded = []
        for tie, above, sine, _ in ties:
            y = 1.0 - 2.0**-40
            grid = _near_tie(tie, above, sine, y)
            x2pi = grid * 2.0**-53 * (2.0 * math.pi)
            exact = sampling._libm_gauss([x2pi], [y], int(sine)) * ERROR_STDDEV
            assert 2.0**-41 <= abs(exact - tie) <= 2.0**-39
            skewed = _Skewed(skew_seed)
            trig = skewed.sin if sine else skewed.cos
            z = trig(np.array([x2pi])) * np.sqrt(-2.0 * skewed.log(np.array([1.0 - y])))
            rounded.append(np.rint(z * ERROR_STDDEV)[0] != round(exact))
        assert any(rounded)
        sampler, rng = _stream_sampler(words), _WordRandom(words)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sampling, "np", _Skewed(skew_seed))
            for n in (3, 1, 2 * len(ties), 5):
                assert sampler.gaussian_coeffs(n) == oracle_gaussian(rng, n)
                assert sampler._gauss_next == rng.gauss_next

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        ties=st.lists(
            st.tuples(
                st.integers(-21, 20).map(lambda k: k + 0.5),
                st.booleans(),
                st.booleans(),
                st.integers(40, 53),
            ),
            min_size=1,
            max_size=8,
        ),
        sizes=st.lists(st.integers(1, 9), min_size=1, max_size=5),
    )
    def test_numpy_off_by_the_budget_still_equals_the_oracle(self, seed, ties, sizes):
        """Numpy's ``log``/``cos``/``sin`` each off by the budget, per
        element either way, on a stream of random pairs and pairs a hair
        from a tie: every draw and every carried sine is the oracle's."""
        words = _tie_stream(ties, seed)
        sampler, rng = _stream_sampler(words), _WordRandom(words)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sampling, "np", _Skewed(seed))
            for n in sizes + [8 * len(ties)]:
                assert sampler.gaussian_coeffs(n) == oracle_gaussian(rng, n)
                assert sampler._gauss_next == rng.gauss_next


# ----------------------------------------------------------------------
# lifting signed coefficients (errors, secrets) into residues
# ----------------------------------------------------------------------
TABLE2_PRIMES = sorted(
    {
        m.value
        for params in (SET_A, SET_B, SET_C)
        for m in make_modulus_chain(params.n, list(params.modulus_bits), params.word_bits)
    }
)


@pytest.mark.parametrize("backend", ["numpy", "reference"])
class TestLift:
    def test_edges_of_every_table2_prime(self, backend, monkeypatch):
        be = resolve_backend(backend)
        calls = []
        remainder = np.remainder
        monkeypatch.setattr(np, "remainder", lambda *a: calls.append(1) or remainder(*a))
        for p in TABLE2_PRIMES:
            coeffs = np.array([-(p - 1), -1, 0, 1, p - 1], np.int64)
            got = be.to_rows(be.decompose_native([Modulus(p)], coeffs))
            assert got == [remainder(coeffs, np.int64(p)).astype(np.uint64).tolist()]
        # one call per set's whole basis, below its smallest prime
        for params in (SET_A, SET_B, SET_C):
            moduli = make_modulus_chain(params.n, list(params.modulus_bits), params.word_bits)
            low = min(m.value for m in moduli)
            coeffs = np.array([-(low - 1), -20, -1, 0, 1, 20, low - 1], np.int64)
            got = be.to_rows(be.decompose_native(moduli, coeffs))
            assert got == [[int(c) % m.value for c in coeffs] for m in moduli]
        assert calls == []  # no division on either backend

    @pytest.mark.parametrize(
        "coeffs",
        [
            [-1, 2**62, 5],  # int64 past the smallest prime
            [-(2**63), 0],
            [2**64 - 1, 3, 0],  # uint64
            [-(2**70) - 1, 2**65, 7],  # multi-word
        ],
        ids=["int64-wide", "int64-min", "uint64", "multi-word"],
    )
    def test_everything_else_falls_back(self, backend, coeffs, monkeypatch):
        be = resolve_backend(backend)
        calls = []
        remainder = np.remainder
        monkeypatch.setattr(np, "remainder", lambda *a: calls.append(1) or remainder(*a))
        moduli = make_modulus_chain(SET_B.n, list(SET_B.modulus_bits), SET_B.word_bits)
        low = min(m.value for m in moduli)
        for values in (coeffs, [low, 0], [1, -low], [low + 1, -1], [-(low + 1), 1]):
            arr = values
            if all(-(2**63) <= v < 2**63 for v in values):
                arr = np.array(values, np.int64)
            elif all(0 <= v < 2**64 for v in values):
                arr = np.array(values, np.uint64)
            calls.clear()
            got = be.to_rows(be.decompose_native(moduli, arr))
            assert got == [[v % m.value for v in values] for m in moduli]
            # one-word input divides; wider input takes the big-int path
            assert bool(calls) == (backend == "numpy" and isinstance(arr, np.ndarray))
