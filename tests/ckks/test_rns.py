"""Unit and property tests for RNS bases and the gadget decomposition."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ckks.modarith import Modulus
from repro.ckks.primes import make_modulus_chain
from repro.ckks.rns import RnsBasis


@pytest.fixture(scope="module")
def basis():
    return RnsBasis(make_modulus_chain(64, [30, 30, 29]))


class TestConstruction:
    def test_rejects_duplicates(self):
        m = Modulus(1153)  # 1153 = 1 mod 128
        with pytest.raises(ValueError):
            RnsBasis([m, m])

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            RnsBasis([Modulus(15), Modulus(25)])

    def test_product(self, basis):
        prod = 1
        for m in basis:
            prod *= m.value
        assert basis.product == prod

    def test_len_and_indexing(self, basis):
        assert len(basis) == 3
        assert basis[0].value == basis.moduli[0].value


class TestCrt:
    def test_roundtrip_zero_and_small(self, basis):
        for v in (0, 1, 12345):
            assert basis.compose(basis.decompose(v)) == v

    def test_roundtrip_near_q(self, basis):
        q = basis.product
        for v in (q - 1, q // 2, q // 3):
            assert basis.compose(basis.decompose(v)) == v

    def test_centered_compose(self, basis):
        q = basis.product
        assert basis.compose_centered(basis.decompose(q - 1)) == -1
        assert basis.compose_centered(basis.decompose(1)) == 1

    @given(st.data())
    @settings(max_examples=100)
    def test_roundtrip_property(self, basis, data):
        v = data.draw(st.integers(min_value=0, max_value=basis.product - 1))
        assert basis.compose(basis.decompose(v)) == v

    def test_compose_validates_length(self, basis):
        with pytest.raises(ValueError):
            basis.compose([1, 2])


class TestPuncturedProducts:
    def test_punctured_product(self, basis):
        for i in range(len(basis)):
            assert basis.punctured_product(i) * basis[i].value == basis.product

    def test_punctured_inverse(self, basis):
        for i in range(len(basis)):
            p = basis[i].value
            pi = basis.punctured_product(i) % p
            assert pi * basis.punctured_inverse(i) % p == 1


class TestGadget:
    def test_gadget_identity(self, basis):
        """<g, g^-1(a)> = a (mod q) -- the Section 2 defining property."""
        g = basis.gadget_vector()
        q = basis.product
        for a in (0, 1, q - 1, q // 7, 123456789):
            digits = basis.gadget_decompose(basis.decompose(a))
            assert sum(gi * di for gi, di in zip(g, digits)) % q == a % q

    def test_gadget_kronecker_structure(self, basis):
        """g_i = 1 mod p_i and 0 mod p_j -- what Algorithm 7 exploits."""
        g = basis.gadget_vector()
        for i, gi in enumerate(g):
            for j, m in enumerate(basis):
                assert gi % m.value == (1 if i == j else 0)

    @given(st.data())
    @settings(max_examples=50)
    def test_gadget_identity_property(self, basis, data):
        a = data.draw(st.integers(min_value=0, max_value=basis.product - 1))
        g = basis.gadget_vector()
        digits = basis.gadget_decompose(basis.decompose(a))
        assert sum(gi * di for gi, di in zip(g, digits)) % basis.product == a


class TestBasisManipulation:
    def test_drop_last(self, basis):
        smaller = basis.drop_last()
        assert len(smaller) == len(basis) - 1
        assert [m.value for m in smaller] == [m.value for m in basis.moduli[:-1]]

    def test_drop_last_exhaustion(self):
        b = RnsBasis(make_modulus_chain(64, [30]))
        with pytest.raises(ValueError):
            b.drop_last()

    def test_extend(self, basis):
        extra = make_modulus_chain(64, [28])[0]
        bigger = basis.extend(extra)
        assert len(bigger) == 4
        assert bigger.moduli[-1].value == extra.value


class TestComposeRows:
    """Whole-vector CRT composition (the decode fast path)."""

    def _rand_rows(self, basis, seed, n=64):
        import random

        rng = random.Random(seed)
        return [
            [rng.randrange(m.value) for _ in range(n)] for m in basis.moduli
        ]

    def test_compose_rows_matches_scalar_compose(self, basis):
        rows = self._rand_rows(basis, 1)
        got = basis.compose_rows(rows)
        want = [
            basis.compose([rows[j][i] for j in range(len(basis))])
            for i in range(64)
        ]
        assert got == want

    def test_vectorized_digits_are_in_use(self, basis):
        """The Garner fast path imports a private numpy kernel inside a
        ``try``: a rename there must fail here, not silently fall back
        to the per-coefficient loop (30x slower decodes)."""
        pytest.importorskip("numpy")
        rows = self._rand_rows(basis, 5)
        digits = basis._garner_digits_numpy(rows)
        assert digits is not None and len(digits) == len(basis)
        radix, want = 1, [0] * 64
        for d, m in zip(digits, basis.moduli):
            want = [w + int(v) * radix for w, v in zip(want, d.tolist())]
            radix *= m.value
        assert want == basis.compose_rows(rows)

    def test_compose_centered_rows_matches_scalar(self, basis):
        rows = self._rand_rows(basis, 2)
        got = basis.compose_centered_rows(rows)
        want = [
            basis.compose_centered([rows[j][i] for j in range(len(basis))])
            for i in range(64)
        ]
        assert got == want

    def test_compose_rows_single_modulus(self):
        b = RnsBasis(make_modulus_chain(64, [30]))
        rows = self._rand_rows(b, 3)
        assert b.compose_rows(rows) == rows[0]

    def test_compose_rows_big_prime_fallback(self):
        """Primes outside the word-size-safe envelope route through the
        exact scalar path (same values, no float Barrett)."""
        b = RnsBasis(make_modulus_chain(64, [60, 59], word_bits=64))
        rows = self._rand_rows(b, 4)
        got = b.compose_rows(rows)
        want = [
            b.compose([rows[j][i] for j in range(len(b))]) for i in range(64)
        ]
        assert got == want

    def test_compose_rows_big_prime_fallback_with_array_rows(self):
        """Regression: array-resident rows hitting the scalar fallback
        must materialize to Python ints first -- np.uint64 scalars in
        the big-int CRT sum overflow instead of widening."""
        np = pytest.importorskip("numpy")
        b = RnsBasis(make_modulus_chain(64, [60, 59], word_bits=64))
        rows = self._rand_rows(b, 7)
        arr = np.asarray(rows, dtype=np.uint64)
        assert b.compose_rows(arr) == b.compose_rows(rows)
        assert b.compose_centered_rows(arr) == b.compose_centered_rows(rows)

    def test_compose_rows_shape_check(self, basis):
        with pytest.raises(ValueError):
            basis.compose_rows([[0] * 64])
