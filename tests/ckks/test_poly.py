"""Unit tests for RNS polynomials and ciphertext/plaintext containers."""

import random

import pytest

from repro.ckks.modarith import Modulus
from repro.ckks.poly import (
    Ciphertext,
    Plaintext,
    RnsPolynomial,
    restrict_to_moduli,
)
from repro.ckks.primes import make_modulus_chain

N = 16
MODULI = make_modulus_chain(N, [20, 20, 19])


def rand_rns(seed, moduli=MODULI, is_ntt=False):
    rng = random.Random(seed)
    residues = [[rng.randrange(m.value) for _ in range(N)] for m in moduli]
    return RnsPolynomial(N, moduli, residues, is_ntt)


class TestConstruction:
    def test_zero_default(self):
        p = RnsPolynomial(N, MODULI)
        assert all(all(x == 0 for x in row) for row in p.residues)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            RnsPolynomial(N, MODULI, [[0] * N])
        with pytest.raises(ValueError):
            RnsPolynomial(N, MODULI, [[0] * (N - 1) for _ in MODULI])

    def test_from_int_coeffs_reduces_negatives(self):
        coeffs = [-1] + [0] * (N - 1)
        p = RnsPolynomial.from_int_coeffs(coeffs, MODULI)
        for m, row in zip(MODULI, p.residues):
            assert row[0] == m.value - 1

    def test_clone_is_deep(self):
        p = rand_rns(0)
        q = p.clone()
        row = q.residues[0]
        row[0] = (row[0] + 1) % MODULI[0].value
        q.set_row(0, row)
        assert p != q

    def test_residues_is_a_materialized_snapshot(self):
        """The compat accessor lowers to lists; writing to the snapshot
        must never reach the polynomial (use set_row for that)."""
        p = rand_rns(42)
        snapshot = p.residues
        snapshot[0][0] = (snapshot[0][0] + 1) % MODULI[0].value
        assert p.residues != snapshot
        assert p.residues == rand_rns(42).residues

    def test_set_row_writes_through(self):
        p = rand_rns(43)
        new_row = [(v + 1) % MODULI[1].value for v in p.residues[1]]
        p.set_row(1, new_row)
        assert p.residues[1] == new_row


class TestArithmetic:
    def test_add_sub_roundtrip(self):
        a, b = rand_rns(1), rand_rns(2)
        assert a.add(b).add(b.negate()) == a

    def test_add_commutative(self):
        a, b = rand_rns(3), rand_rns(4)
        assert a.add(b) == b.add(a)

    def test_negate_is_additive_inverse(self):
        a = rand_rns(5)
        zero = RnsPolynomial(N, MODULI)
        assert a.add(a.negate()) == zero

    def test_dyadic_multiply_componentwise(self):
        a, b = rand_rns(6, is_ntt=True), rand_rns(7, is_ntt=True)
        prod = a.dyadic_multiply(b)
        for m, ra, rb, rp in zip(MODULI, a.residues, b.residues, prod.residues):
            assert rp == [x * y % m.value for x, y in zip(ra, rb)]

    def test_domain_mismatch_rejected(self):
        a = rand_rns(10, is_ntt=True)
        b = rand_rns(11, is_ntt=False)
        with pytest.raises(ValueError):
            a.add(b)

    def test_basis_mismatch_rejected(self):
        a = rand_rns(12)
        other = make_modulus_chain(N, [20, 20])
        b = rand_rns(13, moduli=other)
        with pytest.raises(ValueError):
            a.add(b)


class TestBasisOps:
    def test_restrict_to_moduli_selects_rows(self):
        a = rand_rns(15)
        sub = restrict_to_moduli(a, [MODULI[2], MODULI[0]])
        assert sub.residues[0] == a.residues[2]
        assert sub.residues[1] == a.residues[0]

    def test_restrict_missing_modulus_rejected(self):
        a = rand_rns(16)
        stranger = make_modulus_chain(N, [18])[0]
        with pytest.raises(ValueError):
            restrict_to_moduli(a, [stranger])


class TestContainers:
    def test_plaintext_properties(self):
        pt = Plaintext(rand_rns(17), 2.0**20)
        assert pt.n == N
        assert pt.poly.level_count == 3

    def test_ciphertext_shape_checks(self):
        polys = [rand_rns(18, is_ntt=True), rand_rns(19, is_ntt=True)]
        ct = Ciphertext(polys, 2.0**20)
        assert ct.size == 2
        assert ct.is_ntt
        with pytest.raises(ValueError):
            Ciphertext([], 1.0)

    def test_ciphertext_mixed_basis_rejected(self):
        a = rand_rns(20, is_ntt=True)
        b = rand_rns(21, moduli=make_modulus_chain(N, [20, 20]), is_ntt=True)
        with pytest.raises(ValueError):
            Ciphertext([a, b], 1.0)
