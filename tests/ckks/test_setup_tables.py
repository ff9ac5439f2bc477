"""Set-up tables built by vector doubling against their scalar recurrences.

``modarith.powers_mod`` builds every power vector of context and encoder
set-up: the ``2n``-th root search, both NTT twiddle tables and the slot
map.  Each must equal, bit for bit, the one-product-at-a-time recurrence
of ``tests/oracles.py`` -- on both of its arithmetic paths (float-quotient
words below ``2^52``, Python ints above) and on the Python-int passes
that open every vector.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from repro.ckks.context import SET_A, SET_B, SET_C, CkksContext, toy_parameters
from repro.ckks.encoder import CkksEncoder
from repro.ckks.modarith import FLOAT_QUOTIENT_BOUND, Modulus, powers_mod
from repro.ckks.ntt import NTTTables
from repro.ckks.primes import (
    _factorize,
    generate_ntt_primes,
    make_modulus_chain,
    primitive_2nth_root,
)

TABLE2 = [
    (params.n, modulus)
    for params in (SET_A, SET_B, SET_C)
    for modulus in make_modulus_chain(params.n, list(params.modulus_bits), params.word_bits)
]


def assert_tables_match(tables: NTTTables, psi: int) -> None:
    p = tables.modulus.value
    roots, inv_roots = oracles.ntt_tables(tables.n, p, psi)
    assert tables.psi == psi
    assert tables.root_values.dtype == np.uint64
    assert tables.root_values.tolist() == roots
    assert tables.inv_root_values_div2.tolist() == inv_roots


@pytest.mark.parametrize("n, modulus", TABLE2, ids=lambda v: str(getattr(v, "value", v)))
def test_table2_primes_match_the_recurrences(n, modulus):
    psi = oracles.primitive_2nth_root(modulus.value, n)
    assert primitive_2nth_root(modulus.value, n) == psi
    assert_tables_match(NTTTables(n, modulus), psi)


@given(log_n=st.integers(1, 15), bits=st.integers(20, 52), rank=st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_toy_primes_match_the_recurrences(log_n, bits, rank):
    n = 1 << log_n
    try:
        p = generate_ntt_primes(n, bits, rank + 1)[rank]
    except ValueError:
        assume(False)  # no such prime: a 20-bit prime 1 mod 2^16 is rare
    psi = oracles.primitive_2nth_root(p, n)
    assert primitive_2nth_root(p, n) == psi
    assert_tables_match(NTTTables(n, Modulus(p)), psi)


@pytest.mark.parametrize("n", [2, 4, 1024, 1 << 15])
def test_wide_word_primes_take_python_ints_and_match(n):
    """A ``word_bits=64`` prime past ``2^52`` (BFV's plain modulus and
    the kernel tests' wide primes live there)."""
    p = generate_ntt_primes(n, 60, 1, word_bits=64)[0]
    assert p >= FLOAT_QUOTIENT_BOUND
    psi = oracles.primitive_2nth_root(p, n)
    assert_tables_match(NTTTables(n, Modulus(p, word_bits=64)), psi)


@pytest.mark.parametrize("n, bits", [(2, 30), (64, 30), (4096, 45), (1 << 15, 52)])
def test_a_caller_supplied_root_is_used_as_given(n, bits):
    p = generate_ntt_primes(n, bits, 1)[0]
    psi = pow(oracles.primitive_2nth_root(p, n), 2 * n - 3, p)  # an odd power: primitive
    assert psi != primitive_2nth_root(p, n) or n == 2
    assert_tables_match(NTTTables(n, Modulus(p), psi=psi), psi)


@pytest.mark.parametrize("log_n", range(2, 16))
def test_slot_map_matches_its_recurrence(log_n):
    """Every ring degree a context takes (``n >= 4``) up to ``2^15``."""
    n = 1 << log_n
    bits = max(20, log_n + 8)
    encoder = CkksEncoder(CkksContext(toy_parameters(n=n, k=1, prime_bits=bits)))
    assert encoder._slot_bins.tolist() == oracles.slot_map(n)


@pytest.mark.parametrize("q", [97, (1 << 50) - 27, FLOAT_QUOTIENT_BOUND + 1])
@pytest.mark.parametrize("count", [1, 2, 3, 63, 64, 65, 127, 129, 513, 4096, 4097])
def test_powers_mod_fills_every_entry(count, q):
    """Counts on either side of every pass boundary: ``k`` passes through
    ``count - 1`` only when ``count`` is one past a power of two."""
    expected, x = [], 1
    for _ in range(count):
        expected.append(x)
        x = x * 5 % q
    assert powers_mod(5, count, q).tolist() == expected


@given(
    base=st.integers(0, (1 << 62) - 1),
    count=st.integers(1, 600),
    q=st.one_of(
        st.integers(2, 1 << 20),
        st.integers(FLOAT_QUOTIENT_BOUND - 1000, FLOAT_QUOTIENT_BOUND - 1),
        st.integers(2, FLOAT_QUOTIENT_BOUND - 1),
        st.integers(FLOAT_QUOTIENT_BOUND, (1 << 62) - 1),
    ),
)
@settings(max_examples=200, deadline=None)
def test_powers_mod_equals_the_recurrence(base, count, q):
    """Any modulus, not only primes; odd counts cut the last pass short."""
    expected, x = [], 1 % q
    for _ in range(count):
        expected.append(x)
        x = x * base % q
    assert powers_mod(base, count, q).tolist() == expected


@given(st.integers(2, 1 << 36))
@example(6 * 43691 * 131071)  # Set-B's 48-bit prime minus one over 2^14
@example(1021 * 1021 * 1031)
@settings(max_examples=200, deadline=None)
def test_factorize_equals_trial_division(n):
    """The generator search's factorisation (trial division to ``2^10``,
    then Pollard's rho) returns the same prime set as plain trial division
    would; a cofactor with two large factors exercises the rho split."""
    expected, m, d = [], n, 2
    while d * d <= m:
        if m % d == 0:
            expected.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        expected.append(m)
    assert _factorize(n) == expected


def test_two_contexts_compute_their_own_tables():
    """No process-wide table cache: a second context from the same
    parameters builds its tables again rather than sharing the first's."""
    params = toy_parameters(n=1024, k=2, prime_bits=40)
    first, second = CkksContext(params), CkksContext(params)
    for modulus in first.key_basis.moduli:
        a, b = first.tables(modulus), second.tables(modulus)
        assert a is not b
        assert not np.shares_memory(a.root_values, b.root_values)
        assert not np.shares_memory(a.inv_root_values_div2, b.inv_root_values_div2)
        assert a.root_values.tolist() == b.root_values.tolist()
