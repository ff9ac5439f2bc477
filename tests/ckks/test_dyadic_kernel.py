"""The numpy product kernels against a big-int oracle, regime by regime.

``repro.ckks.backend.numpy_backend._dot`` accumulates a sum of ``d``
products unreduced and takes one biased-reciprocal quotient estimate
for it; the only regime is the number of folds after the estimate,
``ceil(log2(1 + d*p*(2d+6)*2^-53))``, plus whether the sum fits a word.
Every case here compares with exact Python integers: primes on both
sides of the word-fits edge (``2^30``-``2^32``), of the edges the fold
count moves at between ``2^45`` and ``2^52``, and of the reference
fallback; 1-9 digits; lanes of 1 and 8; the all-``(p-1)`` operands that
make both the sum and the estimate's shortfall as large as they get.
"""

from __future__ import annotations

import random
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks.backend import available_backends, create_backend
from repro.ckks.backend import numpy_backend
from repro.ckks.backend.base import canonical_stack
from repro.ckks.backend.reference import ReferenceBackend
from repro.ckks.context import SET_A, SET_B, SET_C, CkksContext
from repro.ckks.modarith import Modulus
from repro.ckks.primes import make_modulus_chain

pytestmark = pytest.mark.skipif(
    "numpy" not in available_backends(),
    reason="numpy backend not available on this host",
)

REF = ReferenceBackend()

#: 28-32: the word-fits edge for 1-9 digits; 45-52: every fold count from
#: one to eight; 53: the reference fallback.  Each is the largest prime of
#: its size, so it sits right under the power of two.
PRIME_BITS = (28, 30, 31, 32, 33, 36, 40, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53)
DIGITS = tuple(range(1, 10))
N = 64


@lru_cache(maxsize=None)
def modulus(bits: int) -> Modulus:
    return make_modulus_chain(4096, [bits], 64)[0]


def rows_of(p: int, count: int, n: int, pattern: str, rng) -> list:
    """``count`` rows: all ``p-1``, all zero, random, or the three mixed."""
    def row(kind):
        if kind == "max":
            return [p - 1] * n
        if kind == "zero":
            return [0] * n
        return [rng.choice((p - 1, rng.randrange(p))) for _ in range(n)]

    kinds = ("max", "zero", "random")
    return [row(pattern if pattern != "mixed" else kinds[r % 3]) for r in range(count)]


def reduce_oracle(p: int, x: list, y: list) -> list:
    """``sum_i x[i*c + b] * y[i] mod p`` for every lane element ``b``."""
    digits, count = len(y), len(x) // len(y)
    return [
        [
            sum(x[i * count + b][j] * y[i][j] for i in range(digits)) % p
            for j in range(len(y[0]))
        ]
        for b in range(count)
    ]


@pytest.mark.parametrize("bits", PRIME_BITS)
@pytest.mark.parametrize("digits", DIGITS)
def test_stack_reduce_matches_oracle(bits, digits):
    be = create_backend("numpy")
    m = modulus(bits)
    rng = random.Random(f"{bits}/{digits}")
    for count in (1, 8):
        for xp, yp in (("max", "max"), ("random", "random"), ("mixed", "max"), ("zero", "random")):
            x = rows_of(m.value, digits * count, N, xp, rng)
            y = rows_of(m.value, digits, N, yp, rng)
            got = be.dyadic_stack_reduce(m, be.native_stack(x), be.native_stack(y))
            assert canonical_stack(got) == reduce_oracle(m.value, x, y), (count, xp, yp)


def test_fold_count_is_the_documented_function_of_prime_and_digits():
    """The figures the module docstring quotes, and the guard that keeps
    ``m * p`` inside the word."""
    folds = lambda bits, digits: len(
        numpy_backend._column((modulus(bits).value,), digits).folds
    )
    assert [folds(b, 1) for b in (28, 45, 50, 51, 52)] == [1, 1, 1, 2, 3]
    assert [folds(b, 4) for b in (40, 46, 48, 50)] == [1, 1, 2, 3]
    assert [folds(b, 8) for b in (48, 50, 52)] == [3, 5, 7]
    top, d = (1 << 52) - 1, numpy_backend._MAX_DIGITS
    assert (d * top * (2 * d + 6) + (1 << 53)) * top < 1 << 117  # m * p < 2^64
    assert numpy_backend._column((modulus(28).value,), 9).fits
    assert not numpy_backend._column((modulus(32).value,), 1).fits


def test_more_digits_than_the_guard_take_the_default():
    be = create_backend("numpy")
    m = modulus(52)
    digits = numpy_backend._MAX_DIGITS + 1
    x = [[m.value - 1] * 4 for _ in range(digits)]
    got = be.dyadic_stack_reduce(m, be.native_stack(x), be.native_stack(x))
    assert canonical_stack(got) == reduce_oracle(m.value, x, x)


@pytest.mark.parametrize("bits", (40, 50, 52))
@pytest.mark.parametrize("digits", (33, 64, 65))
def test_sums_beyond_the_digit_guard_run_in_blocks(bits, digits):
    """Above ``_MAX_DIGITS`` the sum is taken ``_MAX_DIGITS`` digits at a
    time and the partial sums added: same bits, and still a resident
    matrix (the whole-sum reference fallback returned a ``list``, 90x
    slower -- a 34-dimensional matvec sums 33 accumulators)."""
    be = create_backend("numpy")
    m = modulus(bits)
    rng = random.Random(f"blocks/{bits}/{digits}")
    for count, xp in ((1, "max"), (3, "random")):
        x = rows_of(m.value, digits * count, 16, xp, rng)
        y = rows_of(m.value, digits, 16, "max" if xp == "max" else "random", rng)
        got = be.dyadic_stack_reduce(m, be.native_stack(x), be.native_stack(y))
        assert isinstance(got, np.ndarray) and got.shape == (count, 16)
        assert canonical_stack(got) == reduce_oracle(m.value, x, y), (count, xp)


@pytest.mark.parametrize("bits", PRIME_BITS)
def test_products_match_oracle(bits):
    """``dyadic_mul*`` / ``dyadic_mac*``: a product is a sum of one."""
    be = create_backend("numpy")
    m = modulus(bits)
    p = m.value
    rng = random.Random(bits)
    for height in (1, 3, 8):
        a = rows_of(p, height, N, "mixed" if height > 1 else "max", rng)
        b = rows_of(p, height, N, "max", rng)
        acc = rows_of(p, height, N, "random", rng)
        want_mul = [[x * y % p for x, y in zip(r, s)] for r, s in zip(a, b)]
        want_mac = [[(t + v) % p for t, v in zip(r, s)] for r, s in zip(acc, want_mul)]
        ms = [m] * height
        A, B, ACC = (be.from_rows(v) for v in (a, b, acc))
        assert be.to_rows(be.dyadic_mul_rows(ms, A, B)) == want_mul
        assert be.to_rows(be.dyadic_mul_rows(ms, A, A)) == [
            [x * x % p for x in r] for r in a
        ]
        assert be.to_rows(be.dyadic_mac_rows(ms, ACC, A, B)) == want_mac
        assert be.dyadic_mul(m, a[0], b[0]) == want_mul[0]
        assert be.dyadic_mac(m, acc[0], a[0], b[0]) == want_mac[0]


@pytest.mark.parametrize(
    "sizes", [(36, 28), (28, 36, 45, 48, 50, 52), (52, 30, 51), (45, 53, 28)]
)
def test_mixed_regime_modulus_column(sizes):
    """One prime per row, lane order (each modulus's block contiguous):
    the column folds as often as its largest prime needs; a 53-bit row
    sends the whole call to the reference."""
    be = create_backend("numpy")
    count = 3
    ms = [modulus(bits) for bits in sizes for _ in range(count)]
    rng = random.Random(str(sizes))
    a = [rows_of(m.value, 1, N, "random", rng)[0] for m in ms]
    b = [[m.value - 1] * N for m in ms]
    got = be.to_rows(be.dyadic_mul_rows(ms, be.from_rows(a), be.from_rows(b)))
    assert got == [[x * y % m.value for x, y in zip(r, s)] for m, r, s in zip(ms, a, b)]
    got = be.to_rows(be.dyadic_mac_rows(ms, be.from_rows(b), be.from_rows(a), be.from_rows(b)))
    assert got == [
        [(t + x * y) % m.value for t, x, y in zip(s, r, s)] for m, r, s in zip(ms, a, b)
    ]


def test_matrices_taller_than_a_chunk():
    """n = 4096 runs 8 rows per chunk: 19 rows are two chunks and a tail,
    each with its own slice of the modulus column; every chunked kernel
    agrees with the reference."""
    n, height = 4096, 19
    be = create_backend("numpy")
    ms = [modulus((28, 45, 50)[r % 3]) for r in range(height)]
    rng = random.Random(19)
    a = [rows_of(m.value, 1, n, "random", rng)[0] for m in ms]
    b = [rows_of(m.value, 1, n, "mixed", rng)[0] for m in ms]
    A, B = be.from_rows(a), be.from_rows(b)
    scalars = [m.value - 2 for m in ms]
    for kernel, args in (
        ("dyadic_mul_rows", (A, B)),
        ("dyadic_mac_rows", (B, A, B)),
        ("add_rows", (A, B)),
        ("sub_rows", (A, B)),
        ("negate_rows", (B,)),
        ("scalar_mul_rows", (A, scalars)),
    ):
        lists = [v if v is scalars else be.to_rows(v) for v in args]
        want = getattr(REF, kernel)(ms, *lists)
        assert be.to_rows(getattr(be, kernel)(ms, *args)) == want, kernel
    m = modulus(45)
    x = be.native_stack([rows_of(m.value, 1, n, "random", rng)[0] for _ in range(2 * height)])
    y = be.native_stack(rows_of(m.value, 2, n, "random", rng))
    assert canonical_stack(be.dyadic_stack_reduce(m, x, y)) == REF.dyadic_stack_reduce(
        m, canonical_stack(x), canonical_stack(y)
    )
    for kernel, args in (
        ("sub_stack", (x, x[::-1].copy())),
        ("sub_stack", (x, y[0])),
        ("scalar_mul_stack", (x, m.value - 1)),
        ("reduce_mod_stack", (x + x,)),
        ("reduce_mod_stack", (x * np.uint64(1 << 10),)),
    ):
        lists = [v.tolist() if hasattr(v, "tolist") else v for v in args]
        want = getattr(REF, kernel)(m, *lists)
        assert canonical_stack(getattr(be, kernel)(m, *args)) == want, kernel


# ---------------------------------------------------------------------------
# reduce_mod_stack: the base conversion ``Mod(a, p_j)`` of *any* word.  The
# kernel folds once when the whole stack is below ``2p`` and takes the
# remainder otherwise (a division-free biased-reciprocal form was built and
# measured in PR 19: hot 92 us per 4 x 8192 words against 126 / 22 for the
# two branches, but -2 % on ``serve_square_A`` -- see ROADMAP, "Dropped on
# measurement"); whichever way it is computed, this is the contract.
# ---------------------------------------------------------------------------
def _edge_words(p: int, rng) -> list:
    """Words around every place a quotient could slip: the multiples of
    ``p`` and their neighbours, the float64 integer edges, the signed
    edge and the top of the word."""
    top = (1 << 64) - 1
    multiples = [k * p for k in (1, 2, 3, top // p // 2, top // p)]
    fixed = [0, 1, (1 << 52) - 1, 1 << 52, (1 << 53) - 1, (1 << 53) + 1,
             (1 << 63) - 1, 1 << 63, top]
    words = fixed + [v + d for v in multiples for d in (-1, 0, 1)]
    words += [rng.randrange(1 << 52) for _ in range(16)]
    words += [rng.randrange(1 << 64) for _ in range(16)]
    words += [rng.randrange(1, top // p + 1) * p - rng.choice((0, 1)) for _ in range(16)]
    return [w for w in words if 0 <= w <= top]


#: targets of reduce_mod_stack: the paper's sizes and a few small primes
REDUCE_TARGETS = [modulus(b) for b in (20, 28, 30, 36, 40, 45, 48, 50, 51, 52)] + [
    Modulus(p) for p in (3, 257, 7681, 12289, 18433)
]


@pytest.mark.parametrize("m", REDUCE_TARGETS, ids=lambda m: f"p{m.value.bit_length()}")
def test_reduce_mod_stack_matches_big_int_at_every_target_size(m):
    """30- to 52-bit targets (and small ones), words up to ``2^64 - 1``:
    zero, ``p - 1``, ``2p``, the multiples of ``p`` and both sides of each."""
    be = create_backend("numpy")
    p = m.value
    words = _edge_words(p, random.Random(p))
    stack = np.array([words, words[::-1]], dtype=np.uint64)
    want = [[w % p for w in row] for row in stack.tolist()]
    assert canonical_stack(be.reduce_mod_stack(m, stack)) == want
    assert REF.reduce_mod_stack(m, stack.tolist()) == want


@pytest.mark.parametrize("bits", (30, 40, 48, 50, 52))
def test_reduce_mod_stack_on_both_sides_of_its_branch(bits):
    """A stack whose largest word is ``2p - 1`` folds, one that holds
    ``2p`` anywhere does not: the same residues either way, and a tall
    stack of residues of a 50-bit prime (the Modulus Switch from a
    special prime) reduces exactly."""
    be = create_backend("numpy")
    m = modulus(bits)
    p = m.value
    rng = random.Random(bits)
    below = [[rng.choice((0, p - 1, p, 2 * p - 1, rng.randrange(2 * p))) for _ in range(N)] for _ in range(3)]
    below[1][7] = 2 * p - 1
    at = [row[:] for row in below]
    at[2][N - 1] = 2 * p
    for stack in (below, at):
        got = be.reduce_mod_stack(m, np.array(stack, dtype=np.uint64))
        assert canonical_stack(got) == [[w % p for w in row] for row in stack]
    tall = rows_of(modulus(50).value, 19, 4096, "random", rng)
    want = [[w % p for w in row] for row in tall]
    assert canonical_stack(be.reduce_mod_stack(m, be.native_stack(tall))) == want


@settings(max_examples=200, deadline=None)
@given(
    m=st.sampled_from(REDUCE_TARGETS),
    words=st.lists(
        st.one_of(
            st.integers(min_value=0, max_value=(1 << 52) - 1),
            st.integers(min_value=0, max_value=(1 << 64) - 1),
        ),
        min_size=1,
        max_size=24,
    ),
)
def test_reduce_mod_stack_random_words(m, words):
    be = create_backend("numpy")
    got = be.reduce_mod_stack(m, np.array([words], dtype=np.uint64))
    assert canonical_stack(got) == [[w % m.value for w in words]]


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_random_sums_match_oracle(data):
    bits = data.draw(st.sampled_from(PRIME_BITS))
    digits = data.draw(st.integers(min_value=1, max_value=9))
    count = data.draw(st.integers(min_value=1, max_value=3))
    n = 8
    p = modulus(bits).value
    value = st.one_of(
        st.just(p - 1), st.just(0), st.integers(min_value=0, max_value=p - 1)
    )
    row = st.lists(value, min_size=n, max_size=n)
    x = data.draw(st.lists(row, min_size=digits * count, max_size=digits * count))
    y = data.draw(st.lists(row, min_size=digits, max_size=digits))
    be = create_backend("numpy")
    got = be.dyadic_stack_reduce(modulus(bits), be.native_stack(x), be.native_stack(y))
    assert canonical_stack(got) == reduce_oracle(p, x, y)


@lru_cache(maxsize=None)
def paper_context(name: str) -> CkksContext:
    return CkksContext({p.name: p for p in (SET_A, SET_B, SET_C)}[name])


@pytest.mark.slow
@pytest.mark.parametrize(
    "name, index",
    [
        (params.name, i)
        for params in (SET_A, SET_B, SET_C)
        for i in range(len(params.modulus_bits))
    ],
)
def test_paper_primes_at_their_ring_size(name, index):
    """The key-switch MAC of Set-A/B/C: ``k`` digits under every
    extended-basis prime at n = 4096 / 8192 / 16384, a lane of two."""
    be = create_backend("numpy")
    ctx = paper_context(name)
    m = ctx.key_basis.moduli[index]
    digits = ctx.k
    rng = random.Random(m.value)
    x = rows_of(m.value, 2 * digits, ctx.n, "mixed", rng)
    x[:2] = rows_of(m.value, 2, ctx.n, "max", rng)
    y = rows_of(m.value, digits, ctx.n, "max", rng)
    got = be.dyadic_stack_reduce(m, be.native_stack(x), be.native_stack(y))
    assert canonical_stack(got) == reduce_oracle(m.value, x, y)
    ms = [m] * 2
    prod = be.dyadic_mul_rows(ms, be.from_rows(x[:2]), be.from_rows(x[2:4]))
    assert be.to_rows(prod) == [
        [a * b % m.value for a, b in zip(r, s)] for r, s in zip(x[:2], x[2:4])
    ]


def test_results_own_their_memory():
    """A kernel allocates its result and nothing else: two consecutive
    calls return arrays that alias neither each other, nor an operand,
    nor the thread's scratch, and the first survives the second."""
    be = create_backend("numpy")
    m = modulus(45)
    p = m.value
    rng = random.Random(45)
    ms = [m] * 4
    a, b = (be.from_rows(rows_of(p, 4, N, "random", rng)) for _ in range(2))
    table = list(range(N))[::-1]
    calls = {
        "dyadic_stack_reduce": lambda u, v: be.dyadic_stack_reduce(m, u, v[:2]),
        "dyadic_mul_rows": lambda u, v: be.dyadic_mul_rows(ms, u, v),
        "dyadic_mac_rows": lambda u, v: be.dyadic_mac_rows(ms, u, u, v),
        "add_rows": lambda u, v: be.add_rows(ms, u, v),
        "sub_rows": lambda u, v: be.sub_rows(ms, u, v),
        "negate_rows": lambda u, v: be.negate_rows(ms, u),
        "scalar_mul_rows": lambda u, v: be.scalar_mul_rows(ms, u, [3, 5, 7, 9]),
        "sub_stack": lambda u, v: be.sub_stack(m, u, v),
        "scalar_mul_stack": lambda u, v: be.scalar_mul_stack(m, u, p - 2),
        "reduce_mod_stack": lambda u, v: be.reduce_mod_stack(m, u),
        "permute_ntt_stack": lambda u, v: be.permute_ntt_stack(u, table),
    }
    for name, call in calls.items():
        first = call(a, b)
        kept = first.copy()
        second = call(b, a)
        scratch = numpy_backend._LOCAL.buf
        for other in (second, scratch, a, b):
            assert not np.shares_memory(first, other), name
        assert not np.shares_memory(second, scratch), name
        assert (first == kept).all(), name
