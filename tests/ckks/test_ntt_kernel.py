"""The numpy NTT kernel against the reference, regime by regime.

``repro.ckks.backend.numpy_backend`` picks one of three ratio arithmetics
from the prime alone (Shoup-lazy up to ``2^30``, float-lazy below
``2^48``, float-strict below ``2^52``, the reference fallback above) and
runs every stack through one constant-geometry core in chunks.  The
reference backend's scalar loops (Algorithms 3-4, halving included) are
the specification, so every case here is a row-for-row comparison with
it: primes on both sides of each regime edge, ring sizes from the
smallest the geometry has (one and two tile-less stages) to one with
tiled stages, stack heights that are not powers of two, a stack taller
than a chunk, and the inputs that sit on the lazy bounds.
"""

from __future__ import annotations

import random
import sys
import threading
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks.backend import available_backends, create_backend
from repro.ckks.backend.base import canonical_stack
from repro.ckks.backend.reference import ReferenceBackend
from repro.ckks.context import SET_A, SET_B, SET_C, CkksContext
from repro.ckks.modarith import Modulus
from repro.ckks.ntt import NTTTables
from repro.ckks.primes import make_modulus_chain

pytestmark = pytest.mark.skipif(
    "numpy" not in available_backends(),
    reason="numpy backend not available on this host",
)

REF = ReferenceBackend()

#: Both sides of 2^30 (Shoup-lazy | float-lazy), 2^48 (lazy | strict) and
#: 2^52 (strict | reference fallback); each is the largest prime of its
#: size, so the 30- and 48-bit ones sit right under their edge.
PRIME_BITS = (28, 30, 31, 32, 33, 36, 45, 47, 48, 49, 50, 51, 52, 53)
RING_SIZES = (4, 8, 64, 1024)
HEIGHTS = (1, 2, 3, 5, 8, 17)
PATTERNS = ("all_max", "zero", "alternating", "descending", "random")


@lru_cache(maxsize=None)
def prime(bits: int) -> int:
    """One prime per size, ``1 mod 8192``: NTT-friendly for every n here."""
    return make_modulus_chain(4096, [bits], 64)[0].value


@lru_cache(maxsize=None)
def tables(bits: int, n: int) -> NTTTables:
    return NTTTables(n, Modulus(prime(bits), 64))


@lru_cache(maxsize=None)
def pattern_row(bits: int, n: int, pattern: str) -> tuple:
    p = prime(bits)
    if pattern == "all_max":
        return (p - 1,) * n
    if pattern == "zero":
        return (0,) * n
    if pattern == "alternating":
        return tuple((p - 1) * (j & 1) for j in range(n))
    if pattern == "descending":
        return tuple(p - 1 - j for j in range(n))
    rng = random.Random(f"{bits}/{n}")
    return tuple(rng.randrange(p) for _ in range(n))


@lru_cache(maxsize=None)
def expected(bits: int, n: int, pattern: str, inverse: bool) -> list:
    """The reference transform of one pattern row (computed once)."""
    transform = REF.ntt_inverse if inverse else REF.ntt_forward
    return transform(tables(bits, n), list(pattern_row(bits, n, pattern)))


def check_stack(be, bits: int, n: int, patterns) -> None:
    """Forward, inverse and round trip of the stack with these rows."""
    t = tables(bits, n)
    stack = [list(pattern_row(bits, n, name)) for name in patterns]
    native = be.native_stack(stack)
    forward = be.ntt_forward_stack(t, native)
    assert canonical_stack(forward) == [
        expected(bits, n, name, False) for name in patterns
    ]
    assert canonical_stack(be.ntt_inverse_stack(t, native)) == [
        expected(bits, n, name, True) for name in patterns
    ]
    assert canonical_stack(be.ntt_inverse_stack(t, forward)) == stack


@pytest.mark.parametrize(
    "bits, n",
    # the fallback is the reference itself: small rings suffice for it
    [(b, n) for b in PRIME_BITS for n in RING_SIZES if b < 53 or n <= 64],
)
def test_stacks_match_reference(bits, n):
    """Every height, homogeneous stacks of each bound-sitting input plus a
    mixed stack (a row landing in its neighbour's slot cannot cancel)."""
    be = create_backend("numpy")
    for height in HEIGHTS:
        for name in PATTERNS:
            check_stack(be, bits, n, (name,) * height)
        mixed = tuple(PATTERNS[(r + height) % len(PATTERNS)] for r in range(height))
        check_stack(be, bits, n, mixed)


@pytest.mark.parametrize("bits", (28, 45, 48, 50))
def test_stack_taller_than_a_chunk(bits):
    """n = 4096 runs 8 rows per chunk: 19 rows are two chunks and a tail."""
    n = 4096
    be = create_backend("numpy")
    t = tables(bits, n)
    p = prime(bits)
    rng = random.Random(bits)
    distinct = [list(pattern_row(bits, n, name)) for name in ("all_max", "descending")]
    distinct += [[rng.randrange(p) for _ in range(n)] for _ in range(2)]
    order = [rng.randrange(len(distinct)) for _ in range(19)]
    order[:4] = range(4)
    stack = be.native_stack([distinct[i] for i in order])
    for kernel, ref_row in (
        (be.ntt_forward_stack, REF.ntt_forward),
        (be.ntt_inverse_stack, REF.ntt_inverse),
    ):
        want = [ref_row(t, row) for row in distinct]
        assert canonical_stack(kernel(t, stack)) == [want[i] for i in order]


@pytest.mark.parametrize("bits", PRIME_BITS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_random_stacks_match_reference(bits, data):
    n = 64
    p = prime(bits)
    height = data.draw(st.integers(min_value=1, max_value=3))
    stack = data.draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=p - 1), min_size=n, max_size=n),
            min_size=height,
            max_size=height,
        )
    )
    be = create_backend("numpy")
    t = tables(bits, n)
    forward = be.ntt_forward_stack(t, be.native_stack(stack))
    assert canonical_stack(forward) == [REF.ntt_forward(t, row) for row in stack]
    assert canonical_stack(be.ntt_inverse_stack(t, be.native_stack(stack))) == [
        REF.ntt_inverse(t, row) for row in stack
    ]
    assert canonical_stack(be.ntt_inverse_stack(t, forward)) == stack


def test_row_and_matrix_entry_points_run_the_same_core():
    """``ntt_forward`` / ``*_rows`` agree with the stacked kernel, and the
    length check still raises."""
    be = create_backend("numpy")
    sizes = (30, 45, 50)
    n = 64
    table_list = [tables(bits, n) for bits in sizes]
    rows = [list(pattern_row(bits, n, "random")) for bits in sizes]
    forward = be.to_rows(be.ntt_forward_rows(table_list, be.from_rows(rows)))
    inverse = be.to_rows(be.ntt_inverse_rows(table_list, be.from_rows(rows)))
    for bits, row, f, i in zip(sizes, rows, forward, inverse):
        assert f == be.ntt_forward(tables(bits, n), row) == expected(bits, n, "random", False)
        assert i == be.ntt_inverse(tables(bits, n), row) == expected(bits, n, "random", True)
    with pytest.raises(ValueError, match="expected 64 coefficients"):
        be.ntt_forward(tables(30, n), rows[0][:32])
    with pytest.raises(ValueError, match="expected 64 coefficients"):
        be.ntt_inverse_stack(tables(30, n), [rows[0] + rows[0]])


@pytest.mark.parametrize("bits", PRIME_BITS)
def test_constant_multiplies_match_reference(bits):
    """``scalar_mul*`` take the NTT's ratio path; same bits as Algorithm 2."""
    n = 64
    p = prime(bits)
    m = Modulus(p, 64)
    be = create_backend("numpy")
    stack = [list(pattern_row(bits, n, name)) for name in PATTERNS]
    for scalar in (0, 1, 2, p // 2, p - 2, p - 1):
        want = [REF.scalar_mul(m, row, scalar) for row in stack]
        assert canonical_stack(be.scalar_mul_stack(m, be.native_stack(stack), scalar)) == want
        assert [be.scalar_mul(m, row, scalar) for row in stack] == want
        got = be.scalar_mul_rows([m] * len(stack), be.from_rows(stack), [scalar] * len(stack))
        assert be.to_rows(got) == want
        acc = stack[-1]
        assert be.scalar_mac(m, acc, stack[0], scalar) == REF.scalar_mac(m, acc, stack[0], scalar)


def test_workspace_is_per_thread():
    """Two threads transforming and accumulating at once must not see each
    other's scratch: the transforms and the key-switch MAC (the stack
    against its first three rows as key rows) share one buffer per thread."""
    be = create_backend("numpy")
    n = 1024

    def results(t, stack):
        return (
            canonical_stack(be.ntt_forward_stack(t, stack)),
            canonical_stack(be.ntt_inverse_stack(t, stack)),
            canonical_stack(be.dyadic_stack_reduce(t.modulus, stack[: len(stack) // 3 * 3], stack[:3])),
        )

    jobs = []
    for bits, height in ((45, 8), (30, 5), (50, 3), (48, 17)):
        t = tables(bits, n)
        rng = random.Random(bits)
        stack = be.native_stack(
            [[rng.randrange(prime(bits)) for _ in range(n)] for _ in range(height)]
        )
        jobs.append((t, stack, results(t, stack)))
    start = threading.Barrier(len(jobs))
    wrong = []

    def work(t, stack, want):
        start.wait(timeout=30)
        for _ in range(40):
            if results(t, stack) != want:
                wrong.append(t.modulus.value)

    threads = [threading.Thread(target=work, args=job) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert wrong == []


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
    """Every Set-A/B/C prime at n = 4096 / 8192 / 16384, two-row stacks."""
    be = create_backend("numpy")
    ctx = paper_context(name)
    modulus = ctx.key_basis.moduli[index]
    t = ctx.tables(modulus)
    p = modulus.value
    rng = random.Random(p)
    stack = [[p - 1] * ctx.n, [rng.randrange(p) for _ in range(ctx.n)]]
    forward = be.ntt_forward_stack(t, be.native_stack(stack))
    assert canonical_stack(forward) == [REF.ntt_forward(t, row) for row in stack]
    assert canonical_stack(be.ntt_inverse_stack(t, forward)) == stack
    inverse = be.ntt_inverse_stack(t, be.native_stack(stack))
    assert canonical_stack(inverse)[1] == REF.ntt_inverse(t, stack[1])
