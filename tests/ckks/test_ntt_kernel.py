"""The numpy NTT kernel against the reference, regime by regime.

``repro.ckks.backend.numpy_backend`` picks one of three transform
regimes from ``(p, n)`` alone: *signed* while ``p * (2 log2 n + 1) <
2^50`` (int64 residues, fold-free butterflies, one canonicalisation per
transform), float-lazy below ``2^48``, float-strict below ``2^52``, the
reference fallback above; constant multiplies (``scalar_mul*``) keep the
32-bit Shoup ratio up to ``2^30``.  Every stack runs through one
constant-geometry core in chunks.  The reference backend's scalar loops
(Algorithms 3-4, halving included) are the specification, so every case
here is a row-for-row comparison with it: primes on both sides of each
regime edge (the signed one at every ring size), ring sizes from the
smallest the geometry has (one and two tile-less stages) to one with
tiled stages, stack heights that are not powers of two, a stack taller
than a chunk, and the inputs that sit on the bounds.  The signed
regime's two bounds are tested where they bind: the canonicalisation on
exact multiples of ``p`` and at ``2^50 - 1``, and ``max |x|`` stage by
stage against the documented per-stage bound.
"""

from __future__ import annotations

import random
import sys
import threading
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks.backend import available_backends, create_backend
from repro.ckks.backend import numpy_backend as nb
from repro.ckks.backend.base import canonical_stack
from repro.ckks.backend.reference import ReferenceBackend
from repro.ckks.context import SET_A, SET_B, SET_C, CkksContext
from repro.ckks.modarith import Modulus
from repro.ckks.ntt import NTTTables
from repro.ckks.primes import generate_ntt_primes, is_prime, make_modulus_chain

pytestmark = pytest.mark.skipif(
    "numpy" not in available_backends(),
    reason="numpy backend not available on this host",
)

REF = ReferenceBackend()

#: Both sides of 2^30 (Shoup-lazy | float constant multiplies), 2^48
#: (float-lazy | strict) and 2^52 (strict | reference fallback); each is
#: the largest prime of its size, so the 30- and 48-bit ones sit right
#: under their edge.  Up to 45 bits the transforms are signed at every
#: ring size here, 47 bits at n <= 8 only, 48 bits at n = 2 only (a
#: signed prime above 2^48); :func:`signed_edge` gives the primes on both
#: sides of the signed bound.
PRIME_BITS = (28, 30, 31, 32, 33, 36, 45, 47, 48, 49, 50, 51, 52, 53)
RING_SIZES = (2, 4, 8, 64, 1024)
HEIGHTS = (1, 2, 3, 5, 8, 17)
PATTERNS = ("all_max", "zero", "alternating", "descending", "random")


@lru_cache(maxsize=None)
def prime(bits: int) -> int:
    """One prime per size, ``1 mod 8192``: NTT-friendly for every n here."""
    return make_modulus_chain(4096, [bits], 64)[0].value


def signed_limit(n: int) -> int:
    """The signed regime admits ``p`` exactly when ``p < signed_limit(n)``."""
    return -(-nb._SIGNED_BOUND // (2 * (n.bit_length() - 1) + 1))


@lru_cache(maxsize=None)
def signed_edge(n: int) -> tuple:
    """The largest NTT-friendly prime under the signed bound at ``n`` and
    the smallest one above it."""
    limit, step = signed_limit(n), 2 * n
    below = (limit - 1) // step * step + 1
    while below >= limit or not is_prime(below):
        below -= step
    above = below + step
    while not is_prime(above):
        above += step
    return below, above


@lru_cache(maxsize=None)
def tables(p: int, n: int) -> NTTTables:
    return NTTTables(n, Modulus(p, 64))


def twiddles(p: int, n: int):
    """The kernel's own per-tables cache, built as a transform builds it."""
    nb._transform(np.zeros((1, n), dtype=np.uint64), tables(p, n), False)
    return getattr(tables(p, n), nb._CACHE_ATTR)


def regime(tw) -> str:
    if tw.signed:
        return "signed"
    return "float-lazy" if tw.lazy else "strict"


@lru_cache(maxsize=None)
def pattern_row(p: int, n: int, pattern: str) -> tuple:
    if pattern == "all_max":
        return (p - 1,) * n
    if pattern == "zero":
        return (0,) * n
    if pattern == "alternating":
        return tuple((p - 1) * (j & 1) for j in range(n))
    if pattern == "descending":
        return tuple(p - 1 - j for j in range(n))
    rng = random.Random(f"{p}/{n}")
    return tuple(rng.randrange(p) for _ in range(n))


@lru_cache(maxsize=None)
def expected(p: int, n: int, pattern: str, inverse: bool) -> list:
    """The reference transform of one pattern row (computed once)."""
    transform = REF.ntt_inverse if inverse else REF.ntt_forward
    return transform(tables(p, n), list(pattern_row(p, n, pattern)))


def check_stack(be, p: int, n: int, patterns) -> None:
    """Forward, inverse and round trip of the stack with these rows."""
    t = tables(p, n)
    stack = [list(pattern_row(p, n, name)) for name in patterns]
    native = be.native_stack(stack)
    forward = be.ntt_forward_stack(t, native)
    assert canonical_stack(forward) == [expected(p, n, name, False) for name in patterns]
    assert canonical_stack(be.ntt_inverse_stack(t, native)) == [
        expected(p, n, name, True) for name in patterns
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
            check_stack(be, prime(bits), n, (name,) * height)
        mixed = tuple(PATTERNS[(r + height) % len(PATTERNS)] for r in range(height))
        check_stack(be, prime(bits), n, mixed)


@pytest.mark.parametrize("n", RING_SIZES)
@pytest.mark.parametrize("side", ("below", "above"))
def test_signed_edge_at_every_ring_size(n, side):
    """The largest prime under ``p (2 log2 n + 1) < 2^50`` is signed, the
    smallest above it is not (strict above ``2^48``: at n = 2 both sit
    there); both transform every bound-sitting pattern, alone and mixed,
    both directions, bit for bit."""
    p = signed_edge(n)[side == "above"]
    unsigned = "float-lazy" if p < nb._LAZY_BOUND else "strict"
    assert regime(twiddles(p, n)) == ("signed" if side == "below" else unsigned)
    be = create_backend("numpy")
    for height in (1, 3, 8):
        for name in PATTERNS:
            check_stack(be, p, n, (name,) * height)
    check_stack(be, p, n, PATTERNS)


def canonical_probes(p: int) -> np.ndarray:
    """``±k p`` and ``±k p ± 1`` for every ``k`` that matters, and ``±(2^50 - 1)``."""
    top = ((1 << 50) - 1) // p
    ks = set(range(1, min(top, 1 << 12) + 1))
    ks |= {1 << e for e in range(top.bit_length())}
    ks |= {top, top - 1, max(1, top // 3)}
    ks |= set(random.Random(p).sample(range(1, top + 1), min(top, 4096)))
    ks = np.array(sorted(ks), dtype=np.int64)
    multiples = np.concatenate([ks * p, ks * p - 1, ks * p + 1, [0, 1, p - 1]])
    multiples = multiples[np.abs(multiples) < 1 << 50]
    edge = np.array([(1 << 50) - 1], dtype=np.int64)
    return np.concatenate([multiples, -multiples, edge, -edge])


@pytest.mark.parametrize("n", RING_SIZES + (4096, 8192))
def test_canonicalisation_on_exact_multiples(n):
    """The canonicalising quotient on ``k p``: an unbiased reciprocal lands
    one short (remainder ``p``) for about one prime in seven; the up-biased
    one never does, and the remainder alone is strictly inside ``(-p, p)``."""
    primes = {signed_edge(n)[0]} | {prime(bits) for bits in PRIME_BITS if bits <= 45}
    for bits in (30, 31, 33, 36, 40, 45):
        primes |= set(generate_ntt_primes(n, bits, 3, 64))
    for p in sorted(q for q in primes if q % (2 * n) == 1):
        tw = twiddles(p, n)
        assert tw.signed
        x = canonical_probes(p)
        q, out = np.empty_like(x), np.empty(x.shape, dtype=np.uint64)
        fq = np.empty(x.shape, dtype=np.float64)
        rem = x.copy()
        nb._canonical(rem, tw, q, fq, out)
        assert np.all(np.abs(rem) < p), p
        assert np.array_equal((rem - x) % p, np.zeros_like(x)), p
        assert out.tolist() == [int(v) % p for v in x], p


def product_probes(p: int, w: int) -> np.ndarray:
    """Signed ``x`` with ``|x| < 2^50`` whose ``x * w / p`` sits on or just
    beside an integer, where a float quotient's rounding decides the
    truncation: ``x = k w^-1 (mod p) + j p`` for ``k`` near 0 and ``p``."""
    top = ((1 << 50) - 1) // p
    winv = pow(w, -1, p)
    rng = random.Random(p ^ w)
    js = sorted({0, 1, top - 1, top} | set(rng.sample(range(top + 1), min(top + 1, 64))))
    probes = []
    for k in (*range(0, 33), *range(p - 32, p)):
        base = k * winv % p
        probes += [base + j * p for j in js if base + j * p < 1 << 50]
    x = np.array(probes, dtype=np.int64)
    return np.concatenate([x, -x])


@pytest.mark.parametrize("n", RING_SIZES + (4096, 8192))
def test_signed_products_stay_inside_two_p(n):
    """A signed cache's multiply: ``x * w mod p`` lands strictly inside
    ``(-2p, 2p)`` for every ``|x| < 2^50``, quotients on the knife edge
    included, whichever way ``w / p`` rounds (random constants cover
    both).  The inverse's two folds repair nothing wider."""
    primes = set(signed_edge(n)[:1]) | {prime(bits) for bits in (28, 36, 45)}
    for p in sorted(q for q in primes if q % (2 * n) == 1):
        tw = twiddles(p, n)
        assert tw.signed and tw.lazy and not tw.shoup
        rng = random.Random(p)
        constants = {tables(p, n).root_powers[1].value, tables(p, n).inv_n, p - 1}
        for c in constants | {rng.randrange(1, p) for _ in range(16)}:
            w, ratio = tw.pair(c)
            x = product_probes(p, c)
            q, dest = np.empty_like(x), np.empty_like(x)
            tw.mul(x, w, ratio, q, np.empty(x.shape, dtype=np.float64), dest)
            assert np.abs(dest).max() < 2 * p, (p, c)
            assert all((d - v * c) % p == 0 for d, v in zip(dest.tolist(), x.tolist())), (p, c)


@st.composite
def signed_rows(draw):
    """A signed-regime prime at its ring size and a stack of rows drawn from
    bound-sitting values."""
    p, n = draw(st.sampled_from(SIGNED_CASES))
    height = draw(st.integers(min_value=1, max_value=3))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32)))
    rows = []
    for _ in range(height):
        kind = draw(st.sampled_from(("max", "zero", "random", "mixed")))
        if kind == "max":
            rows.append(np.full(n, p - 1, dtype=np.int64))
        elif kind == "zero":
            rows.append(np.zeros(n, dtype=np.int64))
        else:
            row = rng.integers(0, p, n, dtype=np.int64)
            if kind == "mixed":
                row[rng.random(n) < 0.5] = p - 1
            rows.append(row)
    return p, n, np.stack(rows)


#: (prime, n) pairs for the stage-by-stage property: the signed edge at
#: three ring sizes and Set-A / Set-B's signed primes at theirs.
SIGNED_CASES = (
    (signed_edge(2)[0], 2),
    (signed_edge(64)[0], 64),
    (signed_edge(1024)[0], 1024),
    *((q.value, 4096) for q in make_modulus_chain(4096, [28, 36, 45], 64)),
    (make_modulus_chain(8192, [40], 64)[0].value, 8192),
)


@settings(max_examples=30, deadline=None)
@given(case=signed_rows())
def test_signed_stages_stay_inside_their_bounds(case):
    """The signed core one stage at a time: forward ``|x| < (2s + 1) p``
    after ``s`` stages, never ``2^50``; inverse ``|x| < 2B`` after a stage
    whose inputs are below ``B``, ``< 2p`` after one that multiplies its
    sum (by 1 or ``n^-1``), never ``2^49`` before another stage; and both
    finished results are the reference's."""
    p, n, rows = case
    tw = twiddles(p, n)
    r = len(rows)
    half = r * n // 2
    src, dst = np.empty(r * n, dtype=np.int64), np.empty(r * n, dtype=np.int64)
    s, t, prod = np.empty((3, half), dtype=np.int64)
    fq = np.empty(half, dtype=np.float64)
    wide = np.empty(r * n, dtype=np.float64)
    out = np.empty(r * n, dtype=np.uint64)

    src.reshape(n, r)[...] = rows.T
    for done, stage in enumerate(tw.fwd, start=1):
        src, dst = nb._signed_forward(src, dst, [stage], tw, t, fq, prod)
        assert np.abs(src).max() < (2 * done + 1) * p < 1 << 50
    nb._canonical(src, tw, dst, wide, out)
    t_ = tables(p, n)
    assert out.reshape(r, n).tolist() == [REF.ntt_forward(t_, row.tolist()) for row in rows]

    np.copyto(src.reshape(r, n), rows)
    bound, stages = p, list(zip(tw.inv, tw.sums))
    for left, stage in zip(range(len(stages) - 1, -1, -1), stages):
        src, dst = nb._signed_inverse(src, dst, [stage], tw, s, t, fq)
        bound = 2 * p if stage[1] is not None else 2 * bound
        assert np.abs(src).max() < bound < 1 << 50
        # the next stage's sums and differences stay within 2^50
        assert not left or bound <= 1 << 49
    src, dst = src.view(np.uint64), dst.view(np.uint64)
    for c in tw.lift:  # the kernel's two folds: the last stage left products
        nb._fold(src, c, dst, src)
    got = src.reshape(n, r).T.tolist()
    assert got == [REF.ntt_inverse(t_, row.tolist()) for row in rows]


@pytest.mark.parametrize("bits", (28, 45, 48, 50))
def test_stack_taller_than_a_chunk(bits):
    """n = 4096 runs 8 rows per chunk: 19 rows are two chunks and a tail."""
    n = 4096
    be = create_backend("numpy")
    p = prime(bits)
    t = tables(p, n)
    rng = random.Random(bits)
    distinct = [list(pattern_row(p, n, name)) for name in ("all_max", "descending")]
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
    t = tables(p, n)
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
    primes = [prime(bits) for bits in (30, 45, 50)]
    n = 64
    table_list = [tables(p, n) for p in primes]
    rows = [list(pattern_row(p, n, "random")) for p in primes]
    forward = be.to_rows(be.ntt_forward_rows(table_list, be.from_rows(rows)))
    inverse = be.to_rows(be.ntt_inverse_rows(table_list, be.from_rows(rows)))
    for p, row, f, i in zip(primes, rows, forward, inverse):
        assert f == be.ntt_forward(tables(p, n), row) == expected(p, n, "random", False)
        assert i == be.ntt_inverse(tables(p, n), row) == expected(p, n, "random", True)
    with pytest.raises(ValueError, match="expected 64 coefficients"):
        be.ntt_forward(tables(primes[0], n), rows[0][:32])
    with pytest.raises(ValueError, match="expected 64 coefficients"):
        be.ntt_inverse_stack(tables(primes[0], n), [rows[0] + rows[0]])


@pytest.mark.parametrize("bits", PRIME_BITS)
def test_constant_multiplies_match_reference(bits):
    """``scalar_mul*`` take the NTT's ratio path; same bits as Algorithm 2."""
    n = 64
    p = prime(bits)
    m = Modulus(p, 64)
    be = create_backend("numpy")
    stack = [list(pattern_row(p, n, name)) for name in PATTERNS]
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
        t = tables(prime(bits), n)
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


def test_paper_primes_take_their_regimes():
    """Which transform regime every Table-2 prime takes at its own ring
    size, and how many inverse stages reduce their sum leg: a regime
    drift reads as this one failure, not as a timing change."""
    got, reductions = {}, {}
    for params in (SET_A, SET_B, SET_C):
        chain = make_modulus_chain(params.n, list(params.modulus_bits), params.word_bits)
        for bits, m in zip(params.modulus_bits, chain):
            tw = twiddles(m.value, params.n)
            got[params.name, bits] = regime(tw)
            if tw.signed:
                reductions[params.name, bits] = sum(s is not None for s in tw.sums[:-1])
    assert got == {
        ("Set-A", 36): "signed",
        ("Set-A", 28): "signed",
        ("Set-A", 45): "signed",
        ("Set-B", 48): "float-lazy",
        ("Set-B", 40): "signed",
        ("Set-B", 50): "strict",
        ("Set-C", 50): "strict",
        ("Set-C", 48): "float-lazy",
        ("Set-C", 52): "strict",
    }
    assert reductions == {
        ("Set-A", 36): 0,
        ("Set-A", 28): 0,
        ("Set-A", 45): 2,
        ("Set-B", 40): 1,
    }


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
