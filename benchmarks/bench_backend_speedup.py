"""Backend speedup: vectorized numpy kernels vs the pure-Python reference.

HEAX's thesis is that CKKS cost is dominated by NTT/dyadic polynomial
arithmetic and is won by wide parallelism over butterflies.  This bench
is the software edition of that claim: the same transform, specified by
the reference backend's scalar loops, executed stage-vectorized by the
numpy backend at the paper's Table 2 ring degrees (n = 4096 / 8192 /
16384).  Primes are 30-bit (as in the ``paper_scale_context`` fixture)
so the pure-Python baseline stays measurable; a 50-bit row exercises
the float-strict regime of the HEAX word size, and the last two tests
record -- reported, not gated -- the kernels' microseconds per row at
the paper's own primes (Set-A 36/28/45, Set-B 48/40/50, Set-C 50/48/52
bits) for stacks of one and eight rows: the NTT, and the key-switch MAC
``dyadic_stack_reduce`` (per digit row, k = 2/4/8 digits) beside the
plain product ``dyadic_mul_rows``.

Acceptance gate (ISSUE 1, re-based for ISSUE 5): numpy forward NTT
>= 5x reference at n = 16384, with bit-exact outputs, **measured on
the resident representation** (the transform consumes and produces the
backend-native residue matrix, as every post-ISSUE-5 caller does).
The seed's list-boundary single-row kernel -- which pays a lift/lower
conversion per call -- is still measured and emitted alongside, so the
residency win at the kernel level stays visible in the results JSON.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_backend_speedup.py -s
"""

from __future__ import annotations

import random
import time

import pytest

from repro.analysis.report import render_table
from repro.ckks.backend import available_backends, create_backend
from repro.ckks.ntt import NTTTables
from repro.ckks.primes import make_modulus_chain

pytestmark = pytest.mark.skipif(
    "numpy" not in available_backends(),
    reason="numpy backend not available on this host",
)

#: Table 2 ring degrees (Set-A / Set-B / Set-C).
RING_DEGREES = (4096, 8192, 16384)

#: Required forward-NTT speedup at the largest ring (acceptance gate).
MIN_SPEEDUP_AT_16384 = 5.0

#: The paper's primes by ring degree (Table 2; Set-B's three 40-bit and
#: Set-C's seven 48-bit primes are one row each) and the stack heights
#: the kernel is timed at: a lane of one and a full batch-8 lane.
PAPER_PRIME_BITS = {4096: (36, 28, 45), 8192: (48, 40, 50), 16384: (50, 48, 52)}
STACK_HEIGHTS = (1, 8)
#: Gadget digits of a key switch at full level: the ``k`` of Table 2.
PAPER_DIGITS = {4096: 2, 8192: 4, 16384: 8}

#: Sanity floor for the 50-bit float-strict regime at n = 4096 (not the
#: ISSUE gate -- that regime does more vector work per butterfly and the
#: smaller ring amortizes overhead less; measured ~15x, gate well below).
MIN_SPEEDUP_50BIT = 2.0


def _tables(n: int, prime_bits: int) -> NTTTables:
    return NTTTables(n, make_modulus_chain(n, [prime_bits], 54)[0])


def _rand_row(tables: NTTTables, seed: int):
    rng = random.Random(seed)
    p = tables.modulus.value
    return [rng.randrange(p) for _ in range(tables.n)]


def _time(fn, *args, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def _measure(prime_bits: int = 30):
    """Per-ring (t_ref, t_np, outputs-equal) for fwd NTT, INTT, dyadic.

    The numpy forward NTT is timed twice: on the resident native matrix
    (``ntt_forward_rows`` on a lifted handle -- the hot-path contract)
    and through the legacy list-boundary single-row kernel.
    """
    ref = create_backend("reference")
    fast = create_backend("numpy")
    out = []
    for n in RING_DEGREES:
        tables = _tables(n, prime_bits)
        m = tables.modulus
        row = _rand_row(tables, n)
        other = _rand_row(tables, n + 1)
        fast.ntt_forward(tables, row)  # build twiddle cache outside timing
        resident = fast.from_rows([row])

        fwd_ref = ref.ntt_forward(tables, row)
        fwd_np = fast.ntt_forward(tables, row)
        fwd_resident = fast.to_rows(fast.ntt_forward_rows([tables], resident))[0]
        exact = (
            fwd_ref == fwd_np
            and fwd_ref == fwd_resident
            and ref.ntt_inverse(tables, fwd_ref) == fast.ntt_inverse(tables, fwd_np)
            and ref.dyadic_mul(m, row, other) == fast.dyadic_mul(m, row, other)
        )
        out.append(
            {
                "n": n,
                "exact": exact,
                "ntt": (_time(ref.ntt_forward, tables, row), _time(fast.ntt_forward, tables, row)),
                "ntt_resident": _time(fast.ntt_forward_rows, [tables], resident),
                "intt": (_time(ref.ntt_inverse, tables, fwd_ref), _time(fast.ntt_inverse, tables, fwd_ref)),
                "dyadic": (_time(ref.dyadic_mul, m, row, other), _time(fast.dyadic_mul, m, row, other)),
            }
        )
    return out


def test_backend_speedup_table2_rings(benchmark, emit, emit_json):
    results = benchmark.pedantic(_measure, rounds=1, iterations=1)
    rows = []
    for r in results:
        t_ntt_ref, t_ntt_np = r["ntt"]
        t_res = r["ntt_resident"]
        t_intt_ref, t_intt_np = r["intt"]
        t_dy_ref, t_dy_np = r["dyadic"]
        rows.append(
            [
                r["n"],
                f"{t_ntt_ref * 1e3:.1f}",
                f"{t_res * 1e3:.2f}",
                f"{t_ntt_ref / t_res:.0f}x",
                f"{t_ntt_ref / t_ntt_np:.0f}x",
                f"{t_intt_ref / t_intt_np:.0f}x",
                f"{t_dy_ref / t_dy_np:.0f}x",
                "yes" if r["exact"] else "NO",
            ]
        )
    emit(
        "backend_speedup",
        render_table(
            "Polynomial backend speedup: numpy vs pure-Python reference "
            "(30-bit primes, Table 2 ring degrees)",
            ["n", "NTT ref (ms)", "NTT resident (ms)", "NTT resident",
             "NTT boundary", "INTT", "dyadic", "bit-exact"],
            rows,
            note="speedups are best-of-3 wall times for one residue row; "
            "'resident' transforms the backend-native matrix (the hot-path "
            "contract), 'boundary' pays the per-call list lift/lower; the "
            "acceptance gate is >= 5x resident forward NTT at n = 16384.",
        ),
    )
    for r in results:
        t_ref, t_np = r["ntt"]
        t_res = r["ntt_resident"]
        emit_json(
            op="ntt_forward_resident",
            n=r["n"],
            backend="numpy",
            speedup=round(t_ref / t_res, 2),
            gate=MIN_SPEEDUP_AT_16384 if r["n"] == 16384 else None,
            bit_exact=r["exact"],
        )
        emit_json(
            op="ntt_forward_list_boundary",
            n=r["n"],
            backend="numpy",
            speedup=round(t_ref / t_np, 2),
            gate=None,
            bit_exact=r["exact"],
        )
        assert r["exact"], f"numpy backend diverged from reference at n={r['n']}"
    biggest = results[-1]
    assert biggest["n"] == 16384
    t_ref = biggest["ntt"][0]
    t_res = biggest["ntt_resident"]
    assert t_ref / t_res >= MIN_SPEEDUP_AT_16384, (
        f"resident forward NTT speedup {t_ref / t_res:.1f}x below the "
        f"{MIN_SPEEDUP_AT_16384}x gate at n=16384"
    )


def test_backend_speedup_heax_word_regime(benchmark, emit):
    """50-bit primes: the float-assisted Barrett path also wins and is exact."""

    def measure():
        ref = create_backend("reference")
        fast = create_backend("numpy")
        tables = _tables(4096, 50)
        row = _rand_row(tables, 17)
        fast.ntt_forward(tables, row)  # warm twiddle cache
        fwd_ref = ref.ntt_forward(tables, row)
        fwd_np = fast.ntt_forward(tables, row)
        return (
            fwd_ref == fwd_np,
            _time(ref.ntt_forward, tables, row),
            _time(fast.ntt_forward, tables, row),
        )

    exact, t_ref, t_np = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit(
        "backend_speedup_50bit",
        render_table(
            "Backend speedup in the HEAX word-size regime (50-bit prime, n = 4096)",
            ["n", "prime bits", "NTT ref (ms)", "NTT numpy (ms)", "speedup", "bit-exact"],
            [[4096, 50, f"{t_ref * 1e3:.1f}", f"{t_np * 1e3:.2f}",
              f"{t_ref / t_np:.0f}x", "yes" if exact else "NO"]],
            note="2^48 <= p < 2^52 uses the unbiased float ratio on fully "
            "reduced operands with a two-sided uint64 remainder fold.",
        ),
    )
    assert exact
    assert t_ref / t_np >= MIN_SPEEDUP_50BIT, (
        f"50-bit forward NTT speedup {t_ref / t_np:.1f}x below the "
        f"{MIN_SPEEDUP_50BIT}x sanity floor at n=4096"
    )


def test_kernel_us_per_row_paper_primes(emit, emit_json):
    """Resident forward + inverse microseconds per row at the paper's primes.

    Reported, not gated: the trajectory of the NTT kernel itself, apart
    from the reference it is compared with above, across PRs.
    """
    fast = create_backend("numpy")
    rows = []
    for n, sizes in PAPER_PRIME_BITS.items():
        for bits in sizes:
            tables = _tables(n, bits)
            for height in STACK_HEIGHTS:
                stack = fast.native_stack(
                    [_rand_row(tables, n + bits + r) for r in range(height)]
                )
                fast.ntt_forward_stack(tables, stack)  # twiddles, workspace
                us = {
                    name: _time(kernel, tables, stack, repeats=9) / height * 1e6
                    for name, kernel in (
                        ("forward", fast.ntt_forward_stack),
                        ("inverse", fast.ntt_inverse_stack),
                    )
                }
                rows.append([n, bits, height, f"{us['forward']:.0f}", f"{us['inverse']:.0f}"])
                emit_json(
                    op="ntt_us_per_row",
                    n=n,
                    prime_bits=bits,
                    rows=height,
                    backend="numpy",
                    forward_us_per_row=round(us["forward"], 1),
                    inverse_us_per_row=round(us["inverse"], 1),
                    gate=None,
                )
    emit(
        "backend_kernel_rows",
        render_table(
            "numpy NTT kernel, resident stacks at the paper's primes "
            "(microseconds per row, best of 9)",
            ["n", "prime bits", "rows", "forward", "inverse"],
            rows,
            note="reported, not gated; p (2 log2 n + 1) < 2^50 is the signed "
            "regime (Set-A, Set-B's 40-bit primes), < 2^48 float-lazy, "
            "< 2^52 float-strict.",
        ),
    )


def test_dyadic_us_per_row_paper_primes(emit, emit_json):
    """Resident product kernels, microseconds per row at the paper's primes.

    ``dyadic_stack_reduce`` over ``k`` digits of a lane of one and of
    eight (per digit row: ``k * lane`` rows a call) and ``dyadic_mul_rows``
    on the same lane under one modulus.  Reported, not gated.
    """
    fast = create_backend("numpy")
    rows = []
    for n, sizes in PAPER_PRIME_BITS.items():
        digits = PAPER_DIGITS[n]
        for bits in sizes:
            tables = _tables(n, bits)
            m = tables.modulus
            key = fast.native_stack([_rand_row(tables, bits + i) for i in range(digits)])
            for lane in STACK_HEIGHTS:
                stack = fast.native_stack(
                    [_rand_row(tables, n + r) for r in range(digits * lane)]
                )
                a, b = stack[:lane], stack[lane : 2 * lane]
                fast.dyadic_stack_reduce(m, stack, key)  # constants, workspace
                mac = _time(fast.dyadic_stack_reduce, m, stack, key, repeats=9)
                mul = _time(fast.dyadic_mul_rows, [m] * lane, a, b, repeats=9)
                us = {"mac": mac / (digits * lane) * 1e6, "mul": mul / lane * 1e6}
                rows.append([n, bits, digits, lane, f"{us['mac']:.1f}", f"{us['mul']:.1f}"])
                emit_json(
                    op="dyadic_us_per_row",
                    n=n,
                    prime_bits=bits,
                    digits=digits,
                    rows=lane,
                    backend="numpy",
                    stack_reduce_us_per_digit_row=round(us["mac"], 1),
                    mul_rows_us_per_row=round(us["mul"], 1),
                    gate=None,
                )
    emit(
        "backend_dyadic_rows",
        render_table(
            "numpy product kernels, resident stacks at the paper's primes "
            "(microseconds per row, best of 9)",
            ["n", "prime bits", "digits", "lane", "stack_reduce / digit row", "mul_rows / row"],
            rows,
            note="reported, not gated; one quotient estimate per sum, "
            "folds = ceil(log2(1 + d*p*(2d+6)/2^53)).",
        ),
    )
