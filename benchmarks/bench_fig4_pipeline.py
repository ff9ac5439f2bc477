"""Figure 4: basic vs optimized NTT pipeline.

The figure's claim: with single-width MEs, Type-1 stages leave a 50%
bubble in the butterfly cores (two reads per compute); doubling the ME
width restores full utilization without extra BRAM depth.  The bench
quantifies both pipelines across ring sizes and checks the paper's
utilization formula.
"""

import random

from repro.analysis.report import comparison_table, render_table
from repro.ckks.modarith import Modulus
from repro.ckks.ntt import NTTTables
from repro.ckks.primes import generate_ntt_primes
from repro.core.ntt_module import NTTModuleSim


def build_pipeline_comparison():
    rows = []
    for n, nc in [(64, 4), (256, 8), (1024, 8), (4096, 8)]:
        p = generate_ntt_primes(n, 30, 1)[0]
        sim = NTTModuleSim(NTTTables(n, Modulus(p)), nc)
        rng = random.Random(n)
        _, stats = sim.run_forward([rng.randrange(p) for _ in range(n)])
        log_n, log_nc = n.bit_length() - 1, nc.bit_length() - 1
        bubble_fraction = (log_n - log_nc - 1) / log_n
        rows.append(
            [n, nc, stats.throughput_cycles, stats.basic_pipeline_cycles,
             round(stats.basic_pipeline_cycles / stats.throughput_cycles, 3),
             round(1 + bubble_fraction, 3)]
        )
    return rows


def test_fig4_pipeline_comparison(benchmark, emit):
    rows = benchmark.pedantic(build_pipeline_comparison, rounds=1, iterations=1)
    text = render_table(
        "Figure 4: basic vs optimized pipeline cycles",
        ["n", "cores", "optimized", "basic", "slowdown", "1 + type1/stages"],
        rows,
        note="basic pipeline doubles every Type-1 stage (50% core bubble); "
        "the slowdown equals 1 + (log n - log nc - 1)/log n.",
    )
    emit("fig4_pipeline", text)
    for _, _, opt, basic, slowdown, predicted in rows:
        assert basic > opt
        assert abs(slowdown - predicted) < 1e-9


def test_fig4_optimized_restores_full_utilization(benchmark):
    """Optimized cycles equal the ideal n log n / (2 nc) -- i.e. every
    core computes a butterfly every cycle with zero bubbles."""
    n, nc = 1024, 16
    p = generate_ntt_primes(n, 30, 1)[0]
    sim = NTTModuleSim(NTTTables(n, Modulus(p)), nc)
    rng = random.Random(1)
    poly = [rng.randrange(p) for _ in range(n)]

    def cycles():
        _, stats = sim.run_forward(poly)
        return stats.throughput_cycles

    assert benchmark.pedantic(cycles, rounds=1, iterations=1) == n * 10 // (2 * nc)


def test_fig4_me_doubling_not_extra_bram_bits(benchmark):
    """Doubling ME width halves depth: same payload bits either way."""
    from repro.core.memory import MemoryLayout

    def bits():
        single = MemoryLayout(1024, 8)
        doubled = MemoryLayout(1024, 16)
        return single.logical_bits, doubled.logical_bits

    a, b = benchmark(bits)
    assert a == b


def test_fig4_memory_element_utilization(benchmark, emit):
    """Section 4.2's M20K packing: one coefficient per 40-bit BRAM pair
    reaches 54 / 80 = 68 %; eight coefficients per ME row reach 98 %+ of
    the width, and the depth is full exactly when ``n / beta >= 512``."""
    from repro.core.memory import MemoryLayout, naive_layout_utilization

    def measure():
        return [
            {"label": "one coeff per 2 BRAMs (width)", "paper": 0.68,
             "measured": round(naive_layout_utilization(), 3)},
            {"label": "n=8192, beta=8 (width)", "paper": 0.98,
             "measured": round(MemoryLayout(8192, 8).width_utilization, 3)},
            {"label": "n=8192, beta=16 (depth)", "paper": 1.0,
             "measured": MemoryLayout(8192, 16).depth_utilization},
        ]

    entries = benchmark(measure)
    emit("fig4_memory_utilization", comparison_table(
        "Section 4.2: M20K utilization (paper vs layout model)", entries
    ))
    assert entries[0]["measured"] == 0.675
    assert entries[1]["measured"] >= entries[1]["paper"]
    assert entries[2]["measured"] == 1.0
