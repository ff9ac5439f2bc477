"""Table 4: basic-module resources and cycle counts.

Two halves:

* **Resources** -- the model returns the calibrated REG/ALM for the
  tabulated core counts and composes DSP structurally (exact).
* **Cycles** -- the *simulators* are run (not just the formula) for the
  n = 2^12 ring the paper's cycle column uses, scaled down in core count
  where the pure-Python simulator would be slow.  The printed-vs-model
  discrepancy in the MULT 16/32-core rows (DESIGN.md section 5) is
  surfaced in the output.
"""

import random

import pytest

from repro.analysis.paper_data import TABLE4_MODULES
from repro.analysis.report import render_table
from repro.ckks.modarith import Modulus
from repro.ckks.ntt import NTTTables
from repro.ckks.primes import generate_ntt_primes
from repro.core.mult_module import MultModuleSim
from repro.core.ntt_module import NTTModuleSim
from repro.core.perf import dyadic_cycles, ntt_cycles
from repro.core.resources import ResourceModel

N_CYCLE_REF = 4096  # the paper's cycle column is for n = 2^12


def build_table4():
    model = ResourceModel()
    rows = []
    for (kind, nc), paper in sorted(TABLE4_MODULES.items()):
        rv = model.module_resources(kind, nc)
        model_cycles = (
            dyadic_cycles(N_CYCLE_REF, nc)
            if kind == "mult"
            else ntt_cycles(N_CYCLE_REF, nc)
        )
        rows.append(
            [paper.module, nc, rv.dsp, rv.reg, rv.alm,
             int(model_cycles), paper.cycles, paper.dsp]
        )
    return rows


def test_table4_reproduction(benchmark, emit):
    rows = benchmark(build_table4)
    text = render_table(
        "Table 4: basic modules (model vs paper)",
        ["module", "cores", "DSP", "REG", "ALM", "cycles(model)", "cycles(paper)", "DSP(paper)"],
        rows,
        note="MULT 16/32-core printed cycles are half the consistent model "
        "(paper typo, see DESIGN.md); all other rows match exactly.",
    )
    emit("table4_modules", text)
    for row in rows:
        assert row[2] == row[7]  # DSP exact
        if not (row[0] == "MULT" and row[1] in (16, 32)):
            assert row[5] == row[6]  # cycles exact except the typo rows


@pytest.mark.parametrize("nc", [4, 8])
def test_ntt_module_cycles_simulated(benchmark, nc):
    """Run the actual NTT module simulator at n = 2^12 and check the
    cycle count against Table 4's column."""
    p = generate_ntt_primes(N_CYCLE_REF, 30, 1)[0]
    tables = NTTTables(N_CYCLE_REF, Modulus(p))
    sim = NTTModuleSim(tables, nc)
    rng = random.Random(nc)
    poly = [rng.randrange(p) for _ in range(N_CYCLE_REF)]

    out, stats = benchmark.pedantic(sim.run_forward, args=(poly,), rounds=1, iterations=1)
    assert out == tables.forward(poly)
    assert stats.throughput_cycles == TABLE4_MODULES[("ntt", nc)].cycles


@pytest.mark.parametrize("nc", [4, 8])
def test_intt_module_cycles_simulated(benchmark, nc):
    """Algorithm 4 on the same module: Table 4's INTT rows."""
    p = generate_ntt_primes(N_CYCLE_REF, 30, 1)[0]
    tables = NTTTables(N_CYCLE_REF, Modulus(p))
    sim = NTTModuleSim(tables, nc)
    rng = random.Random(nc)
    values = [rng.randrange(p) for _ in range(N_CYCLE_REF)]

    out, stats = benchmark.pedantic(sim.run_inverse, args=(values,), rounds=1, iterations=1)
    assert out == tables.inverse(values)
    assert stats.throughput_cycles == TABLE4_MODULES[("intt", nc)].cycles


@pytest.mark.parametrize("nc", [4, 8, 16, 32])
def test_mult_module_cycles_simulated(benchmark, nc):
    p = generate_ntt_primes(N_CYCLE_REF, 30, 1)[0]
    sim = MultModuleSim(Modulus(p), N_CYCLE_REF, nc)
    rng = random.Random(nc)
    a = [rng.randrange(p) for _ in range(N_CYCLE_REF)]
    b = [rng.randrange(p) for _ in range(N_CYCLE_REF)]

    out, stats = benchmark.pedantic(sim.dyadic_multiply, args=(a, b), rounds=1, iterations=1)
    assert stats.cycles == TABLE4_MODULES[("mult", nc)].cycles_model
