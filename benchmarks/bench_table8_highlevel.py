"""Table 8: high-level operation throughput (KeySwitch, MULT+ReLin).

The paper's headline result: 91.7-268x over single-thread SEAL.  The
HEAX column comes from the pipeline period of the KeySwitch module
simulator (which equals the closed-form k n log n / (2 nc_INTT0));
the CPU column from the composed SEAL cost model.
"""

import pytest

from repro.analysis.paper_data import HEADLINE_SPEEDUP_RANGE, TABLE8_HIGH_LEVEL
from repro.analysis.report import render_table, shape_preserved
from repro.ckks.context import CkksContext, toy_parameters
from repro.core.arch import TABLE5_ARCHITECTURES
from repro.core.keyswitch_module import KeySwitchModuleSim
from repro.core.perf import EVALUATED_CONFIGS, PerformanceModel
from repro.system.cpu_model import SealCpuModel

SET_NAME = {4096: "Set-A", 8192: "Set-B", 16384: "Set-C"}


def build_table8():
    cpu = SealCpuModel()
    rows = []
    for device, n, k in EVALUATED_CONFIGS:
        pm = PerformanceModel(device, n, k)
        paper = TABLE8_HIGH_LEVEL[(device, SET_NAME[n])]
        heax, seal = pm.high_level_row(), cpu.high_level_row(n, k)
        ks, mr = heax["KeySwitch"], heax["MULT+ReLin"]
        cpu_ks, cpu_mr = seal["KeySwitch"], seal["MULT+ReLin"]
        rows.append(
            [f"{device}/{SET_NAME[n]}",
             round(cpu_ks, 1), paper.keyswitch_cpu,
             int(ks), paper.keyswitch_heax,
             round(ks / cpu_ks, 1), paper.keyswitch_speedup,
             round(mr / cpu_mr, 1), paper.multrelin_speedup]
        )
    return rows


def test_table8_reproduction(benchmark, emit):
    rows = benchmark(build_table8)
    text = render_table(
        "Table 8: high-level ops/sec (model vs paper)",
        ["config", "KS cpu", "pKS cpu", "KS heax", "pKS heax",
         "KS x", "pKS x", "MR x", "pMR x"],
        rows,
        note="CPU column is the composed primitive-cost model (within "
        "~20% of the paper's measurement); HEAX column is exact.",
    )
    emit("table8_highlevel", text)
    for row in rows:
        assert abs(row[3] - row[4]) <= 1  # HEAX exact
        assert abs(row[1] - row[2]) / row[2] < 0.20  # CPU within 20%
        assert abs(row[5] - row[6]) / row[6] < 0.25  # speedup within 25%
    # Shape: Set-B peaks, Arria lowest -- the paper's ordering.
    assert shape_preserved([r[6] for r in rows], [r[5] for r in rows])


def test_headline_two_orders_of_magnitude(benchmark):
    """Every Stratix config exceeds 100x; the band tracks 164-268x."""
    cpu = SealCpuModel()

    def speedups():
        out = []
        for device, n, k in EVALUATED_CONFIGS:
            if device != "Stratix10":
                continue
            pm = PerformanceModel(device, n, k)
            out.append(pm.keyswitch_ops_per_sec() * cpu.keyswitch_seconds(n, k))
            out.append(pm.mult_relin_ops_per_sec() * cpu.mult_relin_seconds(n, k))
        return out

    s = benchmark(speedups)
    lo, hi = HEADLINE_SPEEDUP_RANGE
    assert min(s) > 100
    assert max(s) < hi * 1.3
    assert lo * 0.75 < min(s)


@pytest.mark.parametrize("key", sorted(TABLE5_ARCHITECTURES))
def test_simulator_period_matches_table8(benchmark, key, bench_context):
    """The KeySwitch module simulator's pipeline period reproduces the
    Table 8 rate at the architecture's clock."""
    arch = TABLE5_ARCHITECTURES[key]
    sim = KeySwitchModuleSim(bench_context, arch)
    stats = benchmark(sim.timing)
    clock = 275e6 if key[0] == "Arria10" else 300e6
    rate = clock / stats.throughput_cycles
    paper = TABLE8_HIGH_LEVEL[key].keyswitch_heax
    assert rate == pytest.approx(paper, abs=1)
