"""Table 5: KeySwitch architecture parameters.

Re-derives each configuration from the Section 4.3 balancing equations
(free choices: nc_INTT0 and m0; everything else follows) and diffs the
result against the paper's table.  Also verifies the f1/f2 buffer
multiplicities and rate balance of every design.
"""

from repro.analysis.paper_data import TABLE5_LAYOUTS
from repro.analysis.report import render_table
from repro.core.arch import TABLE5_ARCHITECTURES, derive_architecture
from repro.core.dataflow import AccumulatorDataflowSim, KeySwitchDataflowSim


def build_table5():
    rows = []
    for key, paper_arch in sorted(TABLE5_ARCHITECTURES.items()):
        derived = derive_architecture(
            paper_arch.name, paper_arch.n, paper_arch.k,
            paper_arch.nc_intt0, paper_arch.m0,
        )
        match = "exact" if derived.describe() == paper_arch.describe() else "MS differs"
        rows.append(
            ["/".join(key), paper_arch.describe(), derived.describe(), match,
             paper_arch.f1, KeySwitchDataflowSim(paper_arch).minimum_sufficient_buffers(),
             paper_arch.f2, AccumulatorDataflowSim(paper_arch).required_buffer_polys()]
        )
    return rows


def test_table5_reproduction(benchmark, emit):
    rows = benchmark(build_table5)
    text = render_table(
        "Table 5: KeySwitch architectures (paper vs derived)",
        ["config", "paper", "derived", "match", "f1", "f1 sim", "f2", "f2 sim"],
        rows,
        note="Set-C's final Mult layer: paper instantiates 4 cores where "
        "the balancing formula needs only 2 (over-provisioned). f1 sim: the "
        "fewest input buffers the Section 4.3 event model runs at full rate "
        "with; f2 sim: its peak accumulator occupancy in one-poly units.",
    )
    emit("table5_archparams", text)
    exact = [r for r in rows if r[3] == "exact"]
    assert len(exact) == 3  # all but the Set-C MS over-provisioning
    for r in rows:
        assert r[4] == 4  # f1 = 4 everywhere -> quadruple buffering
        assert r[4] - 1 <= r[5] <= r[4]  # f1 sufficient, within one of minimal


def test_table5_paper_notation_matches_data_module(benchmark):
    """The arch objects render to exactly the strings in Table 5."""

    def check():
        for key, arch in TABLE5_ARCHITECTURES.items():
            assert arch.describe() == TABLE5_LAYOUTS[key]
        return True

    assert benchmark(check)


def test_all_architectures_rate_balanced(benchmark):
    def check():
        return all(a.throughput_balanced() for a in TABLE5_ARCHITECTURES.values())

    assert benchmark(check)
