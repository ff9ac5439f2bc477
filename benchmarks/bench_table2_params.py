"""Table 2: HE parameter sets.

Regenerates Set-A/B/C from the library's parameter constructors and
checks the paper's three invariants: ring size, total modulus bits, and
RNS component count -- plus actually *constructing* the modulus chains
(primes = 1 mod 2n, word-size-safe), which the paper precomputed.
"""

import pytest

from repro.analysis.paper_data import TABLE2_PARAM_SETS
from repro.analysis.report import comparison_table, render_table
from repro.ckks.context import PAPER_PARAMETER_SETS, CkksContext
from repro.ckks.serialization import kswitch_key_wire_bytes

#: Section 5.1: Set-C's key-switching key, both column sets, is 151 Mb
#: -- the volume that puts it in DRAM rather than on chip.
SET_C_KSK_MEGABITS = 151


def build_table2():
    rows = []
    for name, spec in TABLE2_PARAM_SETS.items():
        params = PAPER_PARAMETER_SETS[name]
        rows.append(
            [name, params.n, params.total_modulus_bits, params.k,
             spec.n, spec.log_qp_plus1, spec.k]
        )
    return rows


def test_table2_reproduction(benchmark, emit):
    rows = benchmark(build_table2)
    text = render_table(
        "Table 2: HE parameter sets (ours vs paper)",
        ["set", "n", "log(qp)+1", "k", "paper n", "paper bits", "paper k"],
        rows,
    )
    emit("table2_params", text)
    for _, n, bits, k, pn, pbits, pk in rows:
        assert n == pn
        assert bits == pbits
        assert k == pk


@pytest.mark.parametrize("name", sorted(PAPER_PARAMETER_SETS))
def test_modulus_chains_constructible(benchmark, name):
    """The chains exist: enough NTT-friendly primes of each size."""
    params = PAPER_PARAMETER_SETS[name]
    if params.n > 8192:
        pytest.skip("Set-C chain construction exercised by test suite; slow here")

    def build():
        ctx = CkksContext(params)
        return ctx.key_basis

    basis = benchmark.pedantic(build, rounds=1, iterations=1)
    assert len(basis) == params.k + 1
    for m in basis:
        assert m.value % (2 * params.n) == 1
        assert m.value < 1 << 52


def test_set_c_ksk_volume(benchmark, emit):
    """The Section 5.1 DRAM argument: ``k`` digits x 2 columns x ``k + 1``
    residues x ``n`` words of Set-C's key on the v1 wire."""
    params = PAPER_PARAMETER_SETS["Set-C"]
    megabits = benchmark(kswitch_key_wire_bytes, params.n, params.k, version=1) * 8 / 1e6
    emit("table2_ksk_volume", comparison_table(
        "Section 5.1: Set-C key-switching key volume (Mb)",
        [{"label": "ksk, both column sets", "paper": SET_C_KSK_MEGABITS,
          "measured": round(megabits, 1)}],
    ))
    assert megabits == pytest.approx(SET_C_KSK_MEGABITS, rel=0.01)
