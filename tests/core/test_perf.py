"""Performance-model tests: must reproduce Tables 7 and 8 exactly."""

import pytest

from repro.analysis.paper_data import (
    TABLE7_LOW_LEVEL,
    TABLE8_HIGH_LEVEL,
    HEADLINE_SPEEDUP_RANGE,
)
from repro.core.perf import (
    CLOCK_HZ,
    EVALUATED_CONFIGS,
    PerformanceModel,
    dyadic_cycles,
    keyswitch_cycles,
    ntt_cycles,
)

SET_NAME = {4096: "Set-A", 8192: "Set-B", 16384: "Set-C"}


class TestCycleFormulas:
    def test_ntt_cycles_examples(self):
        assert ntt_cycles(4096, 16) == 1536
        assert ntt_cycles(8192, 16) == 3328
        assert ntt_cycles(16384, 16) == 7168

    def test_dyadic_cycles(self):
        assert dyadic_cycles(4096, 16) == 256

    def test_keyswitch_cycles(self):
        assert keyswitch_cycles(8192, 4, 16) == 13312


class TestClockFrequencies:
    def test_final_frequencies(self):
        assert CLOCK_HZ["Arria10"] == 275e6
        assert CLOCK_HZ["Stratix10"] == 300e6


@pytest.mark.parametrize("device,n,k", EVALUATED_CONFIGS)
class TestTable7:
    def test_ntt_matches(self, device, n, k):
        pm = PerformanceModel(device, n, k)
        paper = TABLE7_LOW_LEVEL[(device, SET_NAME[n])].ntt_heax
        assert pm.ntt_ops_per_sec() == pytest.approx(paper, abs=1)

    def test_intt_matches(self, device, n, k):
        pm = PerformanceModel(device, n, k)
        paper = TABLE7_LOW_LEVEL[(device, SET_NAME[n])].intt_heax
        assert pm.intt_ops_per_sec() == pytest.approx(paper, abs=1)

    def test_dyadic_matches(self, device, n, k):
        pm = PerformanceModel(device, n, k)
        paper = TABLE7_LOW_LEVEL[(device, SET_NAME[n])].dyadic_heax
        assert pm.dyadic_ops_per_sec() == pytest.approx(paper, abs=1)


@pytest.mark.parametrize("device,n,k", EVALUATED_CONFIGS)
class TestTable8:
    def test_keyswitch_matches(self, device, n, k):
        pm = PerformanceModel(device, n, k)
        paper = TABLE8_HIGH_LEVEL[(device, SET_NAME[n])].keyswitch_heax
        assert pm.keyswitch_ops_per_sec() == pytest.approx(paper, abs=1)

    def test_mult_relin_matches(self, device, n, k):
        pm = PerformanceModel(device, n, k)
        paper = TABLE8_HIGH_LEVEL[(device, SET_NAME[n])].multrelin_heax
        assert pm.mult_relin_ops_per_sec() == pytest.approx(paper, abs=1)


class TestScalability:
    def test_stratix_doubles_arria_on_set_a(self):
        """Section 6.3: the up-scaled Stratix instance gives ~2x throughput
        at the same HE parameters (2x cores + higher clock)."""
        arria = PerformanceModel("Arria10", 4096, 2)
        stratix = PerformanceModel("Stratix10", 4096, 2)
        ratio = stratix.keyswitch_ops_per_sec() / arria.keyswitch_ops_per_sec()
        assert ratio == pytest.approx(2 * 300 / 275 / 1, rel=1e-6)
        assert 2.0 < ratio < 2.4

    def test_headline_speedup_range(self):
        """Stratix speedups over CPU span the paper's 164-268x claim."""
        lo, hi = HEADLINE_SPEEDUP_RANGE
        speedups = []
        dims = {"Set-A": (4096, 2), "Set-B": (8192, 4), "Set-C": (16384, 8)}
        for (dev, ps), row in TABLE8_HIGH_LEVEL.items():
            if dev != "Stratix10":
                continue
            n, k = dims[ps]
            pm = PerformanceModel(dev, n, k)
            speedups.append(pm.keyswitch_ops_per_sec() / row.keyswitch_cpu)
            speedups.append(pm.mult_relin_ops_per_sec() / row.multrelin_cpu)
        assert min(speedups) >= lo * 0.99
        assert max(speedups) <= hi * 1.01


class TestHelpers:
    def test_all_models_cover_evaluated_configs(self):
        models = [PerformanceModel(d, n, k) for d, n, k in EVALUATED_CONFIGS]
        assert len(models) == 4
        assert {(m.device, m.n) for m in models} == {
            (d, n) for d, n, _ in EVALUATED_CONFIGS
        }

    def test_rows_have_expected_keys(self):
        pm = PerformanceModel("Stratix10", 8192, 4)
        assert set(pm.low_level_row()) == {"NTT", "INTT", "Dyadic"}
        assert set(pm.high_level_row()) == {"KeySwitch", "MULT+ReLin"}
