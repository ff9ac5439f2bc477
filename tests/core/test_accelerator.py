"""Tests for the top-level HEAX accelerator model."""

import pytest

from repro.ckks.sampling import Sampler
from repro.core.accelerator import HeaxAccelerator


class TestConstruction:
    def test_all_paper_configs_instantiate(self):
        for dev, ps in [
            ("Arria10", "Set-A"),
            ("Stratix10", "Set-A"),
            ("Stratix10", "Set-B"),
            ("Stratix10", "Set-C"),
        ]:
            acc = HeaxAccelerator(dev, ps)
            assert acc.board.chip
            assert acc.arch.n == acc.spec.n

    def test_unknown_device_rejected(self):
        with pytest.raises(ValueError):
            HeaxAccelerator("Virtex7", "Set-A")

    def test_unsupported_combo_rejected(self):
        with pytest.raises(ValueError):
            HeaxAccelerator("Arria10", "Set-C")  # paper only built Set-A on Arria


class TestThroughputSurface:
    def test_throughputs_keys(self):
        acc = HeaxAccelerator("Stratix10", "Set-B")
        t = {**acc.perf.low_level_row(), **acc.perf.high_level_row()}
        assert set(t) == {"NTT", "INTT", "Dyadic", "KeySwitch", "MULT+ReLin"}

    def test_clock_matches_board(self):
        assert HeaxAccelerator("Arria10", "Set-A").clock_hz == 275e6


class TestFunctionalExecution:
    def test_execute_keyswitch_counts_ops(self, toy_context, keygen, relin_key):
        acc = HeaxAccelerator("Stratix10", "Set-B", context=toy_context)
        target = Sampler(21).uniform_residues(
            toy_context.n, toy_context.data_basis.moduli
        )
        (f0, f1), stats = acc.execute_keyswitch(target, relin_key)
        assert acc.counters.keyswitch_ops == 1
        assert acc.counters.total_cycles == stats.throughput_cycles
        assert f0.is_ntt and f1.is_ntt

    def test_functional_requires_context(self):
        acc = HeaxAccelerator("Stratix10", "Set-B")
        with pytest.raises(RuntimeError):
            acc.execute_keyswitch(None, None)

    def test_elapsed_seconds(self, toy_context, relin_key):
        acc = HeaxAccelerator("Stratix10", "Set-B", context=toy_context)
        target = Sampler(22).uniform_residues(
            toy_context.n, toy_context.data_basis.moduli
        )
        acc.execute_keyswitch(target, relin_key)
        assert acc.counters.total_cycles / acc.clock_hz > 0


class TestReporting:
    def test_describe_mentions_structure(self):
        acc = HeaxAccelerator("Stratix10", "Set-B")
        text = acc.describe()
        assert "Stratix 10" in text
        assert "KeySwitch module" in text
        assert "f1=4" in text

    def test_utilization_fractions(self):
        acc = HeaxAccelerator("Stratix10", "Set-B")
        util = acc.utilization()
        assert 0 < util["dsp"] < 1
        assert 0 < util["alm"] < 1

    def test_fits_on_board(self):
        acc = HeaxAccelerator("Stratix10", "Set-A")
        assert acc.resource_vector().fits(acc.device)
