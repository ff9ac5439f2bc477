"""Tests for board specifications (Table 1)."""

import pytest

from repro.system.board import get_board


class TestBoardSpecs:
    def test_arria10(self):
        b = get_board("Arria10")
        assert b.spec.chip == "Arria 10 GX 1150"
        assert b.spec.dsp == 1518
        assert b.spec.m20k == 2700
        assert b.spec.dram_channels == 2
        assert b.spec.clock_hz == 275e6

    def test_stratix10(self):
        b = get_board("Stratix10")
        assert b.spec.chip == "Stratix 10 GX 2800"
        assert b.spec.dsp == 5760
        assert b.spec.m20k == 11_700
        assert b.spec.dram_channels == 4
        assert b.spec.clock_hz == 300e6

    def test_stratix_is_strictly_bigger(self):
        a, s = get_board("Arria10").spec, get_board("Stratix10").spec
        assert s.dsp > a.dsp
        assert s.alm > a.alm
        assert s.bram_bits > a.bram_bits
        assert s.pcie_gbps > a.pcie_gbps

    def test_unknown_board(self):
        with pytest.raises(ValueError):
            get_board("Virtex")


class TestLinkRates:
    def test_pcie_bandwidths(self):
        assert get_board("Arria10").pcie_bytes_per_sec == pytest.approx(7.88e9)
        assert get_board("Stratix10").pcie_bytes_per_sec == pytest.approx(15.75e9)

    def test_dram_bandwidths(self):
        assert get_board("Stratix10").dram_bytes_per_sec == pytest.approx(64e9)

