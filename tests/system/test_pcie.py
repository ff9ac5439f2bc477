"""Tests for the PCIe transfer model (Section 5.2)."""

import pytest

from repro.system.pcie import PcieModel, polynomial_bytes


@pytest.fixture(scope="module")
def pcie():
    return PcieModel(peak_bytes_per_sec=15.75e9)  # Board-B


class TestRequestModel:
    def test_request_time_has_setup_floor(self, pcie):
        tiny = pcie.request_time(64)
        assert tiny >= pcie.setup_seconds

    def test_request_time_scales_with_size(self, pcie):
        assert pcie.request_time(1 << 20) > pcie.request_time(1 << 12)

    def test_rejects_empty_message(self, pcie):
        with pytest.raises(ValueError):
            pcie.request_time(0)


class TestEffectiveBandwidth:
    def test_polynomial_messages_reach_90_percent(self, pcie):
        """The paper's design point: >= one polynomial (2^15-2^17 B) per
        request, eight threads -> near-peak throughput."""
        for n in (4096, 8192, 16384):
            util = pcie.utilization(polynomial_bytes(n), threads=8)
            assert util > 0.90

    def test_small_messages_waste_bandwidth(self, pcie):
        assert pcie.utilization(4096, threads=1) < 0.40

    def test_more_threads_help(self, pcie):
        one = pcie.effective_bandwidth(polynomial_bytes(4096), threads=1)
        eight = pcie.effective_bandwidth(polynomial_bytes(4096), threads=8)
        assert eight > one

    def test_bandwidth_capped_at_peak(self, pcie):
        assert pcie.effective_bandwidth(1 << 24, threads=8) <= pcie.peak_bytes_per_sec


class TestTransferTime:
    def test_bulk_transfer_is_bandwidth_bound(self, pcie):
        total = 64 * polynomial_bytes(8192)
        t = pcie.transfer_time(total, polynomial_bytes(8192), threads=8)
        assert t >= total / pcie.peak_bytes_per_sec
        assert t < 2 * total / pcie.peak_bytes_per_sec + 1e-3

    def test_thread_floor(self, pcie):
        with pytest.raises(ValueError):
            pcie.transfer_time(1 << 20, 1 << 16, threads=0)


class TestSizes:
    def test_polynomial_bytes_paper_range(self):
        """Polynomials are 2^15 to 2^17 bytes across Set-A..C."""
        assert polynomial_bytes(4096) == 1 << 15
        assert polynomial_bytes(16384) == 1 << 17
