"""Tests for the DRAM model and the Section 5.1 ksk-streaming plan."""

import pytest

from repro.analysis.paper_data import SECTION5_KSK_STREAMING
from repro.system.dram import DramModel, KskStreamingPlan


@pytest.fixture(scope="module")
def board_b_dram():
    return DramModel(channels=4)


class TestDramModel:
    def test_peak_bandwidth(self, board_b_dram):
        assert board_b_dram.peak_bytes_per_sec == 64e9

    def test_burst_beats_random(self, board_b_dram):
        assert board_b_dram.streaming_bandwidth() > 4 * board_b_dram.random_bandwidth()


class TestKskStreamingPlan:
    @pytest.fixture(scope="class")
    def plan(self):
        s = SECTION5_KSK_STREAMING
        return KskStreamingPlan(
            n=s["n"], k=s["k"], keyswitch_ops_per_sec=2616, word_bits=s["word_bits"]
        )

    def test_paper_151_megabits(self, plan):
        """2 x k(k+1) x n x 64 bits = ~151 Mb per KeySwitch."""
        assert plan.bits_per_keyswitch / 1e6 == pytest.approx(151, rel=0.01)

    def test_paper_383_microseconds(self, plan):
        assert plan.budget_seconds * 1e6 == pytest.approx(383, rel=0.01)

    def test_paper_49_28_gbps_requirement(self, plan):
        assert plan.required_bytes_per_sec / 1e9 == pytest.approx(49.28, rel=0.01)

    def test_feasible_on_four_channels(self, plan, board_b_dram):
        assert plan.feasible(board_b_dram)

    def test_infeasible_on_two_channels(self, plan):
        """Board-A's two channels could not stream Set-C keys."""
        assert not plan.feasible(DramModel(channels=2))

    def test_summary_keys(self, plan, board_b_dram):
        s = plan.summary(board_b_dram)
        assert set(s) == {
            "megabits_per_keyswitch",
            "budget_us",
            "required_gbps",
            "available_gbps",
            "feasible",
        }
